"""Panel geometry: element positions, link distances, elevation cosines.

Panels are rectangular grids of reflecting elements lying in a plane
parallel to the xy-plane.  All distances are Euclidean, in meters.
Per-element quantities are numpy arrays with one entry per element,
row-major over (y, x): ``element_centers`` gives the coordinate arrays and
``element_links`` one ``ElementLinks`` record of distance and cosine arrays.

Convention note: the elevation cosine from an element toward the user
(``cos_r``) is computed from the *receiver* height.  Output metadata of
the workbench repeats this note so downstream consumers see the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

# Surfaced in workbench run metadata (see module docstring).
ELEVATION_CONVENTION_NOTE = (
    "element-to-user elevation cosine computed from the receiver height"
)
# Per-panel element bound, so every per-element array stays allocatable
# (100x the largest panel the benchmark runs, 316 x 316).
MAX_PANEL_ELEMENTS = 10**7


@dataclass(frozen=True)
class Point3:
    """A point in 3-space, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


class PanelError(ValueError):
    """A RisPanel field value out of range; `fields` names the fields at
    fault."""

    def __init__(self, fields: tuple[str, ...], message: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class RisPanel:
    """One reflecting surface: center, element grid counts, element size.

    The panel lies in the plane z = center.z, elements on an mx-by-my grid
    with spacing (dx, dy) meters.
    """

    center: Point3
    mx: int
    my: int
    dx: float
    dy: float

    def __post_init__(self):
        for name in ("mx", "my"):
            if getattr(self, name) < 1:
                raise PanelError((name,), "element counts must be >= 1")
        for name in ("dx", "dy"):
            if getattr(self, name) <= 0:
                raise PanelError((name,), "element dimensions must be positive")
        if self.mx * self.my > MAX_PANEL_ELEMENTS:
            raise PanelError(
                ("mx", "my"), f"element count mx*my exceeds the limit of {MAX_PANEL_ELEMENTS}"
            )
        # the path-loss reference constant divides by dx^2 * dy^2
        sx, sy = self.dx * self.dx, self.dy * self.dy
        for fields, square in ((("dx",), sx), (("dy",), sy), (("dx", "dy"), sx * sy)):
            if not 0.0 < square < math.inf:
                raise PanelError(
                    fields, f"element size {self.dx:g} x {self.dy:g} m is out of float range"
                )

    @property
    def element_count(self) -> int:
        return self.mx * self.my

    @property
    def diagonal(self) -> float:
        """Maximum panel dimension: the diagonal of the mx*dx by my*dy face."""
        return math.hypot(self.mx * self.dx, self.my * self.dy)


@dataclass(frozen=True)
class ElementLinks:
    """Per-element link quantities for one BS -> element -> user hop.

    Each field is an array with one entry per element, row-major over
    (y, x) like ``element_centers``.
    """

    r_t: np.ndarray  # BS to element
    r_r: np.ndarray  # element to user
    d_m: np.ndarray  # element to panel center
    cos_tx: np.ndarray
    cos_rx: np.ndarray
    cos_t: np.ndarray
    cos_r: np.ndarray

    def __len__(self) -> int:
        return self.r_t.size


@dataclass(frozen=True)
class PanelLink:
    """Panel-center link quantities (the far-field view of a panel)."""

    d1: float  # BS to panel center
    d2: float  # user to panel center
    cos_theta_t: float
    cos_theta_r: float


def element_centers(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """Element-center x and y coordinates, row-major over (y, x).

    Offsets along each axis are (i - (n-1)/2) * spacing for i = 0..n-1, so
    the grid is symmetric about the panel center and the centroid of the
    returned points is the center itself.  Every element lies at z =
    panel.center.z.
    """
    xs = panel.center.x + (np.arange(panel.mx) - (panel.mx - 1) / 2.0) * panel.dx
    ys = panel.center.y + (np.arange(panel.my) - (panel.my - 1) / 2.0) * panel.dy
    x, y = np.meshgrid(xs, ys)
    return x.ravel(), y.ravel()


def _require_above_plane(point: Point3, z0: float, field: str) -> None:
    if point.z <= z0:
        raise GeometryError(f"{field}={point.z} must lie strictly above the panel plane z={z0}")


def panel_link(bs: Point3, user: Point3, panel: RisPanel) -> PanelLink:
    """Center-of-panel distances and elevation cosines."""
    z0 = panel.center.z
    _require_above_plane(bs, z0, "scenario.bs.z")
    _require_above_plane(user, z0, "scenario.user.z")
    d1 = bs.distance_to(panel.center)
    d2 = user.distance_to(panel.center)
    return PanelLink(
        d1=d1,
        d2=d2,
        cos_theta_t=(bs.z - z0) / d1,
        cos_theta_r=(user.z - z0) / d2,
    )


def _distances(point: Point3, x: np.ndarray, y: np.ndarray, z0: float) -> np.ndarray:
    dx, dy, dz = x - point.x, y - point.y, z0 - point.z
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def element_links(bs: Point3, user: Point3, panel: RisPanel) -> ElementLinks:
    """Per-element distances and elevation cosines.

    cos_tx / cos_rx follow the law of cosines in the triangle formed by the
    endpoint, the element, and the panel center; cos_t / cos_r are height
    over slant range.
    """
    link = panel_link(bs, user, panel)
    d1, d2 = link.d1, link.d2
    x, y = element_centers(panel)
    z0 = panel.center.z
    r_t = _distances(bs, x, y, z0)
    r_r = _distances(user, x, y, z0)
    d_m = _distances(panel.center, x, y, z0)
    d_m2 = d_m * d_m
    return ElementLinks(
        r_t=r_t,
        r_r=r_r,
        d_m=d_m,
        cos_tx=(d1 * d1 + r_t * r_t - d_m2) / (2.0 * d1 * r_t),
        cos_rx=(d2 * d2 + r_r * r_r - d_m2) / (2.0 * d2 * r_r),
        cos_t=(bs.z - z0) / r_t,
        cos_r=(user.z - z0) / r_r,
    )


def near_field_boundary(panel: RisPanel, wavelength: float) -> float:
    """Distance below which per-element path losses differ materially.

    2 * D^2 / wavelength with D the panel diagonal; computed from the
    squared side lengths directly so exact inputs give exact output.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    wx = panel.mx * panel.dx
    wy = panel.my * panel.dy
    return 2.0 * (wx * wx + wy * wy) / wavelength
