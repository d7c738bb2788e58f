"""Panel geometry: element positions, link distances, elevation cosines.

Panels are rectangular grids of reflecting elements lying in a plane
parallel to the xy-plane.  All distances are Euclidean, in meters.
Per-element quantities are numpy arrays with one entry per element,
row-major over (y, x).  ``element_links`` gives one ``ElementLinks`` record
of distance and cosine arrays for a tile of the panel (a block of its rows
and columns) from the panel's ``panel_link``, and ``panel_tiles`` splits a
panel into tiles of at most ``TILE_ELEMENTS`` elements, so a per-element
evaluation holds one tile's links at a time whatever the panel size.

Convention note: the elevation cosine from an element toward the user
(``cos_r``) is computed from the *receiver* height.  Output metadata of
the workbench repeats this note so downstream consumers see the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GeometryError

# Surfaced in workbench run metadata (see module docstring).
ELEVATION_CONVENTION_NOTE = (
    "element-to-user elevation cosine computed from the receiver height"
)
# Per-panel element bound, so every per-element array stays allocatable
# (100x the largest panel the benchmark runs, 316 x 316).
MAX_PANEL_ELEMENTS = 10**7
# Elements per tile of panel_tiles: one tile's links (seven arrays and
# their temporaries) then stay within a few hundred KiB.
TILE_ELEMENTS = 2**13


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


@dataclass(frozen=True)
class ElementLinks:
    """Per-element link quantities for one BS -> element -> user hop.

    Each field is an array with one entry per element of a tile, row-major
    over (y, x).
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


def panel_tiles(panel: RisPanel) -> Iterator[tuple[range, range]]:
    """(rows, cols) index ranges of rectangular tiles of at most
    TILE_ELEMENTS elements that cover the panel once, row-major; a row
    longer than a tile is split into several tiles."""
    width = min(panel.mx, TILE_ELEMENTS)
    height = TILE_ELEMENTS // width
    for r in range(0, panel.my, height):
        for c in range(0, panel.mx, width):
            yield range(r, min(r + height, panel.my)), range(c, min(c + width, panel.mx))


def _distances(point: Point3, xs: np.ndarray, ys: np.ndarray, z0: float) -> np.ndarray:
    """Distances from point to the grid of element centres (xs[i], ys[j], z0),
    row-major over (j, i), summed from per-axis offsets."""
    dx, dy, dz = xs - point.x, ys - point.y, z0 - point.z
    squares = (dx * dx)[None, :] + (dy * dy)[:, None]
    squares += dz * dz
    return np.sqrt(squares, out=squares).ravel()


def element_links(
    bs: Point3, user: Point3, panel: RisPanel, link: PanelLink, rows: range, cols: range
) -> ElementLinks:
    """Per-element distances and elevation cosines of the tile of rows
    (y indices) and cols (x indices) of the panel; link is
    panel_link(bs, user, panel), computed once for all of a panel's tiles.

    Element (i, j) sits at offset ((i - (mx-1)/2) * dx, (j - (my-1)/2) * dy)
    from the panel center, so the grid is symmetric about the center.
    cos_tx / cos_rx follow the law of cosines in the triangle formed by the
    endpoint, the element, and the panel center; cos_t / cos_r are height
    over slant range.
    """
    for name, span, count in (("rows", rows, panel.my), ("cols", cols, panel.mx)):
        if span.step != 1 or not 0 <= span.start < span.stop <= count:
            raise ValueError(f"{name} must be a non-empty unit-step range within 0..{count}")
    d1, d2 = link.d1, link.d2
    c = panel.center
    xs = c.x + (np.arange(cols.start, cols.stop) - (panel.mx - 1) / 2.0) * panel.dx
    ys = c.y + (np.arange(rows.start, rows.stop) - (panel.my - 1) / 2.0) * panel.dy
    z0 = c.z
    r_t = _distances(bs, xs, ys, z0)
    r_r = _distances(user, xs, ys, z0)
    d_m = _distances(c, xs, ys, z0)
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
