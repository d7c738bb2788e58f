"""Panel geometry: element positions, tiles, panel-center links, boundary.

Panels are rectangular grids of reflecting elements lying in a plane
parallel to the xy-plane.  All distances are Euclidean, in meters.
Element (i, j) sits at offset ((i - (mx-1)/2) * dx, (j - (my-1)/2) * dy)
from the panel center, so the grid is symmetric about the center;
``RisPanel.element_x`` and ``element_y`` give the coordinates of a range
of its columns and rows.  ``panel_tiles`` splits a panel into tiles (a
block of its rows and columns) of at most ``TILE_ELEMENTS`` elements, so
a per-element evaluation (``pathloss.NearFieldTiles``) holds one tile at
a time whatever the panel size; per-element arrays are row-major over
(y, x).

Convention note: the elevation cosine from an element toward the user
(``cos_r``, formed per element by ``pathloss.NearFieldTiles``) is computed
from the *receiver* height.  Output metadata of
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
# Elements per tile of panel_tiles: one near-field tile's five arrays
# then stay within a few hundred KiB.
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

    def element_x(self, cols: range) -> np.ndarray:
        """x coordinates of the columns cols, a unit-step range in 0..mx."""
        return _axis("cols", cols, self.mx, self.center.x, self.dx)

    def element_y(self, rows: range) -> np.ndarray:
        """y coordinates of the rows rows, a unit-step range in 0..my."""
        return _axis("rows", rows, self.my, self.center.y, self.dy)


def _axis(name: str, span: range, count: int, center: float, spacing: float) -> np.ndarray:
    """Element i of count sits at center + (i - (count-1)/2) * spacing."""
    if span.step != 1 or not 0 <= span.start < span.stop <= count:
        raise ValueError(f"{name} must be a non-empty unit-step range within 0..{count}")
    return center + (np.arange(span.start, span.stop) - (count - 1) / 2.0) * spacing


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
