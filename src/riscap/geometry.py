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

``Point3`` and ``RisPanel`` check their own fields when built: a value
out of range raises ``ScenarioError`` naming the attribute (``x``, ``dy``).

Convention note: the elevation cosine from an element toward the user
(``cos_r``, formed per element by ``pathloss.NearFieldTiles``) is computed
from the *receiver* height.  Output metadata of
the workbench repeats this note so downstream consumers see the choice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ScenarioError

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
    """A point in 3-space, meters, with finite coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError("coordinates must be finite", (name,))

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class RisPanel:
    """One reflecting surface: center, element grid counts, element size.

    The panel lies in the plane z = center.z, elements on an mx-by-my grid
    (integer counts >= 1, at most MAX_PANEL_ELEMENTS in all) with spacing
    (dx, dy) meters (positive, with squares in float range).
    """

    center: Point3
    mx: int
    my: int
    dx: float
    dy: float

    def __post_init__(self):
        for name in ("mx", "my"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ScenarioError(f"expected an integer, got {value!r}", (name,))
            if value < 1:
                raise ScenarioError("element counts must be >= 1", (name,))
        for name in ("dx", "dy"):
            if not getattr(self, name) > 0:
                raise ScenarioError("element dimensions must be positive", (name,))
        if int(self.mx) * int(self.my) > MAX_PANEL_ELEMENTS:
            raise ScenarioError(
                f"element count mx*my exceeds the limit of {MAX_PANEL_ELEMENTS}", ("mx", "my")
            )
        # the path-loss reference constant divides by dx^2 * dy^2
        dx, dy = self.dx, self.dy
        sx, sy = dx * dx, dy * dy
        for names, square in ((("dx",), sx), (("dy",), sy), (("dx", "dy"), sx * sy)):
            if not 0.0 < square < math.inf:
                raise ScenarioError(f"element size {dx:g} x {dy:g} m is out of float range", names)

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
    """Panel-center link quantities (the far-field view of a panel), and
    the panel's index and section path, which its failures name."""

    d1: float  # BS to panel center
    d2: float  # user to panel center
    cos_theta_t: float
    cos_theta_r: float
    section: str = "scenario.deployment.panel"
    index: int = 0


def panel_link(
    bs: Point3, user: Point3, panel: RisPanel, section: str = PanelLink.section, index: int = 0
) -> PanelLink:
    """Center-of-panel distances and elevation cosines of panel index at
    section (a Scenario holds its endpoints above every panel plane)."""
    z0 = panel.center.z
    d1 = bs.distance_to(panel.center)
    d2 = user.distance_to(panel.center)
    return PanelLink(
        d1=d1,
        d2=d2,
        cos_theta_t=(bs.z - z0) / d1,
        cos_theta_r=(user.z - z0) / d2,
        section=section,
        index=index,
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
    wx = panel.mx * panel.dx
    wy = panel.my * panel.dy
    return 2.0 * (wx * wx + wy * wy) / wavelength
