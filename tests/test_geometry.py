import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_element_links
from riscap.errors import GeometryError
from riscap.geometry import (
    MAX_PANEL_ELEMENTS,
    TILE_ELEMENTS,
    Point3,
    RisPanel,
    element_links,
    near_field_boundary,
    panel_link,
    panel_tiles,
)

LAMBDA = 0.06
CELL = LAMBDA / 8


def panel(mx, my, dx=CELL, dy=CELL, center=Point3(0.0, 0.0, 0.0)):
    return RisPanel(center=center, mx=mx, my=my, dx=dx, dy=dy)


class TestRisPanelLimits:
    def test_element_count_bound(self):
        assert panel(MAX_PANEL_ELEMENTS, 1).element_count == MAX_PANEL_ELEMENTS
        with pytest.raises(ValueError, match="element count"):
            panel(MAX_PANEL_ELEMENTS + 1, 1)
        with pytest.raises(ValueError, match="element count"):
            panel(10**5, 10**5)

    @pytest.mark.parametrize("dx, dy", [(1e155, CELL), (1e-200, CELL), (1e200, 1e-200)])
    def test_element_size_out_of_float_range(self, dx, dy):
        with pytest.raises(ValueError, match="element size"):
            panel(2, 2, dx=dx, dy=dy)


class TestElementCenters:
    """The element grid, read off element_links' element-to-centre
    distances d_m and endpoint distances r_t."""

    def test_single_element_sits_on_panel_center(self):
        c = Point3(1.0, -2.0, 3.0)
        p = panel(1, 1, dx=0.37, dy=0.11, center=c)
        bs, user = Point3(0.0, 0.0, 5.0), Point3(4.0, 0.0, 5.0)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(1), range(1))
        assert links.d_m.tolist() == [0.0]

    def test_two_by_one_offsets(self):
        bs, user = Point3(-5.0, 0.0, 1.0), Point3(5.0, 0.0, 1.0)
        p = panel(2, 1, 1.0, 1.0)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(1), range(2))
        assert links.d_m.tolist() == [0.5, 0.5]
        assert links.r_t.tolist() == pytest.approx([math.hypot(4.5, 1.0), math.hypot(5.5, 1.0)])

    def test_max_offset_24_grid(self):
        # direct enumeration: farthest center is (23/2) cells out per axis
        bs, user = Point3(-5.0, 0.0, 1.0), Point3(5.0, 0.0, 1.0)
        p = panel(24, 24)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(24), range(24))
        assert links.d_m.max() == pytest.approx(math.sqrt(2.0) * 11.5 * CELL, rel=1e-12)

    def test_row_major_order(self):
        # the BS is a different distance from each element, so r_t fixes
        # their order: (-x, -y), (+x, -y), (-x, +y), (+x, +y)
        bs, user = Point3(3.0, 7.0, 1.0), Point3(-5.0, 0.0, 1.0)
        p = panel(2, 2, dx=1.0, dy=1.0)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(2), range(2))
        expected = [
            math.dist((bs.x, bs.y, bs.z), (x, y, 0.0))
            for x, y in ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5))
        ]
        np.testing.assert_allclose(links.r_t, expected, rtol=1e-15, atol=0)

    @given(
        mx=st.integers(1, 9),
        my=st.integers(1, 9),
        dx=st.floats(1e-3, 10.0),
        dy=st.floats(1e-3, 10.0),
        cx=st.floats(-100, 100),
        cy=st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_centroid_is_panel_center(self, mx, my, dx, dy, cx, cy):
        # element (i, j) and element (mx-1-i, my-1-j) lie equally far from
        # the centre, which is then the centroid of the grid
        c = Point3(cx, cy, 0.0)
        p = panel(mx, my, dx=dx, dy=dy, center=c)
        bs, user = Point3(cx, cy, 1.0), Point3(cx + 1.0, cy, 1.0)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(my), range(mx))
        expected = brute_force_element_links(bs, user, p)
        scale = max(abs(cx), abs(cy), mx * dx, my * dy)
        grid = links.d_m.reshape(my, mx)
        np.testing.assert_allclose(grid, grid[::-1, ::-1], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(links.d_m, expected["d_m"], rtol=0, atol=1e-12 * scale)


class TestPanelTiles:
    @pytest.mark.parametrize(
        "mx, my",
        [
            (1, 1),
            (24, 24),
            (316, 316),
            (317, 101),
            (1, 10**5),
            (12000, 1),
            (TILE_ELEMENTS, 3),
            (TILE_ELEMENTS + 1, 2),
        ],
    )
    def test_tiles_cover_the_panel_once_row_major(self, mx, my):
        p = panel(mx, my)
        covered = np.zeros((my, mx), dtype=int)
        order = np.empty(0, dtype=int)
        index = np.arange(mx * my).reshape(my, mx)
        for rows, cols in panel_tiles(p):
            assert 0 < len(rows) * len(cols) <= TILE_ELEMENTS
            covered[rows.start : rows.stop, cols.start : cols.stop] += 1
            order = np.append(order, index[rows.start, cols.start])
        assert np.all(covered == 1)
        assert np.all(np.diff(order) > 0)

    def test_long_row_is_split(self):
        assert len(list(panel_tiles(panel(12000, 1)))) == 2

    @pytest.mark.parametrize("mx, my", [(1, 1), (7, 5), (317, 101), (12000, 1), (1, 10**4)])
    def test_tiles_equal_whole_panel_links(self, mx, my):
        # the same operations per element, whatever the tile
        bs, user = Point3(-50.0, 0.0, 10.0), Point3(50.0, 0.0, 10.0)
        p = panel(mx, my, center=Point3(0.0, 0.0, 9.5))
        link = panel_link(bs, user, p)
        whole = element_links(bs, user, p, link, range(my), range(mx))
        for rows, cols in panel_tiles(p):
            tile = element_links(bs, user, p, link, rows, cols)
            for name in ("r_t", "r_r", "d_m", "cos_tx", "cos_rx", "cos_t", "cos_r"):
                grid = getattr(whole, name).reshape(my, mx)
                want = grid[rows.start : rows.stop, cols.start : cols.stop].ravel()
                assert np.array_equal(getattr(tile, name), want), name

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (range(0, 0), range(2)),
            (range(3), range(2)),
            (range(2), range(0, 3)),
            (range(0, 2, 2), range(2)),
            (range(-1, 1), range(2)),
        ],
    )
    def test_rejects_tile_outside_the_panel(self, rows, cols):
        bs, user, p = Point3(0.0, 0.0, 1.0), Point3(1.0, 0.0, 1.0), panel(2, 2)
        link = panel_link(bs, user, p)
        with pytest.raises(ValueError, match="range"):
            element_links(bs, user, p, link, rows, cols)


class TestElementLinks:
    BS = Point3(-50.0, 0.0, 10.0)
    USER = Point3(50.0, 0.0, 10.0)

    def test_baseline_geometry_d1(self):
        p = panel(24, 24, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        assert link.d1 == pytest.approx(math.sqrt(0.5**2 + 0.5**2), rel=1e-15)

    def test_center_element_law_of_cosines_degenerates(self):
        # an odd grid has one element exactly at the panel center (d_m = 0)
        p = panel(3, 3, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        links = element_links(self.BS, self.USER, p, link, range(p.my), range(p.mx))
        center = np.argmin(links.d_m)
        assert links.d_m[center] == 0.0
        assert links.cos_tx[center] == pytest.approx(1.0, rel=1e-12)
        assert links.cos_rx[center] == pytest.approx(1.0, rel=1e-12)

    def test_bs_above_center_gives_unit_elevation(self):
        p = panel(3, 3, center=Point3(0.0, 0.0, 0.0))
        bs, user = Point3(0.0, 0.0, 7.0), Point3(30.0, 0.0, 5.0)
        links = element_links(bs, user, p, panel_link(bs, user, p), range(3), range(3))
        center = np.argmin(links.d_m)
        assert links.cos_t[center] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_endpoint_in_panel_plane(self):
        # element_links takes the panel link, which rejects the endpoint
        p = panel(2, 2)
        for bs, user in (
            (Point3(-5.0, 0.0, 0.0), Point3(5.0, 0.0, 1.0)),
            (Point3(-5.0, 0.0, 1.0), Point3(5.0, 0.0, -0.2)),
        ):
            with pytest.raises(GeometryError):
                element_links(bs, user, p, panel_link(bs, user, p), range(2), range(2))

    def test_triangle_inequality_against_panel_center(self):
        p = panel(8, 6, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        links = element_links(self.BS, self.USER, p, link, range(p.my), range(p.mx))
        assert len(links) == 48
        assert np.all(np.abs(links.r_t - link.d1) <= links.d_m + 1e-12)
        assert np.all(np.abs(links.r_r - link.d2) <= links.d_m + 1e-12)

    def test_cos_tx_approaches_one_with_distance(self):
        p = panel(16, 16, center=Point3(0.0, 0.0, 0.0))
        user = Point3(50.0, 0.0, 10.0)
        worst = []
        for d in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            bs = Point3(-d, 0.0, d)  # recede along a fixed oblique direction
            link = panel_link(bs, user, p)
            links = element_links(bs, user, p, link, range(p.my), range(p.mx))
            worst.append(np.max(np.abs(links.cos_tx - 1.0)))
        assert all(b < a for a, b in zip(worst, worst[1:]))
        assert worst[-1] < 1e-4


    @given(
        mx=st.integers(1, 9),
        my=st.integers(1, 9),
        dx=st.floats(1e-3, 0.5),
        dy=st.floats(1e-3, 0.5),
        center=st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-10, 10)),
        bs_xy=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        user_xy=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        heights=st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_scalar_loop(self, mx, my, dx, dy, center, bs_xy, user_xy, heights):
        # Endpoint heights are at least one panel diagonal above the plane,
        # so each endpoint sees every element within 30 degrees of the panel
        # center and the law-of-cosines numerators cannot cancel: the two
        # routes then agree to a few ulps in every quantity.
        c = Point3(*center)
        p = panel(mx, my, dx=dx, dy=dy, center=c)
        hb, hu = (h * math.hypot(mx * dx, my * dy) for h in heights)
        bs = Point3(c.x + bs_xy[0], c.y + bs_xy[1], c.z + hb)
        user = Point3(c.x + user_xy[0], c.y + user_xy[1], c.z + hu)
        link = panel_link(bs, user, p)
        links = element_links(bs, user, p, link, range(p.my), range(p.mx))
        expected = brute_force_element_links(bs, user, p)
        assert len(links) == mx * my
        for name, want in expected.items():
            got = getattr(links, name)
            assert got.shape == (mx * my,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


class TestNearFieldBoundary:
    def test_reference_configurations(self):
        assert near_field_boundary(panel(40, 40), LAMBDA) == pytest.approx(6.0, rel=1e-12)
        assert near_field_boundary(panel(30, 40), LAMBDA) == pytest.approx(4.6875, rel=1e-12)
        assert near_field_boundary(panel(20, 40), LAMBDA) == pytest.approx(3.75, rel=1e-12)

    def test_quadratic_scaling_in_grid_size(self):
        base = near_field_boundary(panel(10, 14), LAMBDA)
        doubled = near_field_boundary(panel(20, 28), LAMBDA)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            near_field_boundary(panel(2, 2), 0.0)
