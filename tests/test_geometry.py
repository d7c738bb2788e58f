import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_beta_inv, brute_force_element_links
from panels import near_field, whole_panel
from riscap.errors import GeometryError, ScenarioError
from riscap.geometry import (
    MAX_PANEL_ELEMENTS,
    TILE_ELEMENTS,
    Point3,
    RisPanel,
    near_field_boundary,
    panel_link,
    panel_tiles,
)
from riscap.pathloss import beta0_reference

LAMBDA = 0.06
CELL = LAMBDA / 8


def panel(mx, my, dx=CELL, dy=CELL, center=Point3(0.0, 0.0, 0.0)):
    return RisPanel(center=center, mx=mx, my=my, dx=dx, dy=dy)


class TestRisPanelLimits:
    def test_element_count_bound(self):
        assert panel(MAX_PANEL_ELEMENTS, 1).element_count == MAX_PANEL_ELEMENTS
        with pytest.raises(ScenarioError, match="element count") as exc:
            panel(MAX_PANEL_ELEMENTS + 1, 1)
        assert exc.value.fields == ("mx", "my")
        with pytest.raises(ScenarioError, match="element count"):
            panel(10**5, 10**5)

    @pytest.mark.parametrize(
        "dx, dy, fields",
        [
            (1e155, CELL, ("dx",)),
            (1e-200, CELL, ("dx",)),
            (1e200, 1e-200, ("dx",)),
            (CELL, 1e-200, ("dy",)),
            # each square in range, their product not
            (1e150, 1e50, ("dx", "dy")),
        ],
    )
    def test_element_size_out_of_float_range(self, dx, dy, fields):
        with pytest.raises(ScenarioError, match="element size") as exc:
            panel(2, 2, dx=dx, dy=dy)
        assert exc.value.fields == fields


def links(bs, user, p) -> dict[str, np.ndarray]:
    """The whole panel's r_t, r_r, cos_tx and cos_rx from one links call,
    row-major."""
    arrays = near_field(bs, user, p).links(range(p.my), range(p.mx))
    return dict(zip(("r_t", "r_r", "cos_tx", "cos_rx"), (a.ravel() for a in arrays)))


class TestElementCenters:
    """The element grid, read off RisPanel.element_x / element_y, and the
    kernel's row-major order over it."""

    def test_single_element_sits_on_panel_center(self):
        c = Point3(1.0, -2.0, 3.0)
        p = panel(1, 1, dx=0.37, dy=0.11, center=c)
        assert p.element_x(range(1)).tolist() == [1.0]
        assert p.element_y(range(1)).tolist() == [-2.0]

    def test_two_by_one_offsets(self):
        p = panel(2, 1, 1.0, 1.0)
        assert p.element_x(range(2)).tolist() == [-0.5, 0.5]
        assert p.element_y(range(1)).tolist() == [0.0]
        # the BS sees the two elements at the distances of their offsets:
        # with gt = gr = 2 and the user at the BS, beta^-1 = h^2 / r^6
        bs = Point3(-5.0, 0.0, 1.0)
        r = (1.0 / whole_panel(near_field(bs, bs, p))) ** (1 / 6)
        assert r.tolist() == pytest.approx([math.hypot(4.5, 1.0), math.hypot(5.5, 1.0)])

    def test_max_offset_24_grid(self):
        # direct enumeration: farthest center is (23/2) cells out per axis
        p = panel(24, 24)
        assert np.max(np.abs(p.element_x(range(24)))) == pytest.approx(11.5 * CELL, rel=1e-12)
        assert np.max(np.abs(p.element_y(range(24)))) == pytest.approx(11.5 * CELL, rel=1e-12)

    def test_row_major_order(self):
        # the BS is a different distance from each element, so beta^-1
        # fixes their order: (-x, -y), (+x, -y), (-x, +y), (+x, +y)
        bs = Point3(3.0, 7.0, 1.0)
        p = panel(2, 2, dx=1.0, dy=1.0)
        # with gt = gr = 2 and the user at the BS, beta^-1 = h^2 / r_t^6
        expected = [
            math.dist((bs.x, bs.y, bs.z), (x, y, 0.0)) ** -6
            for x, y in ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5))
        ]
        np.testing.assert_allclose(whole_panel(near_field(bs, bs, p)), expected, rtol=1e-15, atol=0)

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
        # element i and element count-1-i lie equally far from the centre,
        # which is then the centroid of the grid
        p = panel(mx, my, dx=dx, dy=dy, center=Point3(cx, cy, 0.0))
        for offsets, count, spacing, scale in (
            (p.element_x(range(mx)) - cx, mx, dx, max(abs(cx), mx * dx)),
            (p.element_y(range(my)) - cy, my, dy, max(abs(cy), my * dy)),
        ):
            np.testing.assert_allclose(offsets, -offsets[::-1], rtol=0, atol=1e-12 * scale)
            expected = [(i - (count - 1) / 2.0) * spacing for i in range(count)]
            np.testing.assert_allclose(offsets, expected, rtol=0, atol=1e-12 * scale)


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

    @staticmethod
    def assert_tiles_equal_whole_panel(bs, user, p, gt, gr):
        link = panel_link(bs, user, p)
        whole = near_field(bs, user, p, gt, gr, link=link).inverse_losses(range(p.my), range(p.mx))
        grid = whole.reshape(p.my, p.mx)
        tiled = near_field(bs, user, p, gt, gr, link=link)
        for rows, cols in panel_tiles(p):
            tile = tiled.inverse_losses(rows, cols)
            want = grid[rows.start : rows.stop, cols.start : cols.stop].ravel()
            assert np.array_equal(tile, want), (rows, cols)

    @pytest.mark.parametrize("mx, my", [(1, 1), (7, 5), (317, 101), (12000, 1), (1, 10**4)])
    def test_tiles_equal_whole_panel_links(self, mx, my):
        # the same operations per element, whatever the tile
        bs, user = Point3(-50.0, 0.0, 10.0), Point3(50.0, 0.0, 10.0)
        p = panel(mx, my, center=Point3(0.0, 0.0, 9.5))
        self.assert_tiles_equal_whole_panel(bs, user, p, 100.0, 1.0)

    @pytest.mark.parametrize("mx, my", [(317, 101), (316, 52), (12001, 1), (1, 9999), (91, 91)])
    @pytest.mark.parametrize(
        "bs, user, center",
        [
            ((-3.0, 1.5, 4.0), (7.0, -2.0, 2.5), (0.2, 0.4, 0.3)),
            ((1.0, -6.0, 1.2), (-2.0, 5.0, 9.0), (-0.5, -1.0, -0.7)),
        ],
    )
    def test_tiles_equal_whole_panel_off_the_link_axis(self, mx, my, bs, user, center):
        # endpoints and centre off y = 0 at different heights, odd and even
        # grids: the tiles are still the whole panel's rows and columns
        p = panel(mx, my, center=Point3(*center))
        assert len(list(panel_tiles(p))) > 1
        self.assert_tiles_equal_whole_panel(Point3(*bs), Point3(*user), p, 20.0, 6.0)

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
        with pytest.raises(ValueError, match="range"):
            near_field(bs, user, p).inverse_losses(rows, cols)


class TestElementLinks:
    """The kernel's distances and endpoint cosines from NearFieldTiles.links,
    and the elevation cosines read off its beta^-1 with beta0_ref = 1: at
    gt = gr = 2 that is cos_t cos_r / (r_t r_r)^2."""

    BS = Point3(-50.0, 0.0, 10.0)
    USER = Point3(50.0, 0.0, 10.0)

    def test_baseline_geometry_d1(self):
        p = panel(24, 24, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        assert link.d1 == pytest.approx(math.sqrt(0.5**2 + 0.5**2), rel=1e-15)

    def test_center_element_law_of_cosines_degenerates(self):
        # an odd grid has one element exactly at the panel center (d_m = 0)
        p = panel(3, 3, center=Point3(-49.5, 0.0, 9.5))
        got = links(self.BS, self.USER, p)
        assert got["cos_tx"][4] == pytest.approx(1.0, rel=1e-12)
        assert got["cos_rx"][4] == pytest.approx(1.0, rel=1e-12)

    def test_bs_above_center_gives_unit_elevation(self):
        p = panel(3, 3, center=Point3(0.0, 0.0, 0.0))
        bs, user = Point3(0.0, 0.0, 7.0), Point3(30.0, 0.0, 5.0)
        r_r = math.hypot(30.0, 5.0)
        # cos_t = 1 at r_t = 7: beta^-1 = (5 / r_r) / (7 r_r)^2
        beta_inv = whole_panel(near_field(bs, user, p))
        assert beta_inv[4] == pytest.approx(5.0 / r_r / (7.0 * r_r) ** 2, rel=1e-12)

    def test_rejects_endpoint_in_panel_plane(self):
        # the kernel takes the panel link, which rejects the endpoint
        p = panel(2, 2)
        for bs, user in (
            (Point3(-5.0, 0.0, 0.0), Point3(5.0, 0.0, 1.0)),
            (Point3(-5.0, 0.0, 1.0), Point3(5.0, 0.0, -0.2)),
        ):
            with pytest.raises(GeometryError):
                whole_panel(near_field(bs, user, p))

    def test_triangle_inequality_against_panel_center(self):
        p = panel(8, 6, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        got = links(self.BS, self.USER, p)
        x = p.element_x(range(p.mx)) - p.center.x
        y = p.element_y(range(p.my)) - p.center.y
        d_m = np.hypot(x[None, :], y[:, None]).ravel()
        assert len(got["r_t"]) == 48
        assert np.all(np.abs(got["r_t"] - link.d1) <= d_m + 1e-12)
        assert np.all(np.abs(got["r_r"] - link.d2) <= d_m + 1e-12)

    def test_cos_tx_approaches_one_with_distance(self):
        p = panel(16, 16, center=Point3(0.0, 0.0, 0.0))
        user = Point3(50.0, 0.0, 10.0)
        worst = []
        for d in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            bs = Point3(-d, 0.0, d)  # recede along a fixed oblique direction
            worst.append(np.max(np.abs(links(bs, user, p)["cos_tx"] - 1.0)))
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
        gains=st.sampled_from([(2.0, 2.0), (4.0, 2.0), (2.0, 4.0), (100.0, 1.0), (20.0, 6.0)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_scalar_loop(
        self, mx, my, dx, dy, center, bs_xy, user_xy, heights, gains
    ):
        # Endpoint heights are at least one panel diagonal above the plane,
        # so each endpoint sees every element within 30 degrees of the panel
        # center and the law-of-cosines numerators cannot cancel: the two
        # routes then agree to a few ulps in every distance and cosine, and
        # in beta^-1, which the elevation cosines enter linearly.
        c = Point3(*center)
        p = panel(mx, my, dx=dx, dy=dy, center=c)
        hb, hu = (h * math.hypot(mx * dx, my * dy) for h in heights)
        bs = Point3(c.x + bs_xy[0], c.y + bs_xy[1], c.z + hb)
        user = Point3(c.x + user_xy[0], c.y + user_xy[1], c.z + hu)
        expected = brute_force_element_links(bs, user, p)
        for name, got in links(bs, user, p).items():
            assert got.shape == (mx * my,)
            np.testing.assert_allclose(got, expected[name], rtol=1e-12, atol=0, err_msg=name)
        gt, gr = gains
        got = whole_panel(near_field(bs, user, p, gt, gr, beta0_reference(gt, gr, dx, dy)))
        expected = brute_force_beta_inv(bs, user, p, gt, gr)
        assert got.shape == (mx * my,)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestNearFieldBoundary:
    def test_reference_configurations(self):
        assert near_field_boundary(panel(40, 40), LAMBDA) == pytest.approx(6.0, rel=1e-12)
        assert near_field_boundary(panel(30, 40), LAMBDA) == pytest.approx(4.6875, rel=1e-12)
        assert near_field_boundary(panel(20, 40), LAMBDA) == pytest.approx(3.75, rel=1e-12)

    def test_quadratic_scaling_in_grid_size(self):
        base = near_field_boundary(panel(10, 14), LAMBDA)
        doubled = near_field_boundary(panel(20, 28), LAMBDA)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)
