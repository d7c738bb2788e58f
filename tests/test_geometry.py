import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_element_links
from riscap.errors import GeometryError
from riscap.geometry import (
    MAX_PANEL_ELEMENTS,
    Point3,
    RisPanel,
    element_centers,
    element_links,
    near_field_boundary,
    panel_link,
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
    def test_single_element_sits_on_panel_center(self):
        c = Point3(1.0, -2.0, 3.0)
        x, y = element_centers(panel(1, 1, dx=0.37, dy=0.11, center=c))
        assert x.tolist() == [c.x] and y.tolist() == [c.y]

    def test_two_by_one_offsets(self):
        x, y = element_centers(panel(2, 1, dx=1.0, dy=1.0))
        assert sorted(x.tolist()) == [-0.5, 0.5]
        assert y.tolist() == [0.0, 0.0]

    def test_max_offset_24_grid(self):
        # direct enumeration: farthest center is (23/2) cells out per axis
        x, y = element_centers(panel(24, 24))
        got = max(math.hypot(px, py) for px, py in zip(x, y))
        assert got == pytest.approx(math.sqrt(2.0) * 11.5 * CELL, rel=1e-12)

    def test_row_major_order(self):
        x, y = element_centers(panel(2, 2, dx=1.0, dy=1.0))
        assert list(zip(x.tolist(), y.tolist())) == [
            (-0.5, -0.5),
            (0.5, -0.5),
            (-0.5, 0.5),
            (0.5, 0.5),
        ]

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
        p = panel(mx, my, dx=dx, dy=dy, center=Point3(cx, cy, 0.0))
        x, y = element_centers(p)
        scale = max(abs(cx), abs(cy), mx * dx, my * dy)
        assert sum(x) / len(x) == pytest.approx(cx, abs=1e-12 * scale)
        assert sum(y) / len(y) == pytest.approx(cy, abs=1e-12 * scale)


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
        links = element_links(self.BS, self.USER, p)
        center = np.argmin(links.d_m)
        assert links.d_m[center] == 0.0
        assert links.cos_tx[center] == pytest.approx(1.0, rel=1e-12)
        assert links.cos_rx[center] == pytest.approx(1.0, rel=1e-12)

    def test_bs_above_center_gives_unit_elevation(self):
        p = panel(3, 3, center=Point3(0.0, 0.0, 0.0))
        links = element_links(Point3(0.0, 0.0, 7.0), Point3(30.0, 0.0, 5.0), p)
        center = np.argmin(links.d_m)
        assert links.cos_t[center] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_endpoint_in_panel_plane(self):
        p = panel(2, 2)
        with pytest.raises(GeometryError):
            element_links(Point3(-5.0, 0.0, 0.0), Point3(5.0, 0.0, 1.0), p)
        with pytest.raises(GeometryError):
            element_links(Point3(-5.0, 0.0, 1.0), Point3(5.0, 0.0, -0.2), p)

    def test_triangle_inequality_against_panel_center(self):
        p = panel(8, 6, center=Point3(-49.5, 0.0, 9.5))
        link = panel_link(self.BS, self.USER, p)
        links = element_links(self.BS, self.USER, p)
        assert len(links) == 48
        assert np.all(np.abs(links.r_t - link.d1) <= links.d_m + 1e-12)
        assert np.all(np.abs(links.r_r - link.d2) <= links.d_m + 1e-12)

    def test_cos_tx_approaches_one_with_distance(self):
        p = panel(16, 16, center=Point3(0.0, 0.0, 0.0))
        user = Point3(50.0, 0.0, 10.0)
        worst = []
        for d in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            bs = Point3(-d, 0.0, d)  # recede along a fixed oblique direction
            links = element_links(bs, user, p)
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
        links = element_links(bs, user, p)
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
