import math

import numpy as np
import pytest

from oracles import brute_force_element_links
from panels import near_field, whole_panel
from riscap.errors import PatternUnderflow, SingularPattern
from riscap.geometry import PanelLink, Point3, RisPanel, panel_link
from riscap.pathloss import (
    LinkBudget,
    beta0_reference,
    direct_pathloss,
    farfield_pathloss,
)

CELL = 0.0075
BS = Point3(-50.0, 0.0, 10.0)
USER = Point3(50.0, 0.0, 10.0)


def fig_panel(mx=40, my=40):
    return RisPanel(center=Point3(-49.5, 0.0, 9.5), mx=mx, my=my, dx=CELL, dy=CELL)


class TestLinkBudget:
    FIELDS = dict(gt=100.0, gr=1.0, tx_power=1e-3, noise_power=1e-15, eta_db=-30.0, xi=3.5)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("gt", "antenna gains"),
            ("gr", "antenna gains"),
            ("tx_power", "transmit power"),
            ("noise_power", "noise power"),
            ("xi", "path-loss exponent"),
        ],
    )
    def test_rejects_nan(self, field, message):
        with pytest.raises(ValueError, match=f"^{message} must be positive$"):
            LinkBudget(**{**self.FIELDS, field: math.nan})


class TestBeta0Reference:
    def test_unit_inputs(self):
        assert beta0_reference(1.0, 1.0, 1.0, 1.0) == pytest.approx(16 * math.pi**2, rel=1e-15)

    def test_quartic_cell_scaling(self):
        assert beta0_reference(2.0, 3.0, 2.0, 1.0) == pytest.approx(
            beta0_reference(2.0, 3.0, 1.0, 1.0) / 4.0, rel=1e-15
        )

    def test_reference_budget_value(self):
        # 16 pi^2 / (100 * 1 * 0.0075^4), written out independently
        expected = 16.0 * math.pi**2 / 100.0 / (0.0075 * 0.0075 * 0.0075 * 0.0075)
        assert beta0_reference(100.0, 1.0, CELL, CELL) == pytest.approx(expected, rel=1e-12)

    def test_invariant_product(self):
        # beta0_ref * dx^2 * dy^2 must not depend on the cell size
        a = beta0_reference(5.0, 2.0, 0.01, 0.02) * 0.01**2 * 0.02**2
        b = beta0_reference(5.0, 2.0, 0.3, 0.07) * 0.3**2 * 0.07**2
        assert a == pytest.approx(b, rel=1e-12)


class TestJointPattern:
    """The joint pattern cos_tx^(gt/2-1) cos_t cos_r cos_rx^(gr/2-1), read
    off beta^-1 = pattern / (b0 (r_t r_r)^2) with b0 = 1."""

    def test_all_unit_cosines(self):
        # both endpoints above a one-element panel: every cosine is 1, so
        # beta^-1 is 1 / (r_t r_r)^2 exactly
        p = RisPanel(Point3(0.0, 0.0, 0.0), 1, 1, 1.0, 1.0)
        bs, user = Point3(0.0, 0.0, 2.0), Point3(0.0, 0.0, 4.0)
        beta_inv = whole_panel(near_field(bs, user, p, 20.0, 4.0))
        assert beta_inv.tolist() == [1.0 / 64.0]

    def test_exponents_vanish_at_gain_two(self):
        # off-axis endpoints: cos_tx, cos_rx < 1 drop out at gt = gr = 2
        p = RisPanel(Point3(0.3, -0.2, 0.0), 1, 1, 1.0, 1.0)
        bs, user = Point3(1.0, 2.0, 3.0), Point3(-4.0, 5.0, 6.0)
        link = panel_link(bs, user, p)
        expected = link.cos_theta_t * link.cos_theta_r / (link.d1 * link.d2) ** 2
        beta_inv = whole_panel(near_field(bs, user, p, 2.0, 2.0))
        assert beta_inv[0] == pytest.approx(expected, rel=1e-15)

    def test_off_center_element_against_scripted_product(self):
        # both endpoints on the normal of the element 12 m off-center, at
        # heights 5 and 9: r_t = 5, r_r = 9, cos_t = cos_r = 1, and the
        # 5-12-13 and 9-12-15 triangles give cos_tx = 5/13, cos_rx = 9/15,
        # every one formed exactly or correctly rounded
        p = RisPanel(Point3(0.0, 0.0, 0.0), 3, 1, 12.0, 1.0)
        bs, user = Point3(12.0, 0.0, 5.0), Point3(12.0, 0.0, 9.0)
        gt, gr = 100.0, 1.0
        pattern = (5.0 / 13.0) ** (gt / 2 - 1) * 1.0 * 1.0 * (9.0 / 15.0) ** (gr / 2 - 1)
        expected = pattern / (5.0 * 9.0) ** 2
        assert whole_panel(near_field(bs, user, p, gt, gr))[2] == pytest.approx(expected, rel=1e-15)


class TestElementPathloss:
    def test_center_element_matches_farfield_at_gain_two(self):
        p = RisPanel(center=Point3(-49.5, 0.0, 9.5), mx=1, my=1, dx=CELL, dy=CELL)
        b0 = beta0_reference(2.0, 2.0, CELL, CELL)
        beta_inv = whole_panel(near_field(BS, USER, p, 2.0, 2.0, b0))
        assert beta_inv.shape == (1,)
        assert 1.0 / beta_inv[0] == pytest.approx(
            farfield_pathloss(panel_link(BS, USER, p), b0), rel=1e-12
        )

    def test_distance_scaling(self):
        # the geometry scaled by 2 keeps every cosine: the loss grows 16-fold
        def scaled(k):
            p = RisPanel(Point3(0.3 * k, -0.2 * k, 0.1 * k), 3, 2, 0.2 * k, 0.1 * k)
            bs, user = Point3(-3.0 * k, 1.0 * k, 2.0 * k), Point3(40.0 * k, 2.0 * k, 5.0 * k)
            return whole_panel(near_field(bs, user, p, 20.0, 4.0, b0=1e9))

        np.testing.assert_allclose(scaled(1.0), 16.0 * scaled(2.0), rtol=1e-12, atol=0)

    def test_edge_element_lossier_than_center(self):
        p = fig_panel()
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        beta_inv = whole_panel(near_field(BS, USER, p, 100.0, 1.0, b0))
        x = p.element_x(range(p.mx)) - p.center.x
        y = p.element_y(range(p.my)) - p.center.y
        d_m = np.hypot(x[None, :], y[:, None]).ravel()
        ratio = beta_inv[np.argmin(d_m)] / beta_inv[np.argmax(d_m)]
        assert ratio > 1.0

    def test_negative_pattern_rejected(self):
        # the BS 1e-300 m over the plane and ~1e24 m away: cos_t = h / r_t
        # underflows to 0, a pattern of 0 that no gain exponent caused
        p = RisPanel(Point3(0.0, 0.0, 0.0), 2, 1, 1e23, 1.0)
        bs, user = Point3(-1e24, 0.0, 1e-300), Point3(0.0, 0.0, 1e23)
        with pytest.raises(SingularPattern, match="radiation pattern is not positive") as exc:
            whole_panel(near_field(bs, user, p, 2.0, 2.0))
        assert type(exc.value) is SingularPattern

    def test_negative_endpoint_cosine_rejected_with_fractional_exponent(self):
        # element x = -0.5 lies past the BS's perpendicular: a float power
        # of its negative cos_tx would otherwise go complex
        p = RisPanel(Point3(0.0, 0.0, 0.0), 2, 1, 1.0, 1.0)
        kernel = near_field(Point3(-0.3, 0.0, 0.1), Point3(5.0, 0.0, 5.0), p, 5.0, 1.0)
        beta_inv = kernel.inverse_losses(range(1), range(2))
        assert math.isnan(beta_inv[0]) and beta_inv[1] > 0
        with pytest.raises(SingularPattern, match="endpoint-side"):
            kernel.check()

    def test_rejection_names_count_and_worst_value(self):
        p = RisPanel(Point3(0.0, 0.0, 0.0), 8, 1, 1.0, 1.0)
        bs, user = Point3(-10.0, 0.0, 10.0), Point3(1.0, 0.0, 0.5)
        links = brute_force_element_links(bs, user, p)
        endpoint = np.minimum(links["cos_tx"], links["cos_rx"])
        assert np.count_nonzero(endpoint <= 0) == 3
        worst = f"{endpoint.min():.4g}"
        with pytest.raises(SingularPattern, match=rf"3 element\(s\).*worst {worst}\)"):
            whole_panel(near_field(bs, user, p, 5.0, 1.0))
        # cos_t = 1e-300 / r_t underflows to 0 at the three elements
        p = RisPanel(Point3(0.0, 0.0, 0.0), 3, 1, 1e24, 1.0)
        bs, user = Point3(-1.5e24, 0.0, 1e-300), Point3(0.0, 0.0, 1e24)
        with pytest.raises(SingularPattern, match=r"not positive at 3 element\(s\) \(worst 0\)"):
            whole_panel(near_field(bs, user, p, 2.0, 2.0))

    def test_shapes_and_positivity(self):
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        for (mx, my), size in (((4, 6), 24), ((3, 3), 9)):
            p = fig_panel(mx, my)
            beta_inv = whole_panel(near_field(BS, USER, p, 100.0, 1.0, b0))
            assert beta_inv.shape == (size,)
            assert np.all(beta_inv > 0)
            assert farfield_pathloss(panel_link(BS, USER, p), b0) > 0

    def test_farfield_convergence_with_distance(self):
        # max |beta_m / beta_ff - 1| shrinks on a doubling sequence and is
        # below 1% once both endpoints are far beyond the boundary (6 m)
        p = RisPanel(center=Point3(0.0, 0.0, 0.0), mx=40, my=40, dx=CELL, dy=CELL)
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        worst = []
        for d in (60.0, 120.0, 240.0):
            bs = Point3(-d / math.sqrt(2), 0.0, d / math.sqrt(2))
            user = Point3(d / math.sqrt(2), 1.0, d / math.sqrt(2))
            ff = farfield_pathloss(panel_link(bs, user, p), b0)
            beta_inv = whole_panel(near_field(bs, user, p, 100.0, 1.0, b0))
            worst.append(max(abs(1.0 / (b * ff) - 1.0) for b in beta_inv))
        assert worst[0] < 0.01
        assert worst[2] < worst[1] < worst[0]


class TestPatternFaults:
    """Faults recorded tile by tile raise what one call over the whole
    panel raises, and every tile's beta^-1 is that call's.  Each case is an
    8 x 1 panel with unit cells (or wider ones, to reach the float range's
    edges), centered at the origin, and one error text or none."""

    CASES = {
        "clean": (Point3(-10, 0, 10), Point3(10, 0, 10), 4000.0, 1.0, 1.0, None),
        # the last three elements lie past the user's perpendicular
        "endpoint_in_last_tile": (
            Point3(-10, 0, 10), Point3(1, 0, 0.5), 4000.0, 1.0, 1.0,
            (SingularPattern, r"3 element\(s\) are not \(worst -0\.7894\)"),
        ),
        # cos_tx^1999 underflows at the first two elements, and the last
        # lies past the user's perpendicular
        "endpoint_beats_earlier_underflow": (
            Point3(-2, 0, 2), Point3(2, 0, 1.1), 4000.0, 1.0, 1.0,
            (SingularPattern, r"1 element\(s\) are not \(worst -0\.4216\)"),
        ),
        # the BS 1 m above the center: cos_tx^1999 underflows at both ends
        "underflow_across_tiles": (
            Point3(0, 0, 1), Point3(20, 0, 10), 4000.0, 1.0, 1.0,
            (PatternUnderflow, r"underflows to 0 at 6 element\(s\)"),
        ),
        # cos_t = 1e-300 / r_t is positive at the first two elements, 0 at
        # the rest, and every pattern is 0
        "non_positive_beats_underflow": (
            Point3(-8e23, 0, 1e-300), Point3(0, 0, 1e23), 2.0, 4000.0, 2e23,
            (SingularPattern, r"not positive at 8 element\(s\) \(worst 0\)"),
        ),
        # the first element's squared distances overflow, so its cosines
        # are nan; the last three lie behind the in-plane endpoints
        "nan_worst_from_a_clean_tile": (
            Point3(0.3e154, 0, 1), Point3(0.3e154, 0, 2), 4000.0, 1.0, 4e153,
            (SingularPattern, r"3 element\(s\) are not \(worst nan\)"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("bounds", [(3, 5), (1, 7), (2, 6)])
    def test_tiles_raise_what_one_call_raises(self, case, bounds):
        bs, user, gt, gr, dx, raises = self.CASES[case]
        p = RisPanel(Point3(0.0, 0.0, 0.0), 8, 1, dx, 1.0)
        one_tile, tiled = near_field(bs, user, p, gt, gr), near_field(bs, user, p, gt, gr)
        whole, start = one_tile.inverse_losses(range(1), range(8)), 0
        for stop in (*bounds, 8):
            tile = tiled.inverse_losses(range(1), range(start, stop))
            assert np.array_equal(tile, whole[start:stop], equal_nan=True)
            start = stop
        if raises is None:
            one_tile.check()
            tiled.check()
            return
        with pytest.raises(raises[0], match=raises[1]) as exc:
            one_tile.check()
        with pytest.raises(SingularPattern) as by_tile:
            tiled.check()
        assert type(by_tile.value) is type(exc.value)
        assert str(by_tile.value) == str(exc.value)


class TestFarfieldPathloss:
    def test_quadratic_in_each_distance(self):
        link = PanelLink(5.0, 30.0, 0.7, 0.8)
        doubled = PanelLink(5.0, 60.0, 0.7, 0.8)
        assert farfield_pathloss(doubled, 2.0) == pytest.approx(
            4.0 * farfield_pathloss(link, 2.0), rel=1e-15
        )

    def test_midlink_panel_value(self):
        p = RisPanel(center=Point3(0.0, 0.0, 9.5), mx=24, my=24, dx=CELL, dy=CELL)
        link = panel_link(BS, USER, p)
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        expected = b0 * (link.d1 * link.d2) ** 2 / (link.cos_theta_t * link.cos_theta_r)
        assert farfield_pathloss(link, b0) == pytest.approx(expected, rel=1e-15)

    def test_zero_cosine_rejected(self):
        with pytest.raises(SingularPattern):
            farfield_pathloss(PanelLink(5.0, 30.0, 0.0, 0.8), 2.0)


class TestDirectPathloss:
    def test_reference_distance(self):
        # at 1 m the loss is -eta dB exactly
        assert direct_pathloss(1.0, -30.0, 3.5) == pytest.approx(1e3, rel=1e-12)

    def test_hundred_meters(self):
        # -30 - 35*log10(100) = -100 dB inverse loss
        assert direct_pathloss(100.0, -30.0, 3.5) == pytest.approx(1e10, rel=1e-12)

    def test_baseline_endpoint_distance_is_100m(self):
        assert BS.distance_to(USER) == pytest.approx(100.0, rel=1e-15)

    def test_monotone_in_distance(self):
        losses = [direct_pathloss(d, -30.0, 3.5) for d in (1.0, 10.0, 50.0, 200.0)]
        assert losses == sorted(losses)
