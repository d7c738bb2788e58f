import math
from dataclasses import fields

import numpy as np
import pytest

from riscap.errors import SingularPattern
from riscap.geometry import ElementLinks, PanelLink, Point3, RisPanel, element_links, panel_link
from riscap.pathloss import (
    LinkBudget,
    PatternFaults,
    beta0_reference,
    direct_pathloss,
    element_pathloss,
    farfield_pathloss,
)

CELL = 0.0075
BS = Point3(-50.0, 0.0, 10.0)
USER = Point3(50.0, 0.0, 10.0)


def fig_panel(mx=40, my=40):
    return RisPanel(center=Point3(-49.5, 0.0, 9.5), mx=mx, my=my, dx=CELL, dy=CELL)


def one_element(r_t, r_r, d_m, cos_tx, cos_rx, cos_t, cos_r):
    """An ElementLinks record holding a single element."""
    return ElementLinks(
        *(np.array([v], dtype=float) for v in (r_t, r_r, d_m, cos_tx, cos_rx, cos_t, cos_r))
    )


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
    def test_all_unit_cosines(self):
        link = one_element(1, 1, 0, 1.0, 1.0, 1.0, 1.0)
        assert PatternFaults().pattern(link, 20.0, 4.0)[0] == 1.0

    def test_exponents_vanish_at_gain_two(self):
        link = one_element(1, 1, 0, 0.3, 0.4, 0.5, 0.6)
        assert PatternFaults().pattern(link, 2.0, 2.0)[0] == pytest.approx(0.5 * 0.6, rel=1e-15)

    def test_off_center_element_against_scripted_product(self):
        p = fig_panel()
        links = element_links(BS, USER, p, panel_link(BS, USER, p), range(40), range(40))
        i = 7  # arbitrary off-center element
        cos_tx, cos_rx, cos_t, cos_r = (
            float(getattr(links, name)[i]) for name in ("cos_tx", "cos_rx", "cos_t", "cos_r")
        )
        gt, gr = 100.0, 1.0
        expected = cos_tx ** (gt / 2 - 1) * cos_t * cos_r * cos_rx ** (gr / 2 - 1)
        assert PatternFaults().pattern(links, gt, gr)[i] == pytest.approx(expected, rel=1e-15)


class TestElementPathloss:
    def test_center_element_matches_farfield_at_gain_two(self):
        p = RisPanel(center=Point3(-49.5, 0.0, 9.5), mx=1, my=1, dx=CELL, dy=CELL)
        b0 = beta0_reference(2.0, 2.0, CELL, CELL)
        plink = panel_link(BS, USER, p)
        links = element_links(BS, USER, p, plink, range(1), range(1))
        assert len(links) == 1
        faults = PatternFaults()
        assert element_pathloss(links, b0, 2.0, 2.0, faults)[0] == pytest.approx(
            farfield_pathloss(plink, b0), rel=1e-12
        )
        faults.check(2.0, 2.0)

    def test_distance_scaling(self):
        link = one_element(3.0, 40.0, 0.1, 0.99, 0.98, 0.6, 0.5)
        scaled = one_element(6.0, 80.0, 0.1, 0.99, 0.98, 0.6, 0.5)
        b0 = 1e9
        faults = PatternFaults()
        assert element_pathloss(scaled, b0, 20.0, 4.0, faults)[0] == pytest.approx(
            16.0 * element_pathloss(link, b0, 20.0, 4.0, faults)[0], rel=1e-12
        )
        faults.check(20.0, 4.0)

    def test_edge_element_lossier_than_center(self):
        p = fig_panel()
        links = element_links(BS, USER, p, panel_link(BS, USER, p), range(40), range(40))
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        faults = PatternFaults()
        losses = element_pathloss(links, b0, 100.0, 1.0, faults)
        faults.check(100.0, 1.0)
        center = np.argmin(links.d_m)
        edge = np.argmax(links.d_m)
        ratio = losses[edge] / losses[center]
        assert ratio > 1.0

    def test_negative_pattern_rejected(self):
        link = one_element(1.0, 1.0, 0.0, 1.0, 1.0, -0.2, 0.5)
        faults = PatternFaults()
        element_pathloss(link, 1.0, 2.0, 2.0, faults)
        with pytest.raises(SingularPattern):
            faults.check(2.0, 2.0)

    def test_negative_endpoint_cosine_rejected_with_fractional_exponent(self):
        # a float power of a negative base would otherwise go complex
        link = one_element(1.0, 1.0, 0.5, -0.2, 0.9, 0.8, 0.5)
        faults = PatternFaults()
        assert math.isnan(faults.pattern(link, 5.0, 1.0)[0])
        with pytest.raises(SingularPattern, match="endpoint-side"):
            faults.check(5.0, 1.0)

    def test_rejection_names_count_and_worst_value(self):
        ones = np.ones(4)
        cos_rx = np.array([0.9, -0.3, 0.0, 0.5])
        links = ElementLinks(ones, ones, ones, ones, cos_rx, ones, ones)
        faults = PatternFaults()
        faults.pattern(links, 5.0, 1.0)
        with pytest.raises(SingularPattern, match=r"2 element\(s\).*worst -0\.3"):
            faults.check(5.0, 1.0)
        cos_t = np.array([0.9, -0.5, 0.7, -0.25])
        links = ElementLinks(ones, ones, ones, ones, ones, cos_t, ones)
        faults = PatternFaults()
        with np.errstate(divide="ignore"):
            element_pathloss(links, 1.0, 2.0, 2.0, faults)
        with pytest.raises(SingularPattern, match=r"2 element\(s\).*worst -0\.5"):
            faults.check(2.0, 2.0)

    def test_shapes_and_positivity(self):
        b0 = beta0_reference(100.0, 1.0, CELL, CELL)
        for (mx, my), size in (((4, 6), 24), ((3, 3), 9)):
            p = fig_panel(mx, my)
            faults = PatternFaults()
            links = element_links(BS, USER, p, panel_link(BS, USER, p), range(my), range(mx))
            betas = element_pathloss(links, b0, 100.0, 1.0, faults)
            faults.check(100.0, 1.0)
            assert betas.shape == (size,)
            assert np.all(betas > 0)
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
            link = panel_link(bs, user, p)
            ff = farfield_pathloss(link, b0)
            faults = PatternFaults()
            links = element_links(bs, user, p, link, range(40), range(40))
            betas = element_pathloss(links, b0, 100.0, 1.0, faults)
            faults.check(100.0, 1.0)
            worst.append(max(abs(b / ff - 1.0) for b in betas))
        assert worst[0] < 0.01
        assert worst[2] < worst[1] < worst[0]


class TestPatternFaults:
    """Faults recorded tile by tile raise what a one-tile record of the
    whole panel raises."""

    # per element: cos_tx, cos_rx, cos_t; gt = 4000 takes 0.5 ** 1999 to 0
    CASES = {
        "clean": [(1.0, 0.9, 0.8)] * 8,
        "endpoint_in_last_tile": [(1.0, 1.0, 1.0)] * 5
        + [(-0.2, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)],
        "endpoint_beats_earlier_underflow": [(0.5, 1.0, 1.0)] * 3
        + [(1.0, 1.0, 1.0)] * 4
        + [(-0.4, 1.0, 1.0)],
        "underflow_across_tiles": [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0)] * 4,
        "non_positive_beats_underflow": [(0.5, 1.0, 1.0)] * 4
        + [(1.0, 1.0, -0.3), (1.0, 1.0, 1.0), (1.0, 1.0, -0.1), (1.0, 1.0, 1.0)],
        "nan_worst_from_a_clean_tile": [(math.nan, 1.0, 1.0)]
        + [(1.0, 1.0, 1.0)] * 6
        + [(-0.5, 1.0, 1.0)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("bounds", [(3, 5), (1, 7), (2, 6)])
    def test_tiles_raise_what_one_call_raises(self, case, bounds):
        cos_tx, cos_rx, cos_t = (np.array(v) for v in zip(*self.CASES[case]))
        ones = np.ones(len(cos_tx))
        links = ElementLinks(ones, ones, ones, cos_tx, cos_rx, cos_t, ones)
        gt, gr = 4000.0, 1.0
        one_tile, faults = PatternFaults(), PatternFaults()
        start = 0
        with np.errstate(all="ignore"):
            whole = element_pathloss(links, 1.0, gt, gr, one_tile)
            for stop in (*bounds, len(ones)):
                tile = ElementLinks(*(getattr(links, f.name)[start:stop] for f in fields(links)))
                loss = element_pathloss(tile, 1.0, gt, gr, faults)
                assert np.array_equal(loss, whole[start:stop], equal_nan=True)
                start = stop
        try:
            one_tile.check(gt, gr)
        except SingularPattern as exc:
            with pytest.raises(SingularPattern) as tiled:
                faults.check(gt, gr)
            assert type(tiled.value) is type(exc)
            assert str(tiled.value) == str(exc)
        else:
            faults.check(gt, gr)


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
