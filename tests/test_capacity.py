import math
import warnings

import numpy as np
import pytest

from oracles import (
    mp_capacity_direct,
    mp_capacity_meijerg,
    quad_compact,
    quad_logscale,
    sample_gamma_log_capacity,
)
from riscap import capacity, quadpack
from riscap.capacity import (
    CapacityReport,
    GammaFit,
    capacity_reports,
    deterministic_capacity,
    ec_lower_bound,
    ec_upper_bound,
    ergodic_capacity,
    gamma_fit,
    snr_mean,
    snr_variance,
)
from riscap.errors import DegenerateDistribution, NumericalFailure, QuadratureFailure
from riscap.moments import MomentSummary

# frozen from oracles.mp_capacity_direct(2, 1, 10) (30-digit quadrature);
# the G-function form gives the same digits
EC_2_1_10 = 4.735755676577181


def summary(mean, var):
    return MomentSummary(mean=mean, second_moment=var + mean * mean, variance=var)


class TestGammaFit:
    def test_exponential_case(self):
        fit = gamma_fit(summary(1.0, 1.0))
        assert (fit.a, fit.b) == (1.0, 1.0)

    def test_mean_two_var_one(self):
        fit = gamma_fit(summary(2.0, 1.0))
        assert (fit.a, fit.b) == (4.0, 2.0)

    def test_recovers_parameters_from_samples(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        z = rng.gamma(shape=3.0, scale=1.0 / 5.0, size=n)
        fit = gamma_fit(summary(z.mean(), z.var(ddof=1)))
        assert fit.a == pytest.approx(3.0, rel=5e-3)
        assert fit.b == pytest.approx(5.0, rel=5e-3)

    def test_degenerate_variance_raises(self):
        with pytest.raises(DegenerateDistribution):
            gamma_fit(summary(1.0, 1e-14))


class TestErgodicCapacity:
    def test_reference_point_against_quadrature_oracle(self):
        assert ergodic_capacity(GammaFit(2.0, 1.0), 10.0) == pytest.approx(
            EC_2_1_10, abs=1e-8
        )

    def test_reference_point_against_sampling_oracle(self):
        mean, se = sample_gamma_log_capacity(2.0, 1.0, 10.0, n=10_000_000, seed=31)
        assert abs(ergodic_capacity(GammaFit(2.0, 1.0), 10.0) - mean) < 3.0 * se

    def test_matches_meijer_g_closed_form(self):
        for a, b, gt in ((0.7, 0.3, 2.0), (2.0, 1.0, 10.0), (8.5, 3.1, 125.0), (40.0, 11.0, 9.0)):
            got = ergodic_capacity(GammaFit(a, b), gt)
            want = mp_capacity_meijerg(a, b, gt)
            assert got == pytest.approx(want, abs=1e-6)
            assert want == pytest.approx(mp_capacity_direct(a, b, gt), abs=1e-10)

    def test_vanishes_with_transmit_snr(self):
        fit = GammaFit(3.0, 2.0)
        assert ergodic_capacity(fit, 1e-15) < 1e-8

    def test_concentrated_envelope_limit(self):
        # shape -> inf at fixed mean approaches the deterministic channel
        zbar, gt = 2.0, 50.0
        a = 1e8
        got = ergodic_capacity(GammaFit(a, a / zbar), gt)
        assert got == pytest.approx(deterministic_capacity(zbar, gt), rel=1e-6)

    def test_monotone_in_gamma_teff(self):
        fit = GammaFit(4.0, 2.0)
        vals = [ergodic_capacity(fit, g) for g in (0.1, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_shape_at_fixed_scaled_rate(self):
        # larger shape with b*sqrt(gt) proportional keeps the mean envelope
        # growing with a, so capacity must not decrease
        c = 2.0
        vals = [ergodic_capacity(GammaFit(a, c * math.sqrt(a) / 10), 1.0 / 100) for a in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_extreme_transmit_snr_uses_logscale_retry(self):
        # values frozen from 30-digit mpmath quadrature of the defining
        # expectation; the compact substitution alone flags roundoff here
        assert ergodic_capacity(GammaFit(4.0, 2.0), 1e20) == pytest.approx(
            68.06295136, abs=1e-6
        )
        assert ergodic_capacity(GammaFit(0.4, 0.1), 1e18) == pytest.approx(
            59.0488374, abs=1e-6
        )

    def test_near_zero_capacity_regime(self):
        # EC ~ 1e-11: anything below the absolute tolerance counts as zero
        assert ergodic_capacity(GammaFit(300.0, 100.0), 1e-12) < 1e-8

    def test_returns_plain_float(self):
        fit = GammaFit(np.float64(2.0), np.float64(1.0))
        # the compact route, then the log-scale retry
        for gamma_teff in (np.float64(10.0), 1e20):
            assert type(ergodic_capacity(fit, gamma_teff)) is float

    def test_quadrature_failure_names_each_route_ier(self, monkeypatch):
        # three subintervals are too few for either route
        monkeypatch.setattr(capacity, "QUAD_LIMIT", 3)
        with pytest.raises(QuadratureFailure) as exc:
            ergodic_capacity(GammaFit(2.0, 1.0), 10.0)
        meaning = quadpack.IER_MEANING[1]
        assert str(exc.value) == (
            f"capacity integral did not converge: compact route QUADPACK ier=1 ({meaning}); "
            f"log-scale retry QUADPACK ier=1 ({meaning})"
        )

    @pytest.mark.parametrize("b", [1e-200, 1e-100])
    def test_underflowing_scaled_rate_raises_numerical_failure(self, b):
        # c = b / sqrt(gamma_teff) is 0 (b = 1e-200) or squares to 0
        # (b = 1e-100): the compact route fails and the log-scale retry
        # cannot run, so no math domain error or numpy warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure) as exc:
                ergodic_capacity(GammaFit(2.0, b), 1e300)
        assert type(exc.value) is NumericalFailure
        assert f"b={b:g}, gamma_teff=1e+300" in str(exc.value)

    def test_infinite_gamma_teff_rejected(self):
        with pytest.raises(ValueError):
            ergodic_capacity(GammaFit(2.0, 1.0), math.inf)

    def test_agrees_with_sampling_across_fuzz_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            a = float(rng.uniform(0.5, 50.0))
            b = float(rng.uniform(0.2, 10.0))
            gt = float(10 ** rng.uniform(-2, 4))
            mean, se = sample_gamma_log_capacity(a, b, gt, n=400_000, seed=int(rng.integers(1 << 31)))
            assert abs(ergodic_capacity(GammaFit(a, b), gt) - mean) < 3.0 * se + 1e-9


def port_and_quad(a, c):
    """Both survival-integral routes through the QUADPACK port and through
    scipy.integrate.quad, as (value, abserr, neval, failed) pairs."""
    port = [
        (value, abserr, neval, ier != 0)
        for value, abserr, neval, ier in (
            capacity._compact_quads([(a, c)])[0],
            capacity._survival_integral_logscale(a, c),
        )
    ]
    tol, limit = capacity.QUAD_ABS_TOL, capacity.QUAD_LIMIT
    return port, [quad_compact(a, c, tol, limit), quad_logscale(a, c, tol, 2 * limit)]


class TestQuadpackMatchesQuad:
    """The in-tree QAGP/QAGS port equals scipy.integrate.quad exactly:
    value, error estimate and evaluation count ==, same convergence."""

    @pytest.mark.parametrize("a", np.logspace(-2, 7, 10).tolist())
    def test_grid(self, a):
        for c in np.logspace(-4, 8, 13).tolist():
            port, quad = port_and_quad(a, c)
            assert port == quad, (a, c)

    # (a, c, compact fails, log-scale route, log-scale fails).  neval =
    # 42 * intervals - 21 * initial intervals, so neval / 21 is odd when a
    # route starts from an odd number of intervals: three on the compact
    # route with two breakpoints and two with one; on the log-scale route
    # two for QAGP (breakpoint ln c) and one for QAGS.
    PINNED = {
        # a == c puts the knee on gamma = 1: the breakpoints dedupe to one
        "knee_at_half": (3.0, 3.0, False, "qagp", False),
        "knee_clipped_low": (1e-6, 1e7, False, "qags", False),
        "knee_clipped_high": (1e7, 1e-6, True, "qagp", False),
        "compact_roundoff": (4.0, 2e-10, True, "qagp", False),
        # bisection near t = 1 rounds nodes onto t = 1, where the
        # integrand is 0
        "node_on_t_one": (92515726.36262478, 8.135600913877155e-08, True, "qagp", False),
        "logscale_qagp_fails": (709161.0703476934, 711709.3798144198, False, "qagp", True),
        "logscale_qags_fails": (9377765.269009966, 14994071.151549088, False, "qags", True),
        "logscale_qags": (0.012733067985327568, 1110.5788891786892, True, "qags", False),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned(self, case):
        a, c, compact_fails, logscale_route, logscale_fails = self.PINNED[case]
        port, quad = port_and_quad(a, c)
        assert port == quad
        assert (port[0][3], port[1][3]) == (compact_fails, logscale_fails)
        compact_odd, logscale_odd = (neval // 21 % 2 == 1 for _, _, neval, _ in port)
        assert compact_odd == (case != "knee_at_half")
        assert logscale_odd == (logscale_route == "qags")
        knee = a / (a + c)
        if case == "knee_clipped_low":
            assert knee < 1e-12
        if case == "knee_clipped_high":
            assert knee > 1.0 - 1e-12


class TestLockstep:
    """The compact route of many (a, c) points in one lockstep batch."""

    POINTS = [
        (a, c) for a in np.logspace(-2, 7, 10).tolist() for c in np.logspace(-4, 8, 13).tolist()
    ] + [(a, c) for a, c, *_ in TestQuadpackMatchesQuad.PINNED.values()]

    def test_batch_equals_quad(self):
        tol, limit = capacity.QUAD_ABS_TOL, capacity.QUAD_LIMIT
        batch = capacity._compact_quads(self.POINTS)
        for (a, c), (value, abserr, neval, ier) in zip(self.POINTS, batch):
            assert (value, abserr, neval, ier != 0) == quad_compact(a, c, tol, limit), (a, c)

    def test_one_integrand_call_per_round(self, monkeypatch):
        calls = []
        lockstep = quadpack.lockstep

        def counting(f, drivers):
            def counted(nodes, lanes):
                calls.append(len(nodes))
                return f(nodes, lanes)

            return lockstep(counted, drivers)

        monkeypatch.setattr(quadpack, "lockstep", counting)
        solo = []
        for a, c in self.POINTS:
            calls.clear()
            capacity._compact_quads([(a, c)])
            solo.append(len(calls))
        calls.clear()
        batch = capacity._compact_quads(self.POINTS)
        # the batch takes as many rounds as its longest member takes alone,
        # and evaluates no node that a member does not count
        assert len(calls) == max(solo) > min(solo)
        assert sum(calls) == sum(neval for _, _, neval, _ in batch)


class TestSnrMoments:
    def test_exponential_factorials(self):
        fit = GammaFit(1.0, 1.0)
        assert snr_mean(fit, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert snr_variance(fit, 1.0) == pytest.approx(20.0, rel=1e-15)

    def test_scaling_in_gamma_teff(self):
        fit = GammaFit(3.3, 1.7)
        assert snr_mean(fit, 8.0) == pytest.approx(2.0 * snr_mean(fit, 4.0), rel=1e-15)
        assert snr_variance(fit, 8.0) == pytest.approx(4.0 * snr_variance(fit, 4.0), rel=1e-15)

    def test_second_moment_preserved_by_fit(self):
        # a(a+1)/b^2 == mean^2 + var for the matched fit, so the SNR mean
        # can be computed from either the fit or the raw moments
        for mean, var in ((1e-4, 3e-10), (2.3, 0.31), (7.0, 0.5)):
            fit = gamma_fit(summary(mean, var))
            assert fit.a * (fit.a + 1.0) / fit.b**2 == pytest.approx(
                mean * mean + var, rel=1e-10
            )
            gt = 3.7e11
            assert snr_mean(fit, gt) == pytest.approx(gt * (mean * mean + var), rel=1e-10)

    def test_full_scenario_cross_formula_consistency(self):
        # fit-based E[SNR] equals gamma_teff times the raw envelope second
        # moment on the reference 576-element scenario
        from riscap.presets import preset
        from riscap.workbench import run_scenario

        scenario, _ = preset("fig2")
        res = run_scenario(scenario)
        fit = gamma_fit(res.moments)
        gt = res.gamma_teff
        assert snr_mean(fit, gt) == pytest.approx(
            gt * res.moments.second_moment, rel=1e-10
        )


class TestBounds:
    def test_zero_mean_snr(self):
        assert ec_upper_bound(0.0) == 0.0
        assert ec_lower_bound(0.0, 0.0) == 0.0

    def test_zero_variance_collapses(self):
        assert ec_lower_bound(7.0, 0.0) == pytest.approx(ec_upper_bound(7.0), rel=1e-15)

    def test_bracket_sampling_estimate(self):
        a, b, gt = 6.0, 2.0, 30.0
        fit = GammaFit(a, b)
        mean, se = sample_gamma_log_capacity(a, b, gt, n=2_000_000, seed=17)
        ub = ec_upper_bound(snr_mean(fit, gt))
        lb = ec_lower_bound(snr_mean(fit, gt), snr_variance(fit, gt))
        assert mean <= ub + 3 * se
        assert lb <= mean + 0.05


class TestCapacityReport:
    def test_degenerate_falls_back_to_deterministic(self):
        (report,) = capacity_reports([(summary(2.0, 1e-15), 10.0)])
        assert isinstance(report, CapacityReport)
        assert report.ec_approx == pytest.approx(math.log2(1.0 + 10.0 * 4.0), rel=1e-12)
        assert report.snr_variance == 0.0
        assert report.ec_upper == report.ec_lower

    def test_figure_out_of_float_range_raises(self):
        # gamma_teff * a(a+1) / b^2 overflows: E[SNR] is not representable
        with pytest.raises(NumericalFailure, match="snr_mean"):
            capacity_reports([(MomentSummary(1.0, 1.5, 0.5), 1e308)])

    def test_batch_equals_one_by_one(self, monkeypatch):
        retried = []
        logscale = capacity._survival_integral_logscale

        def spy(a, c):
            retried.append((a, c))
            return logscale(a, c)

        monkeypatch.setattr(capacity, "_survival_integral_logscale", spy)
        # Gamma(4, 2) and Gamma(0.4, 0.1) at 1e20 need the log-scale
        # retry; the second case is degenerate
        cases = [
            (summary(2.0, 1.0), 1e20),
            (summary(2.0, 1e-15), 10.0),
            (summary(1.5, 0.2), 25.0),
            (summary(4.0, 40.0), 1e20),
        ]
        reports = capacity_reports(cases)
        assert retried == [(4.0, 2.0 / 1e10), (0.4, 0.1 / 1e10)]
        assert reports == [capacity_reports([case])[0] for case in cases]

    def test_batch_raises_first_failure_in_input_order(self, monkeypatch):
        # three subintervals are too few for either quadrature route
        monkeypatch.setattr(capacity, "QUAD_LIMIT", 3)
        unconverged = (summary(2.0, 1.0), 10.0)
        invalid = (summary(2.0, 1.0), math.inf)
        with pytest.raises(QuadratureFailure):
            capacity_reports([unconverged, invalid])
        with pytest.raises(ValueError):
            capacity_reports([invalid, unconverged])

    def test_ordering_of_fields(self):
        (report,) = capacity_reports([(summary(1.5, 0.2), 25.0)])
        assert report.ec_lower <= report.ec_approx + 0.05
        assert report.ec_approx <= report.ec_upper + 1e-9
