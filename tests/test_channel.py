import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_j0, mp_laguerre_half, mp_rician_mean, sample_rician
from riscap.channel import (
    _CHUNK_ELEMENTS,
    PanelChannel,
    RicianParams,
    laguerre_half,
    outdated_correlation,
    rician_envelope_from_normals,
    rician_mean_envelope,
    sample_rician_envelope,
)
from riscap.errors import NegativeCorrelation
from riscap.units import db_to_linear

# frozen from the quadrature oracle in oracles.mp_rician_mean (30 digits)
OMEGA_5 = 0.95993011075201893576


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestLaguerreHalf:
    def test_at_zero(self):
        assert laguerre_half(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_at_minus_one_against_hypergeometric(self):
        assert laguerre_half(-1.0) == pytest.approx(mp_laguerre_half(-1.0), rel=1e-13)

    def test_large_argument_asymptote(self):
        # L_{1/2}(-K)/sqrt(K) -> 2/sqrt(pi)
        k = 1e4
        assert laguerre_half(-k) / math.sqrt(k) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-4
        )

    def test_rejects_positive_argument(self):
        with pytest.raises(ValueError):
            laguerre_half(0.5)

    @given(st.floats(min_value=-200.0, max_value=0.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_hypergeometric_series(self, x):
        assert laguerre_half(x) == pytest.approx(mp_laguerre_half(x), rel=1e-11)


class TestRicianMeanEnvelope:
    def test_rayleigh_value(self):
        assert rician_mean_envelope(RicianParams(0.0)) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-15
        )

    def test_strong_los_limit(self):
        assert rician_mean_envelope(RicianParams(1e8)) == pytest.approx(1.0, abs=1e-7)
        assert rician_mean_envelope(RicianParams(math.inf)) == 1.0

    def test_k5_against_density_quadrature(self):
        assert rician_mean_envelope(RicianParams(5.0)) == pytest.approx(OMEGA_5, abs=1e-8)
        # the frozen constant itself comes from the independent oracle
        assert mp_rician_mean(5.0) == pytest.approx(OMEGA_5, abs=1e-12)

    def test_no_overflow_far_beyond_naive_underflow_point(self):
        # the unscaled Bessel product would underflow near K ~ 1400
        for k in (700.0, 1500.0, 1e6, 1e12):
            omega = rician_mean_envelope(RicianParams(k))
            assert 0.99 < omega <= 1.0

    @given(st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, k):
        omega = rician_mean_envelope(RicianParams(k))
        assert math.sqrt(math.pi) / 2.0 - 1e-12 <= omega < 1.0

    def test_strictly_increasing(self):
        ks = [0.0, 0.3, 1.0, 2.0, 5.0, 10.0, 50.0, 300.0]
        omegas = [rician_mean_envelope(RicianParams(k)) for k in ks]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))


    @pytest.mark.parametrize("k_db", [-math.inf, math.inf, -30.0, -3.0, 0.0, 7.5, 40.0])
    def test_cached_equals_uncached(self, k_db):
        # one evaluation per K-factor: the cached value is the computed one
        params = RicianParams(db_to_linear(k_db))
        uncached = rician_mean_envelope.__wrapped__(params)
        for _ in range(2):  # the first call may fill the cache, the second reads it
            assert rician_mean_envelope(params) == uncached
            assert rician_mean_envelope(RicianParams(params.k)) == uncached


class TestOutdatedCorrelation:
    def test_zero_delay(self):
        assert outdated_correlation(5e9, 30.0, 0.0) == 1.0

    def test_reference_point(self):
        # fd = 5e9 * 1 / 3e8 Hz, ts = 1 ms
        arg = 2.0 * math.pi * (5e9 * 1.0 / 3e8) * 1e-3
        assert outdated_correlation(5e9, 1.0, 1e-3) == pytest.approx(mp_j0(arg), rel=1e-12)

    def test_near_first_root_is_small(self):
        # choose v*ts so the argument sits at the first Bessel zero
        root = 2.4048255576957727686
        ts = root / (2.0 * math.pi * (5e9 / 3e8))
        rho = outdated_correlation(5e9, 1.0, ts * (1.0 - 1e-9))
        assert 0.0 <= rho < 1e-6

    def test_past_first_root_rejected_or_clamped(self):
        # v*ts = 0.03 m puts the argument at pi, where J0 < 0
        with pytest.raises(NegativeCorrelation):
            outdated_correlation(5e9, 30.0, 1e-3)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            outdated_correlation(5e9, -1.0, 1e-3)

    @given(st.floats(0.0, 1e-2), st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_magnitude_bounded(self, ts, v):
        try:
            rho = outdated_correlation(5e9, v, ts)
        except NegativeCorrelation:
            return
        assert 0.0 <= rho <= 1.0


class TestSampler:
    def test_deterministic_when_k_infinite(self):
        rng = np.random.default_rng(0)
        s = sample_rician(RicianParams(math.inf), rng, los_phase=0.7, size=8)
        assert np.allclose(np.abs(s), 1.0)
        assert np.allclose(np.angle(s), 0.7)

    def test_rayleigh_case_is_standard_complex_gaussian(self):
        rng = np.random.default_rng(1)
        s = sample_rician(RicianParams(0.0), rng, size=200_000)
        assert abs(s.mean()) < 5e-3
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=5e-3)

    def test_envelope_mean_matches_analytic_at_k3(self):
        n = 1_000_000
        rng = np.random.default_rng(7)
        env = sample_rician_envelope(RicianParams(3.0), rng, size=n)
        se = env.std(ddof=1) / math.sqrt(n)
        expected = rician_mean_envelope(RicianParams(3.0))
        assert abs(env.mean() - expected) < 3.0 * se

    @pytest.mark.parametrize("k", [0.0, 1.0, 5.0, 20.0])
    def test_unit_power_normalization(self, k):
        n = 1_000_000
        rng = np.random.default_rng(int(k) + 11)
        env = sample_rician_envelope(RicianParams(k), rng, size=n)
        power = env * env
        se = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - 1.0) < 3.0 * se

    def test_envelope_and_complex_sampler_agree_in_law(self):
        # identical substream, identical construction order
        e1 = sample_rician_envelope(RicianParams(2.0), np.random.default_rng(5), size=4096)
        e2 = np.abs(sample_rician(RicianParams(2.0), np.random.default_rng(5), size=4096))
        assert np.allclose(e1, e2)

    def test_chunked_draws_continue_the_stream(self):
        # the sampler's quadrature buffer relies on this: standard_normal
        # into uneven pieces reads the Philox stream as one full draw does
        sizes = (1, 7, _CHUNK_ELEMENTS + 5)
        whole = philox(3).standard_normal(sum(sizes))
        rng = philox(3)
        pieces = [rng.standard_normal(out=np.empty(s)) for s in sizes]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("k", [0.0, 2.0, math.inf])
    @pytest.mark.parametrize("shape", [(5, 3), (2048, 40), (3, _CHUNK_ELEMENTS + 11)])
    def test_equals_two_whole_draws(self, k, shape):
        rng = philox(11)
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        expected = rician_envelope_from_normals(RicianParams(k), re, im)
        after = philox(11)
        env = sample_rician_envelope(RicianParams(k), after, size=shape)
        assert env.shape == shape
        assert np.array_equal(env, expected)
        # and leaves the generator where the two whole draws leave it
        assert after.standard_normal() == rng.standard_normal()

    def test_k_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            RicianParams(-0.5)
        with pytest.raises(ValueError):
            RicianParams(math.nan)


class TestPanelChannel:
    @pytest.mark.parametrize(
        "amplitude, power_sum, rho, message",
        [
            ([], 0.0, 0.5, "non-empty 1-D array"),
            ([[1e-5, 2e-5]], 5e-10, 0.5, "non-empty 1-D array"),
            ([1e-5, -1e-6], 1e-10, 0.5, "finite and >= 0"),
            ([1e-5, math.inf], math.inf, 0.5, "finite and >= 0"),
            ([math.nan, 1e-5], 1e-10, 0.5, "finite and >= 0"),
            ([1e-5], -1e-10, 0.5, "power_sum must"),
            ([1e-5], math.nan, 0.5, "power_sum must"),
            ([1e-5], 1e-10, -0.1, "rho must"),
            ([1e-5], 1e-10, 1.5, "rho must"),
            ([1e-5], 1e-10, math.nan, "rho must"),
        ],
    )
    def test_rejects(self, amplitude, power_sum, rho, message):
        amplitude = np.array(amplitude, dtype=float)
        with pytest.raises(ValueError, match=message):
            PanelChannel(
                amplitude.size, 1e-5, power_sum, rho, k1=2.0, k2=2.0, amplitude=amplitude
            )

    @pytest.mark.parametrize(
        "count, root_sum, amplitude, message",
        [
            (0, 0.0, None, "count must"),
            (2.5, 1e-5, None, "count must"),
            (True, 1e-5, None, "count must"),
            (3, 1e-5, [1e-5, 2e-5], "2 entries, count is 3"),
            (1, -1e-5, None, "root_sum must"),
            (1, math.nan, None, "root_sum must"),
        ],
    )
    def test_rejects_counts_and_root_sums(self, count, root_sum, amplitude, message):
        with pytest.raises(ValueError, match=message):
            PanelChannel(count, root_sum, 1e-10, 0.5, k1=2.0, k2=2.0, amplitude=amplitude)

    def test_takes_an_overflowed_power_sum(self):
        # the caller reports the overflow against its inputs
        panel = PanelChannel(
            2, 2e154, math.inf, 0.5, k1=2.0, k2=2.0, amplitude=np.array([1e154, 1e154])
        )
        assert panel.power_sum == math.inf

    def test_takes_an_overflowed_root_sum_without_amplitudes(self):
        panel = PanelChannel(10**7, math.inf, math.inf, 0.5, k1=2.0, k2=2.0)
        assert panel.root_sum == math.inf and panel.amplitude is None
