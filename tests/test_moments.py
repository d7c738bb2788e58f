import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import farfield_closed_form_moments, naive_envelope_moments, saturation_gamma_teff
from panels import panel_channel
from riscap.channel import PanelChannel, RicianParams, rician_mean_envelope
from riscap.errors import ScenarioError
from riscap.moments import distributed_moments, distributed_noise_variance
from riscap.pathloss import LinkBudget


def omega(k):
    return rician_mean_envelope(RicianParams(float(k)))


def random_panels(rng, n_panels, max_elements=12):
    """n_panels random panels, and the inverse losses of each."""
    panels, beta_invs = [], []
    for _ in range(n_panels):
        m = rng.integers(1, max_elements + 1)
        beta_invs.append(rng.uniform(1e-14, 1e-9, size=m))
        panels.append(
            panel_channel(
                beta_inv=beta_invs[-1],
                rho=rng.uniform(0.0, 1.0),
                k1=rng.uniform(0.0, 50.0),
                k2=rng.uniform(0.0, 50.0),
            )
        )
    return panels, beta_invs


def one_panel(beta_inv, k1, k2, rho):
    return [panel_channel(beta_inv=beta_inv, rho=rho, k1=k1, k2=k2)]


class TestCentralizedMoments:
    def test_no_panels_leaves_direct_link_only(self):
        omega0 = 0.93
        out = distributed_moments([], omega0, 0.8, 4.0e-10)
        assert out.mean == pytest.approx(math.sqrt(4.0e-10) * 0.8 * omega0, rel=1e-15)
        assert out.second_moment == pytest.approx(4.0e-10 * 0.64, rel=1e-15)

    def test_single_element_no_direct(self):
        out = distributed_moments(one_panel([2.5e-11], 4.0, 6.0, 1.0), 0.9, 0.0, 7.0e-10)
        assert out.mean == pytest.approx(math.sqrt(2.5e-11) * omega(4.0) * omega(6.0), rel=1e-14)
        assert out.second_moment == pytest.approx(2.5e-11, rel=1e-14)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(1, 64))
            beta_inv = rng.uniform(1e-14, 1e-9, size=m)
            k1, k2 = rng.uniform(0.0, 50.0, size=2)
            o0 = rng.uniform(0.8863, 0.9999)
            rho_c, rho0 = rng.uniform(0.0, 1.0, size=2)
            b0 = rng.uniform(1e-12, 1e-9)
            got = distributed_moments(one_panel(beta_inv, k1, k2, rho_c), o0, rho0, b0)
            mean, second = naive_envelope_moments(
                [(list(beta_inv), omega(k1), omega(k2), rho_c)], o0, rho0, b0
            )
            assert got.mean == pytest.approx(mean, rel=1e-12)
            assert got.second_moment == pytest.approx(second, rel=1e-12)

    def test_farfield_equivalence(self):
        # constant per-element loss reproduces the explicit M / M(M-1) form
        m, bff, k1, k2, o0 = 576, 3.7e-12, 5.0, 3.0, 0.96
        rho_c, rho0, b0 = 0.9, 0.95, 1e-10
        got = distributed_moments(one_panel(np.full(m, bff), k1, k2, rho_c), o0, rho0, b0)
        mean, second = farfield_closed_form_moments(
            m, bff, omega(k1), omega(k2), rho_c, o0, rho0, b0
        )
        assert got.mean == pytest.approx(mean, rel=1e-12)
        assert got.second_moment == pytest.approx(second, rel=1e-12)

    def test_moment_homogeneity(self):
        rng = np.random.default_rng(3)
        beta_inv = rng.uniform(1e-13, 1e-10, size=24)
        base = distributed_moments(one_panel(beta_inv, 3.0, 4.0, 0.85), 0.94, 0.9, 2e-11)
        c = 7.3
        scaled = distributed_moments(one_panel(c * beta_inv, 3.0, 4.0, 0.85), 0.94, 0.9, c * 2e-11)
        assert scaled.mean == pytest.approx(math.sqrt(c) * base.mean, rel=1e-12)
        assert scaled.second_moment == pytest.approx(c * base.second_moment, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_variance_never_negative(self, seed):
        rng = np.random.default_rng(seed)
        panels, _ = random_panels(rng, int(rng.integers(1, 4)))
        out = distributed_moments(panels, rng.uniform(0.8863, 1.0), rng.uniform(0, 1), rng.uniform(1e-13, 1e-10))
        assert out.variance >= 0.0
        assert out.second_moment >= out.mean * out.mean - 1e-12 * out.mean * out.mean


class TestDistributedMoments:
    def test_single_panel_reduces_to_centralized_bitwise(self):
        # a second panel whose estimate is fully outdated (rho = 0) adds
        # nothing, so the layout reduces bitwise to the one-panel sum Z
        rng = np.random.default_rng(11)
        beta_inv = rng.uniform(1e-13, 1e-10, size=30)
        live = panel_channel(beta_inv=beta_inv, rho=0.88, k1=4.0, k2=6.0)
        dead = panel_channel(beta_inv=beta_inv[:7], rho=0.0, k1=3.0, k2=3.0)
        a = distributed_moments([live], 0.95, 0.92, 3e-11)
        b = distributed_moments([live, dead], 0.95, 0.92, 3e-11)
        assert a == b

    def test_matches_naive_double_loop_multi_panel(self):
        rng = np.random.default_rng(1234)
        for _ in range(12):
            panels, beta_invs = random_panels(rng, int(rng.integers(2, 4)))
            o0 = rng.uniform(0.8863, 0.9999)
            rho0 = rng.uniform(0.0, 1.0)
            b0 = rng.uniform(1e-12, 1e-9)
            got = distributed_moments(panels, o0, rho0, b0)
            mean, second = naive_envelope_moments(
                [
                    (list(b), omega(p.k1), omega(p.k2), p.rho)
                    for p, b in zip(panels, beta_invs)
                ],
                o0,
                rho0,
                b0,
            )
            assert got.mean == pytest.approx(mean, rel=1e-12)
            assert got.second_moment == pytest.approx(second, rel=1e-12)

    def test_amplitude_less_records_equal_panel_channel_records(self):
        # the moments and the leakage read a panel's count and sums only
        rng = np.random.default_rng(77)
        for _ in range(12):
            panels, beta_invs = random_panels(rng, int(rng.integers(1, 4)))
            bare = [
                PanelChannel(b.size, float(np.sum(np.sqrt(b))), float(np.sum(b)), p.rho, p.k1, p.k2)
                for p, b in zip(panels, beta_invs)
            ]
            assert all(p.amplitude is None for p in bare)
            o0, rho0, b0 = rng.uniform(0.8863, 0.9999), rng.uniform(0.0, 1.0), 3e-11
            assert distributed_moments(bare, o0, rho0, b0) == distributed_moments(
                panels, o0, rho0, b0
            )
            assert distributed_noise_variance(
                1e-3, bare, rho0, o0, b0, 1e-15
            ) == distributed_noise_variance(1e-3, panels, rho0, o0, b0, 1e-15)

    def test_all_correlations_zero_kills_everything(self):
        panels = [panel_channel(beta_inv=np.array([1e-10, 2e-10]), rho=0.0, k1=3.0, k2=3.0)]
        out = distributed_moments(panels, 0.9, 0.0, 1e-10)
        assert out.mean == 0.0
        assert out.second_moment == 0.0

    def test_cross_panel_term_present(self):
        # two panels must beat the same panels evaluated separately, by
        # exactly the cross term 2 * s1 * s2
        p1 = panel_channel(beta_inv=np.array([4e-11]), rho=1.0, k1=3.0, k2=3.0)
        p2 = panel_channel(beta_inv=np.array([9e-11]), rho=1.0, k1=3.0, k2=3.0)
        both = distributed_moments([p1, p2], 0.9, 0.0, 1e-10)
        s1 = math.sqrt(4e-11) * omega(3.0) ** 2
        s2 = math.sqrt(9e-11) * omega(3.0) ** 2
        solo = (
            distributed_moments([p1], 0.9, 0.0, 1e-10).second_moment
            + distributed_moments([p2], 0.9, 0.0, 1e-10).second_moment
        )
        assert both.second_moment == pytest.approx(solo + 2 * s1 * s2, rel=1e-12)


class TestNoiseVariance:
    def test_perfect_csi_leaves_thermal_noise(self):
        panel = panel_channel(beta_inv=np.array([1e-10] * 5), rho=1.0, k1=math.inf, k2=6.0)
        variance = distributed_noise_variance(1e-3, [panel], 1.0, 0.95, 1e-10, 1e-15)
        assert variance == pytest.approx(1e-15, rel=1e-15)
        assert 1e-3 / variance == pytest.approx(1e12, rel=1e-12)

    def test_large_power_limit(self):
        beta_inv = np.array([1e-11, 2e-11])
        panel = panel_channel(beta_inv=beta_inv, rho=0.9, k1=math.inf, k2=6.0)
        limit = saturation_gamma_teff([panel], 0.95, 0.96, 1e-10)
        variance = distributed_noise_variance(1e9, [panel], 0.95, 0.96, 1e-10, 1e-15)
        assert 1e9 / variance == pytest.approx(limit, rel=1e-10)

    @pytest.mark.parametrize(
        "tx_power, noise_power, message",
        [(math.nan, 1e-15, "tx_power"), (1e-3, math.nan, "noise_power")],
    )
    def test_rejects_nan_powers(self, tx_power, noise_power, message):
        # the powers reach the variance from a LinkBudget, which rejects a
        # nan power when it is built, naming it
        fields = dict(gt=100.0, gr=1.0, eta_db=-30.0, xi=3.5)
        with pytest.raises(ScenarioError) as exc:
            LinkBudget(tx_power=tx_power, noise_power=noise_power, **fields)
        assert exc.value.fields == (message,)

    def test_limit_infinite_without_leakage(self):
        panel = panel_channel(beta_inv=np.array([1e-11]), rho=1.0, k1=math.inf, k2=6.0)
        assert saturation_gamma_teff([panel], 1.0, 0.96, 1e-10) == math.inf

    def test_against_effective_noise_sampling(self):
        # draw the outdated-CSI leakage noise directly: each element
        # contributes w_m * h_m * sqrt(beta_inv), w_m complex normal with
        # the envelope-error variance, h_m a unit-power Rician fade
        from oracles import mp_rician_mean, sample_rician
        from riscap.channel import RicianParams

        rng = np.random.default_rng(2024)
        beta_inv = rng.uniform(1e-12, 1e-10, size=8)
        k1, k2 = 2.0, 3.0
        rho_c, rho0 = 0.9, 0.95
        p, sigma0 = 1e-3, 1e-15
        k0 = 1.5
        b0_inv = 2.3e-10
        omega2sq_err = 1.0 - mp_rician_mean(k2) ** 2
        omega0sq_err = 1.0 - mp_rician_mean(k0) ** 2

        n = 200_000
        h = sample_rician(RicianParams(k1), rng, size=(n, beta_inv.size))
        w = (
            rng.standard_normal((n, beta_inv.size))
            + 1j * rng.standard_normal((n, beta_inv.size))
        ) * math.sqrt(omega2sq_err / 2.0)
        w0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(
            omega0sq_err / 2.0
        )
        n0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(sigma0 / 2.0)
        cascade = (w * h) @ np.sqrt(beta_inv)
        noise = (
            math.sqrt(p) * math.sqrt(1 - rho_c**2) * cascade
            + math.sqrt(p * b0_inv) * math.sqrt(1 - rho0**2) * w0
            + n0
        )
        power = np.abs(noise) ** 2
        se = power.std(ddof=1) / math.sqrt(n)

        panel = panel_channel(beta_inv=beta_inv, rho=rho_c, k1=k1, k2=k2)
        omega0 = math.sqrt(1 - omega0sq_err)
        variance = distributed_noise_variance(p, [panel], rho0, omega0, b0_inv, sigma0)
        assert abs(power.mean() - variance) < 3.0 * se
