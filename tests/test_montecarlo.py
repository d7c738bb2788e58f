import dataclasses
import math

import numpy as np
import pytest

from riscap.channel import PanelChannel
from riscap.errors import InvalidScenario
from riscap.montecarlo import (
    SnrEnsemble,
    TrialConfig,
    empirical_snr_cdf,
    simulate_ec,
    simulate_ec_sweep,
    simulate_envelope_moments,
)
from riscap.moments import distributed_moments


def small_ensemble(rho=0.9, rho0=0.95, k=2.0, phases=(0.0, 0.0, 0.0), m=6):
    rng = np.random.default_rng(123)
    beta_inv = rng.uniform(1e-12, 1e-10, size=m)
    return SnrEnsemble(
        panels=(
            PanelChannel(
                beta_inv=beta_inv,
                rho=rho,
                k1=k,
                k2=k,
                los_phase_h=phases[0],
                los_phase_g=phases[1],
            ),
        ),
        beta0_inv=2e-10,
        rho0=rho0,
        k0=1.5,
        gamma_teff=5e10,
        los_phase_direct=phases[2],
    )


class TestDeterminism:
    def test_worker_count_invariance(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=10_000, seed=77, block_size=512)
        results = [simulate_ec(ens, cfg, workers=w) for w in (1, 4, 8)]
        assert results[0].mean_ec == results[1].mean_ec == results[2].mean_ec
        assert results[0].std_error == results[1].std_error == results[2].std_error

    def test_seed_changes_output(self):
        ens = small_ensemble()
        a = simulate_ec(ens, TrialConfig(trials=5_000, seed=1))
        b = simulate_ec(ens, TrialConfig(trials=5_000, seed=2))
        assert a.mean_ec != b.mean_ec

    def test_partial_last_block(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=1000, seed=5, block_size=333)
        out = simulate_ec(ens, cfg, keep_samples=True)
        assert out.snr_samples.size == 1000


class TestSharedDraws:
    def test_single_ensemble_sweep_is_simulate_ec(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=3_000, seed=41, block_size=1024)
        assert simulate_ec_sweep([ens], cfg)[0] == simulate_ec(ens, cfg)

    def test_each_estimate_matches_its_own_run(self):
        # rho, rho0, k0, path losses and gamma_teff all differ; the draw
        # signature (M, k1, k2, phases) is shared
        base = small_ensemble()
        variants = [
            base,
            small_ensemble(rho=0.4, rho0=0.5),
            dataclasses.replace(base, k0=0.0, gamma_teff=3e9),
            dataclasses.replace(
                base,
                panels=(dataclasses.replace(base.panels[0], beta_inv=np.full(6, 1e-11)),),
                beta0_inv=0.0,
            ),
        ]
        cfg = TrialConfig(trials=2_500, seed=8, block_size=1000)
        for workers in (1, 3):
            batched = simulate_ec_sweep(variants, cfg, workers=workers)
            assert batched == [simulate_ec(e, cfg) for e in variants]

    def test_mixed_signatures_rejected(self):
        cfg = TrialConfig(trials=100, seed=1)
        with pytest.raises(ValueError, match="draw signature"):
            simulate_ec_sweep([small_ensemble(), small_ensemble(k=3.0)], cfg)
        with pytest.raises(ValueError, match="draw signature"):
            simulate_ec_sweep([small_ensemble(), small_ensemble(m=7)], cfg)


class TestDeterministicChannelLimit:
    def test_direct_only_infinite_k(self):
        ens = SnrEnsemble(
            panels=(),
            beta0_inv=3e-10,
            rho0=0.95,
            k0=math.inf,
            gamma_teff=7e10,
        )
        out = simulate_ec(ens, TrialConfig(trials=500, seed=3))
        expected = math.log2(1.0 + 7e10 * 0.95**2 * 3e-10)
        assert out.mean_ec == pytest.approx(expected, rel=1e-15)
        # identically-constant samples; only summation roundoff remains
        assert out.std_error < 1e-8

    def test_empty_scenario_rejected(self):
        with pytest.raises(InvalidScenario):
            SnrEnsemble(panels=(), beta0_inv=0.0, rho0=0.9, k0=1.0, gamma_teff=1e10)


class TestPhaseInvariance:
    def test_los_phases_do_not_shift_capacity(self):
        # envelopes ignore phases by construction; verify statistically
        # with independent seeds at the 1% significance level
        base = simulate_ec(small_ensemble(), TrialConfig(trials=60_000, seed=101))
        rotated = simulate_ec(
            small_ensemble(phases=(1.1, -2.3, 0.7)), TrialConfig(trials=60_000, seed=202)
        )
        z = abs(base.mean_ec - rotated.mean_ec) / math.hypot(
            base.std_error, rotated.std_error
        )
        assert z < 2.576


class TestMomentAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_moments_match_analytic(self, seed):
        rng = np.random.default_rng(seed)
        n_panels = int(rng.integers(1, 3))
        panels = []
        for _ in range(n_panels):
            m = int(rng.integers(1, 8))
            beta_inv = rng.uniform(1e-12, 1e-10, size=m)
            rho = float(rng.uniform(0.3, 1.0))
            k1, k2 = rng.uniform(0.0, 8.0, size=2)
            panels.append(PanelChannel(beta_inv=beta_inv, rho=rho, k1=float(k1), k2=float(k2)))
        rho0 = float(rng.uniform(0.3, 1.0))
        k0 = float(rng.uniform(0.0, 8.0))
        b0_inv = float(rng.uniform(1e-11, 1e-9))
        from riscap.channel import RicianParams, rician_mean_envelope

        omega0 = rician_mean_envelope(RicianParams(k0))
        analytic = distributed_moments(panels, omega0, rho0, b0_inv)
        ens = SnrEnsemble(
            panels=tuple(panels), beta0_inv=b0_inv, rho0=rho0, k0=k0, gamma_teff=1e10
        )
        est = simulate_envelope_moments(ens, TrialConfig(trials=300_000, seed=seed + 50))
        assert abs(est.mean - analytic.mean) < 3.0 * est.se_mean
        assert abs(est.second_moment - analytic.second_moment) < 3.0 * est.se_second_moment


class TestFigureScenarioMoments:
    def test_two_panel_split_matches_sampling(self):
        # the two-panel 2x288 layout: sampled H moments vs the analytic ones
        from riscap.presets import preset
        from riscap.workbench import resolve

        scenario, _ = preset("fig3")
        res = resolve(scenario)
        est = simulate_envelope_moments(res.ensemble, TrialConfig(trials=100_000, seed=88))
        assert abs(est.mean - res.moments.mean) < 3.0 * est.se_mean
        assert abs(est.second_moment - res.moments.second_moment) < 3.0 * est.se_second_moment


class TestMonotonicity:
    def test_capacity_monotone_in_correlations_and_power(self):
        # paired seeds suppress Monte Carlo noise between sweep points
        cfg = TrialConfig(trials=30_000, seed=9)
        ec_by_rho = [
            simulate_ec(small_ensemble(rho=r), cfg).mean_ec for r in (0.5, 0.7, 0.9, 1.0)
        ]
        assert all(b > a for a, b in zip(ec_by_rho, ec_by_rho[1:]))
        ec_by_rho0 = [
            simulate_ec(small_ensemble(rho0=r), cfg).mean_ec for r in (0.5, 0.8, 0.95)
        ]
        assert all(b > a for a, b in zip(ec_by_rho0, ec_by_rho0[1:]))

        base = small_ensemble()
        ec_by_power = []
        for scale in (0.5, 1.0, 2.0):
            ens = SnrEnsemble(
                panels=base.panels,
                beta0_inv=base.beta0_inv,
                rho0=base.rho0,
                k0=base.k0,
                gamma_teff=base.gamma_teff * scale,
            )
            ec_by_power.append(simulate_ec(ens, cfg).mean_ec)
        assert all(b > a for a, b in zip(ec_by_power, ec_by_power[1:]))


class TestEmpiricalCdf:
    def test_endpoint_probabilities(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=4_000, seed=21)
        est = simulate_ec(ens, cfg, keep_samples=True)
        top = float(est.snr_samples.max())
        probs = empirical_snr_cdf(ens, cfg, [0.0, top * 1.01])
        assert probs[0] == 0.0
        assert probs[1] == 1.0

    def test_matches_sample_fraction(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=4_000, seed=22)
        est = simulate_ec(ens, cfg, keep_samples=True)
        median = float(np.median(est.snr_samples))
        (p,) = empirical_snr_cdf(ens, cfg, [median])
        assert p == pytest.approx(0.5, abs=0.02)
