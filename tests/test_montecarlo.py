import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from panels import panel_channel
from riscap.channel import _CHUNK_ELEMENTS
from riscap.errors import InvalidScenario, ScenarioError
from riscap.montecarlo import (
    SnrEnsemble,
    TrialConfig,
    _block_envelope_sums,
    _block_plan,
    _block_rng,
    simulate_ec_sweep,
)
from riscap.moments import distributed_moments


def small_ensemble(rho=0.9, rho0=0.95, k=2.0, m=6):
    rng = np.random.default_rng(123)
    beta_inv = rng.uniform(1e-12, 1e-10, size=m)
    return SnrEnsemble(
        panels=(panel_channel(beta_inv=beta_inv, rho=rho, k1=k, k2=k),),
        beta0_inv=2e-10,
        rho0=rho0,
        k0=1.5,
        gamma_teff=5e10,
    )


def simulate_ec(ensemble, cfg, workers=1):
    """The library's estimate for one ensemble alone."""
    (estimate,) = simulate_ec_sweep([ensemble], cfg, workers=workers)
    return estimate


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
        assert [n for _, n in _block_plan(cfg)] == [333, 333, 333, 1]
        out = simulate_ec(ens, cfg)
        ref = oracles.simulate_ec(ens, cfg, keep_samples=True)
        assert ref.snr_samples.size == 1000
        assert out.mean_ec == pytest.approx(ref.mean_ec, rel=1e-12, abs=0)
        # the library merges block deviations, the oracle takes a second
        # pass over the samples; last-bit differences of the two kernels
        # remain
        assert out.std_error == pytest.approx(ref.std_error, rel=1e-10, abs=0)


class TestSharedDraws:
    def test_single_ensemble_sweep_matches_reference_reduction(self):
        ens = small_ensemble()
        cfg = TrialConfig(trials=3_000, seed=41, block_size=1024)
        out = simulate_ec(ens, cfg)
        ref = oracles.simulate_ec(ens, cfg)
        assert out.mean_ec == pytest.approx(ref.mean_ec, rel=1e-12, abs=0)
        assert out.std_error == pytest.approx(ref.std_error, rel=1e-10, abs=0)

    def test_each_estimate_matches_its_own_run(self):
        # rho, rho0, k0, path losses and gamma_teff all differ; the draw
        # signature (M, k1, k2) is shared
        base = small_ensemble()
        variants = [
            base,
            small_ensemble(rho=0.4, rho0=0.5),
            dataclasses.replace(base, k0=0.0, gamma_teff=3e9),
            dataclasses.replace(
                base,
                panels=(panel_channel(np.full(6, 1e-11), rho=0.9, k1=2.0, k2=2.0),),
                beta0_inv=0.0,
            ),
        ]
        cfg = TrialConfig(trials=2_500, seed=8, block_size=1000)
        for workers in (1, 3):
            batched = simulate_ec_sweep(variants, cfg, workers=workers)
            assert batched == [simulate_ec(e, cfg) for e in variants]

    def test_mixed_signatures_match_their_own_runs(self):
        # three draw signatures (k and m differ), interleaved, with rho
        # differing inside the shared-signature pairs
        mixed = [
            small_ensemble(),
            small_ensemble(k=3.0),
            small_ensemble(rho=0.4, m=7),
            small_ensemble(rho=0.5),
            small_ensemble(k=3.0, rho=0.7),
        ]
        assert len({e.draw_signature() for e in mixed}) == 3
        cfg = TrialConfig(trials=2_500, seed=8, block_size=1000)
        for workers in (1, 3):
            batched = simulate_ec_sweep(mixed, cfg, workers=workers)
            assert batched == [simulate_ec(e, cfg) for e in mixed]


    def test_shared_amplitude_array_equals_separate_copies(self):
        # ensembles that hold one amplitude array share its product with
        # each block's draws; equal-valued copies each form their own
        base = small_ensemble()
        shared = base.panels[0].amplitude

        def variants(amplitude):
            return [
                dataclasses.replace(
                    base,
                    panels=(dataclasses.replace(base.panels[0], amplitude=amplitude(), rho=rho),),
                    gamma_teff=gamma_teff,
                )
                for rho, gamma_teff in ((0.9, 5e10), (0.4, 5e10), (0.9, 3e9), (1.0, 1e12))
            ]

        one, copies = variants(lambda: shared), variants(shared.copy)
        assert len({id(e.panels[0].amplitude) for e in one}) == 1
        assert len({id(e.panels[0].amplitude) for e in copies}) == 4
        cfg = TrialConfig(trials=2_500, seed=8, block_size=1000)
        for workers in (1, 3):
            assert simulate_ec_sweep(one, cfg, workers) == simulate_ec_sweep(copies, cfg, workers)


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

    @staticmethod
    def fig2_nearly_deterministic():
        # fig2 at K = 1e16: the capacities spread ~1e-8 around ~9.5, so
        # sum(x^2) - n mean^2 cancels to 0
        from riscap.presets import preset
        from riscap.workbench import run_scenario

        scenario, _ = preset("fig2")
        panels = tuple(dataclasses.replace(p, k1=1e16, k2=1e16) for p in scenario.panels)
        scenario = dataclasses.replace(scenario, k0=1e16, panels=panels)
        return run_scenario(scenario).ensemble

    @pytest.mark.parametrize("block_size", [2048, 300])
    def test_spread_far_below_the_mean_survives(self, block_size):
        # the standard error must match the two-pass value over the very
        # same samples
        ens = self.fig2_nearly_deterministic()
        cfg = TrialConfig(trials=2048, seed=5, block_size=block_size)
        z = np.concatenate(
            [_block_envelope_sums([ens], _block_rng(5, i), n)[0] for i, n in _block_plan(cfg)]
        )
        ec = np.log2(1.0 + ens.gamma_teff * z * z)
        two_pass = float(np.std(ec, ddof=1)) / math.sqrt(cfg.trials)
        assert two_pass > 1e-10
        results = [simulate_ec(ens, cfg, workers=w) for w in (1, 2)]
        assert results[0] == results[1]
        # block means carry a rounding of ~1 ulp of 9.5, which the merge's
        # between-block term magnifies: 3.6e-9 relative at 300-trial blocks
        assert results[0].std_error == pytest.approx(two_pass, rel=1e-7, abs=0)

    def test_oracle_standard_error_survives_the_same_spread(self):
        # the oracle's own reduction and kernel give the library's value
        ens = self.fig2_nearly_deterministic()
        cfg = TrialConfig(trials=2048, seed=5)
        out = simulate_ec(ens, cfg)
        ref = oracles.simulate_ec(ens, cfg)
        assert ref.std_error > 1e-10
        assert out.std_error == pytest.approx(ref.std_error, rel=1e-7, abs=0)


class TestInputChecks:
    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"beta0_inv": -1e-12}, ValueError, "direct inverse loss"),
            ({"rho0": -0.1}, ValueError, "rho0 must"),
            ({"rho0": 1.5}, ValueError, "rho0 must"),
            ({"rho0": math.nan}, ValueError, "rho0 must"),
            ({"gamma_teff": 0.0}, ValueError, "gamma_teff must"),
            ({"gamma_teff": -5e10}, ValueError, "gamma_teff must"),
            ({"panels": (), "beta0_inv": 0.0}, InvalidScenario, "no reflecting elements"),
        ],
    )
    def test_snr_ensemble_rejects(self, changes, error, message):
        with pytest.raises(error, match=message):
            dataclasses.replace(small_ensemble(), **changes)

    def test_trial_config_rejects_no_trials(self):
        # None means "no Monte Carlo" to the run functions, not to the sampler
        with pytest.raises(ScenarioError, match="^trials: must be >= 1, got None$"):
            TrialConfig(trials=None, seed=1)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.5), ("trials", True), ("seed", 1.5), ("block_size", 2.5), ("block_size", True)],
    )
    def test_trial_config_rejects_non_integers(self, field, value):
        settings = {"trials": 10, "seed": 1, "block_size": 4, field: value}
        with pytest.raises(ScenarioError, match=f"^{field}: must be an integer, got {value!r}$"):
            TrialConfig(**settings)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_trial_config_rejects_blocks_below_one_trial(self, block_size):
        message = f"^block_size: must be >= 1, got {block_size}$"
        with pytest.raises(ScenarioError, match=message) as err:
            TrialConfig(trials=10, seed=1, block_size=block_size)
        assert err.value.fields == ("block_size",)

    def test_trial_config_takes_numpy_integers(self):
        cfg = TrialConfig(trials=np.int64(10), seed=np.uint64(1), block_size=np.int32(4))
        assert _block_plan(cfg) == [(0, 4), (1, 4), (2, 2)]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_sweep_rejects_fewer_than_one_worker(self, workers):
        cfg = TrialConfig(trials=64, seed=1)
        with pytest.raises(ScenarioError, match=f"^workers: must be >= 1, got {workers}$"):
            simulate_ec_sweep([small_ensemble()], cfg, workers=workers)

    def test_panel_without_amplitudes_is_named(self):
        # an analytic run keeps only a large panel's sums; Monte Carlo
        # cannot sample such a record
        base = small_ensemble()
        bare = dataclasses.replace(base.panels[0], amplitude=None)
        ensemble = dataclasses.replace(base, panels=(base.panels[0], bare))
        cfg = TrialConfig(trials=10, seed=1)
        with pytest.raises(ValueError, match="^ensemble 1, panel 1: carries no amplitudes"):
            simulate_ec_sweep([base, ensemble], cfg)


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
            panels.append(panel_channel(beta_inv=beta_inv, rho=rho, k1=float(k1), k2=float(k2)))
        rho0 = float(rng.uniform(0.3, 1.0))
        k0 = float(rng.uniform(0.0, 8.0))
        b0_inv = float(rng.uniform(1e-11, 1e-9))
        from riscap.channel import RicianParams, rician_mean_envelope

        omega0 = rician_mean_envelope(RicianParams(k0))
        analytic = distributed_moments(panels, omega0, rho0, b0_inv)
        ens = SnrEnsemble(
            panels=tuple(panels), beta0_inv=b0_inv, rho0=rho0, k0=k0, gamma_teff=1e10
        )
        est = oracles.simulate_envelope_moments(ens, TrialConfig(trials=300_000, seed=seed + 50))
        assert abs(est.mean - analytic.mean) < 3.0 * est.se_mean
        assert abs(est.second_moment - analytic.second_moment) < 3.0 * est.se_second_moment


    def test_pooled_oracle_equals_its_blocks_reduced_in_order(self):
        # the oracle's thread pool changes nothing: each block's draws, taken
        # one block at a time and reduced in block order
        ens = small_ensemble(m=9)
        cfg = TrialConfig(trials=20_000, seed=5, block_size=1000)
        blocks = oracles.block_partition(cfg)
        zs = [oracles.reference_block_z(ens, cfg.seed, *block) for block in blocks]
        z = np.concatenate(zs)
        n = cfg.trials
        est = oracles.simulate_envelope_moments(ens, cfg)
        assert est.mean == math.fsum(float(np.sum(b)) for b in zs) / n
        assert est.second_moment == math.fsum(float(np.sum(b * b)) for b in zs) / n
        d2 = z * z - est.second_moment
        assert est.se_second_moment == math.sqrt(math.fsum(d2 * d2) / (n - 1) / n)


class TestFigureScenarioMoments:
    def test_two_panel_split_matches_sampling(self):
        # the two-panel 2x288 layout: sampled H moments vs the analytic ones
        from riscap.presets import preset
        from riscap.workbench import run_scenario

        scenario, _ = preset("fig3")
        res = run_scenario(scenario)
        est = oracles.simulate_envelope_moments(res.ensemble, TrialConfig(trials=100_000, seed=88))
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


def two_panel_ensemble(
    rho=(0.8, 0.6), k=(1.0, 4.0, 0.5, 2.0), beta_scale=1.0, k0=0.7, ms=(5, 3)
):
    rng = np.random.default_rng(321)
    panels = tuple(
        panel_channel(
            beta_inv=beta_scale * rng.uniform(1e-12, 1e-10, size=m),
            rho=r,
            k1=k1,
            k2=k2,
        )
        for m, r, k1, k2 in ((ms[0], rho[0], k[0], k[1]), (ms[1], rho[1], k[2], k[3]))
    )
    return SnrEnsemble(panels=panels, beta0_inv=4e-10, rho0=0.9, k0=k0, gamma_teff=2e10)


class TestReferenceKernel:
    """The library's block kernel against tests/oracles.reference_block_z,
    block by block over the whole partition."""

    CASES = {
        "one_panel": [small_ensemble()],
        "two_panels": [two_panel_ensemble()],
        "shared_signature": [
            two_panel_ensemble(),
            two_panel_ensemble(rho=(0.3, 1.0), beta_scale=7.0, k0=0.0),
            dataclasses.replace(two_panel_ensemble(), beta0_inv=0.0, rho0=0.2),
        ],
        "k_infinite": [
            dataclasses.replace(
                small_ensemble(k=math.inf), k0=math.inf, gamma_teff=1e9
            ),
            dataclasses.replace(small_ensemble(k=math.inf, rho=0.5), k0=math.inf),
        ],
        "direct_only": [
            SnrEnsemble(panels=(), beta0_inv=3e-10, rho0=0.95, k0=2.5, gamma_teff=7e10),
            SnrEnsemble(panels=(), beta0_inv=1e-9, rho0=0.5, k0=0.0, gamma_teff=1e10),
        ],
    }

    # blocks of 3 trials span several sampler chunks, end on a partial one
    # and put chunk edges inside rows
    WIDE = (12_007, 20_011)
    WIDE_CASES = {
        "wider_than_chunk": [small_ensemble(m=_CHUNK_ELEMENTS + 123)],
        "wide_shared_signature": [
            two_panel_ensemble(ms=WIDE),
            two_panel_ensemble(rho=(0.3, 1.0), beta_scale=7.0, k0=0.0, ms=WIDE),
        ],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("trials, block_size", [(700, 256), (512, 128)])
    def test_blocks_match_reference_kernel(self, case, trials, block_size):
        self.assert_blocks_match(self.CASES[case], trials, block_size)

    @pytest.mark.parametrize("case", sorted(WIDE_CASES))
    def test_wide_blocks_match_reference_kernel(self, case):
        self.assert_blocks_match(self.WIDE_CASES[case], trials=7, block_size=3)

    @staticmethod
    def assert_blocks_match(ensembles, trials, block_size):
        cfg = TrialConfig(trials=trials, seed=2024, block_size=block_size)
        plan = _block_plan(cfg)
        assert plan == oracles.block_partition(cfg)
        for index, n in plan:
            zs = _block_envelope_sums(ensembles, _block_rng(cfg.seed, index), n)
            for ensemble, z in zip(ensembles, zs):
                ref = oracles.reference_block_z(ensemble, cfg.seed, index, n)
                np.testing.assert_allclose(z, ref, rtol=1e-12, atol=0)


def test_block_kernel_peaks_at_two_block_arrays():
    # |h|, then g: each fade's quadrature normals pass through a small
    # buffer, so a block call never holds three (n, M) arrays at once
    n, m = 2048, 576
    base = small_ensemble(m=m)
    group = [base, dataclasses.replace(base, rho0=0.5, gamma_teff=1e9)]
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _block_envelope_sums(group, _block_rng(5, 0), n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 2.1 * n * m * 8
