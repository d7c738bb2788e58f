"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured numbers (run with -s to see them on success).

Monte Carlo cases use fixed seeds, so the statistical assertions are
deterministic once verified.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special

from oracles import ks_distance, saturation_gamma_teff, simulate_ec, simulate_envelope_moments
from riscap.capacity import gamma_fit
from riscap.geometry import Point3, RisPanel, near_field_boundary
from riscap.montecarlo import TrialConfig
from riscap.channel import RicianParams, rician_mean_envelope
from riscap.pathloss import LinkBudget
from riscap.presets import fig8_distributed_cases, preset
from riscap.scenario import PanelSetup, Scenario, dump_scenario
from riscap.workbench import apply_sweep_value, run_scenario


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def fig2_scenario(mx: int = 24, my: int = 24) -> Scenario:
    s, _ = preset("fig2")
    setup = s.panels[0]
    panel = dataclasses.replace(setup.panel, mx=mx, my=my)
    return dataclasses.replace(s, panels=(dataclasses.replace(setup, panel=panel),))


def test_criterion_01_analytic_matches_monte_carlo():
    t0 = time.time()
    worst = 0.0
    for mx, my in ((12, 12), (24, 24)):
        s = fig2_scenario(mx, my)
        for p_dbm in (-20.0, -10.0, 0.0, 10.0, 20.0):
            point = apply_sweep_value(s, "P", p_dbm)
            result = run_scenario(point, trials=100_000, seed=424242)
            rel = abs(result.report.ec_approx - result.mc.mean_ec) / result.mc.mean_ec
            worst = max(worst, rel)
            assert rel < 0.02, (mx * my, p_dbm, rel)
    elapsed = time.time() - t0
    ok = worst < 0.02 and elapsed < 120.0
    report(
        1,
        ok,
        f"EC approx vs MC (1e5 trials), M in {{144, 576}}, P in -20..20 dBm: "
        f"worst rel diff {worst:.4%} (< 2%), runtime {elapsed:.0f}s (< 120s)",
    )
    assert elapsed < 120.0


def test_criterion_02_boundary_values():
    lam = 0.06
    cell = lam / 8.0

    def boundary(mx, my):
        return near_field_boundary(
            RisPanel(center=Point3(0, 0, 0), mx=mx, my=my, dx=cell, dy=cell), lam
        )

    got = (boundary(40, 40), boundary(30, 40), boundary(20, 40))
    want = (6.0, 4.6875, 3.75)
    ok = all(g == pytest.approx(w, rel=1e-14) for g, w in zip(got, want))
    report(2, ok, f"near/far boundaries {got} match {want}")
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-14)


@pytest.mark.filterwarnings("ignore:far-field formula")
def test_criterion_03_near_far_crossover():
    s, sweep = preset("fig4")
    boundary = run_scenario(s).d_boundary
    assert boundary == pytest.approx(6.0, rel=1e-12)
    gaps = {}
    for d1 in sweep.values:
        point = apply_sweep_value(s, "d1", d1)
        near = run_scenario(dataclasses.replace(point, mode="near"))
        far = run_scenario(dataclasses.replace(point, mode="far"))
        gaps[d1] = abs(near.report.ec_approx - far.report.ec_approx) / near.report.ec_approx
    eps = 1e-9
    inside = {d: g for d, g in gaps.items() if d <= boundary / 2 + eps}
    outside = {d: g for d, g in gaps.items() if d >= boundary - eps}
    ok = all(g > 0.01 for g in inside.values()) and all(g < 0.01 for g in outside.values())
    report(
        3,
        ok,
        "formula gap " + ", ".join(f"d1={d:g}m:{g:.3%}" for d, g in sorted(gaps.items()))
        + f" (need >1% at d1<={boundary / 2:.0f}, <1% at d1>={boundary:.0f})",
    )
    for d, g in inside.items():
        assert g > 0.01, (d, g)
    for d, g in outside.items():
        assert g < 0.01, (d, g)


def test_criterion_04_panel_shape_effect():
    s, _ = preset("fig7")
    ec = {}
    for my in (24, 36, 48):
        ec[my] = run_scenario(apply_sweep_value(s, "My", my)).report.ec_approx
    gain_16x36 = 100.0 * (ec[24] - ec[36]) / ec[36]
    gain_12x48 = 100.0 * (ec[24] - ec[48]) / ec[48]
    primary = abs(gain_16x36 - 1.87) <= 0.8 and abs(gain_12x48 - 4.78) <= 0.8

    # far-field variant: panel mid-link, constant-loss model
    far_ec = []
    for my in (24, 36, 48):
        point = apply_sweep_value(s, "My", my)
        setup = point.panels[0]
        moved = dataclasses.replace(
            setup, panel=dataclasses.replace(setup.panel, center=Point3(0.0, 0.0, 9.5))
        )
        far_ec.append(
            run_scenario(
                dataclasses.replace(point, panels=(moved,), mode="far")
            ).report.ec_approx
        )
    spread = (max(far_ec) - min(far_ec)) / min(far_ec)
    ordering = ec[24] > ec[36] > ec[48]
    ok = primary or (ordering and spread < 0.001)
    report(
        4,
        ok,
        f"square-vs-oblong gains {gain_16x36:.2f}% / {gain_12x48:.2f}% "
        f"(targets 1.87 / 4.78 +-0.8pp, primary {'met' if primary else 'missed'}); "
        f"ordering {'holds' if ordering else 'broken'}, far-field spread {spread:.4%}",
    )
    if not primary:
        assert ordering
        assert spread < 0.001
    else:
        assert ordering  # the primary figures imply it; keep the check explicit


def test_criterion_05_single_panel_reduction():
    s = fig2_scenario()
    distributed = dataclasses.replace(s, kind="distributed")
    a = run_scenario(s)
    b = run_scenario(distributed)
    pairs = {
        "ec_approx": (a.report.ec_approx, b.report.ec_approx),
        "ec_upper": (a.report.ec_upper, b.report.ec_upper),
        "ec_lower": (a.report.ec_lower, b.report.ec_lower),
        "snr_mean": (a.report.snr_mean, b.report.snr_mean),
        "snr_variance": (a.report.snr_variance, b.report.snr_variance),
        "gamma_teff": (a.gamma_teff, b.gamma_teff),
        "envelope_mean": (a.moments.mean, b.moments.mean),
        "envelope_m2": (a.moments.second_moment, b.moments.second_moment),
    }
    worst = max(abs(x - y) / abs(x) for x, y in pairs.values())
    ok = worst <= 1e-12
    report(5, ok, f"one-panel distributed vs centralized: worst rel diff {worst:.2e} (<= 1e-12)")
    assert worst <= 1e-12


def test_criterion_06_power_saturation():
    s = fig2_scenario()
    ec40 = run_scenario(apply_sweep_value(s, "P", 40.0)).report.ec_approx
    ec60 = run_scenario(apply_sweep_value(s, "P", 60.0)).report.ec_approx
    delta = ec60 - ec40

    big = dataclasses.replace(s, budget=dataclasses.replace(s.budget, tx_power=1e6))
    res = run_scenario(big)
    omega0 = rician_mean_envelope(RicianParams(big.k0))
    limit = saturation_gamma_teff(
        res.ensemble.panels, res.ensemble.rho0, omega0, res.ensemble.beta0_inv
    )
    rel = abs(res.gamma_teff - limit) / limit
    ok = delta < 0.05 and rel < 1e-9
    report(
        6,
        ok,
        f"EC(60dBm)-EC(40dBm) = {delta:.3g} bit/s/Hz (< 0.05); "
        f"gamma_teff(1e6 W) vs closed-form limit rel diff {rel:.2e} (< 1e-9)",
    )
    assert delta < 0.05
    assert rel < 1e-9


def _fuzz_scenario(rng) -> Scenario:
    cell = 0.0075
    n_panels = int(rng.integers(1, 3))
    panels = []
    for _ in range(n_panels):
        mx, my = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = float(rng.uniform(-49.0, 49.0))
        z = float(rng.uniform(5.0, 9.5))
        panels.append(
            PanelSetup(
                panel=RisPanel(center=Point3(x, float(rng.uniform(-2, 2)), z), mx=mx, my=my, dx=cell, dy=cell),
                k1=float(rng.uniform(0.0, 10.0)),
                k2=float(rng.uniform(0.0, 10.0)),
                rho=float(rng.uniform(0.3, 1.0)),
            )
        )
    return Scenario(
        bs=Point3(-50.0, 0.0, 10.0),
        user=Point3(50.0, 0.0, 10.0),
        kind="centralized" if n_panels == 1 else "distributed",
        panels=tuple(panels),
        k0=float(rng.uniform(0.0, 10.0)),
        rho0=float(rng.uniform(0.3, 1.0)),
        budget=LinkBudget(
            gt=100.0,
            gr=1.0,
            tx_power=10 ** (float(rng.uniform(-20.0, 20.0)) - 30.0) * 10,
            noise_power=1e-15,
            eta_db=-30.0,
            xi=3.5,
        ),
        fc_hz=5.0e9,
        mode="near",
    )


def test_criterion_07_bound_ordering_on_fuzz_grid():
    rng = np.random.default_rng(20240817)
    eps = 1e-9  # absolute float-noise allowance for near-zero-SNR scenarios
    worst_lower_excess = -math.inf
    worst_upper_deficit = -math.inf
    for i in range(50):
        s = _fuzz_scenario(rng)
        result = run_scenario(s, trials=20_000, seed=1000 + i)
        mc = result.mc
        lower_excess = result.report.ec_lower - (mc.mean_ec + 0.05)
        upper_deficit = mc.mean_ec - (result.report.ec_upper + 3.0 * mc.std_error)
        worst_lower_excess = max(worst_lower_excess, lower_excess)
        worst_upper_deficit = max(worst_upper_deficit, upper_deficit)
        assert lower_excess <= eps, (i, lower_excess)
        assert upper_deficit <= eps, (i, upper_deficit)

    gap = {}
    for mx, my in ((8, 8), (24, 24)):
        r = run_scenario(fig2_scenario(mx, my))
        gap[mx * my] = r.report.ec_upper - r.report.ec_lower
    shrinks = gap[576] < gap[64]
    ok = worst_lower_excess <= eps and worst_upper_deficit <= eps and shrinks
    report(
        7,
        ok,
        f"50-scenario fuzz: max(lb - mc - 0.05) = {worst_lower_excess:.3g}, "
        f"max(mc - ub - 3se) = {worst_upper_deficit:.3g} (both <= 1e-9); "
        f"bound gap M=64: {gap[64]:.3f} -> M=576: {gap[576]:.3f} bit/s/Hz",
    )
    assert shrinks


def test_criterion_08_moment_oracle():
    rng = np.random.default_rng(777)
    worst_z = 0.0
    for i in range(20):
        s = _fuzz_scenario(rng)
        res = run_scenario(s)
        est = simulate_envelope_moments(
            res.ensemble, TrialConfig(trials=1_000_000, seed=9000 + i)
        )
        z_mean = abs(est.mean - res.moments.mean) / est.se_mean
        z_m2 = abs(est.second_moment - res.moments.second_moment) / est.se_second_moment
        worst_z = max(worst_z, z_mean, z_m2)
        assert z_mean < 3.0, (i, z_mean)
        assert z_m2 < 3.0, (i, z_m2)
    report(8, worst_z < 3.0, f"20 scenarios x 1e6 draws: worst moment z-score {worst_z:.2f} (< 3)")


def test_criterion_09_snr_distribution_ks():
    s = fig2_scenario()
    res = run_scenario(s)
    est = simulate_ec(
        res.ensemble, TrialConfig(trials=100_000, seed=31337), keep_samples=True
    )
    samples = np.sort(est.snr_samples)
    fit = gamma_fit(res.moments)
    cdf = 1.0 - special.gammaincc(
        fit.a, fit.b * np.sqrt(samples / res.gamma_teff)
    )
    ks = ks_distance(samples, cdf)
    ok = ks < 0.02
    report(9, ok, f"KS distance empirical vs Gamma-approx SNR CDF: {ks:.4f} (< 0.02)")
    assert ks < 0.02


def test_criterion_10_worker_determinism(tmp_path):
    s = fig2_scenario()
    path = tmp_path / "fig2.yaml"
    path.write_text(dump_scenario(s))
    outputs = []
    for workers in (1, 4, 8):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "riscap.cli",
                "mc",
                str(path),
                "--trials",
                "20000",
                "--seed",
                "11",
                "--workers",
                str(workers),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, "mc output bytes identical across 1, 4, 8 workers")
    assert ok


def test_trend_remark_monotonicity():
    s = fig2_scenario()
    ec_p = [
        run_scenario(apply_sweep_value(s, "P", p)).report.ec_approx
        for p in (-20.0, -10.0, 0.0, 10.0, 20.0)
    ]
    ec_rho = [
        run_scenario(apply_sweep_value(s, "rho", r)).report.ec_approx
        for r in (0.5, 0.7, 0.9, 1.0)
    ]
    ec_rho0 = [
        run_scenario(apply_sweep_value(s, "rho0", r)).report.ec_approx
        for r in (0.5, 0.8, 0.95)
    ]
    ec_k0 = [
        run_scenario(apply_sweep_value(s, "K0", k)).report.ec_approx
        for k in (-10.0, 0.0, 3.0, 10.0)
    ]
    rising = lambda xs: all(b > a for a, b in zip(xs, xs[1:]))
    ok = rising(ec_p) and rising(ec_rho) and rising(ec_rho0) and rising(ec_k0)

    ec_sat_mid = run_scenario(apply_sweep_value(s, "P", 60.0)).report.ec_approx
    ec_sat_high = run_scenario(apply_sweep_value(s, "P", 90.0)).report.ec_approx
    saturates = ec_sat_high - ec_sat_mid < 1e-3
    report(
        11,
        ok and saturates,
        "EC nondecreasing in P, rho, rho0, K0; EC(90dBm)-EC(60dBm) "
        f"= {ec_sat_high - ec_sat_mid:.2e} (< 1e-3)",
    )
    assert ok and saturates


def test_trend_distributed_layout_ordering():
    cases = fig8_distributed_cases()
    ecs = [run_scenario(c).report.ec_approx for c in cases]
    ok = ecs[2] >= ecs[1] >= ecs[0]
    report(
        12,
        ok,
        f"two-panel layouts: split {ecs[2]:.3f} >= near-user {ecs[1]:.3f} "
        f">= near-BS {ecs[0]:.3f} bit/s/Hz",
    )
    assert ok
