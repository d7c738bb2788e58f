"""Scenario execution: near/far resolution, analytic pipeline, Monte Carlo
runs, parameter sweeps, and CSV emission.

Near/far decision in "auto" mode: the far-field constant-loss model is
used only when, for every panel, both endpoint distances (BS-to-center
and user-to-center) strictly exceed that panel's boundary; a tie keeps
the general per-element model, which is valid everywhere.
"""

from __future__ import annotations

import dataclasses
import io
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import capacity as cap
from .channel import RicianParams, rician_mean_envelope
from .errors import ScenarioError
from .geometry import (
    ELEVATION_CONVENTION_NOTE,
    Point3,
    element_links,
    near_field_boundary,
    panel_link,
)
from .moments import (
    EffectiveSnr,
    MomentSummary,
    PanelStats,
    distributed_moments,
    distributed_noise_variance,
)
from .montecarlo import (
    McEstimate,
    PanelChannel,
    SnrEnsemble,
    TrialConfig,
    simulate_ec,
    simulate_ec_sweep,
)
from .pathloss import beta0_reference, direct_pathloss, element_pathloss, farfield_pathloss
from .scenario import Scenario
from .units import dbm_to_watts, db_to_linear, wavelength

SWEEP_VARIABLES = ("P", "rho", "rho0", "My", "d1", "cell_size", "K0")
SWEEP_UNITS = {
    "P": "dBm",
    "rho": "1",
    "rho0": "1",
    "My": "elements",
    "d1": "m",
    "cell_size": "m",
    "K0": "dB",
}
CSV_COLUMNS = (
    "sweep_value",
    "ec_approx",
    "ec_ub",
    "ec_lb",
    "ec_mc",
    "mc_stderr",
    "gamma_teff",
    "mode",
    "d_boundary_m",
)
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 7_543_137


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable, its values, and what to compute per point."""

    variable: str
    values: tuple[float, ...]
    outputs: tuple[str, ...] = ("approx", "ub", "lb", "mc")
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ScenarioError(
                f"sweep.variable: {self.variable!r} is not one of {SWEEP_VARIABLES}"
            )
        if not self.values:
            raise ScenarioError("sweep.values: must be non-empty")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        bad = [v for v in self.values if not math.isfinite(v)]
        if bad:
            raise ScenarioError(f"sweep.values: must be finite, got {bad[0]}")
        unknown = set(self.outputs) - {"approx", "ub", "lb", "mc"}
        if unknown:
            raise ScenarioError(f"sweep.outputs: unknown entries {sorted(unknown)}")
        if self.trials < 1:
            raise ScenarioError(f"sweep.trials: must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ScenarioError(f"sweep.seed: must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ResolvedScenario:
    """Scenario after geometry and channel statistics are evaluated."""

    panel_stats: tuple[PanelStats, ...]
    ensemble: SnrEnsemble
    moments: MomentSummary
    effective: EffectiveSnr
    mode_used: str
    d_boundary: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class RunResult:
    """Analytic report plus optional Monte Carlo estimate for one run."""

    report: cap.CapacityReport
    mc: Optional[McEstimate]
    gamma_teff: float
    mode_used: str
    d_boundary: float
    moments: MomentSummary
    notes: tuple[str, ...]


def resolve(scenario: Scenario) -> ResolvedScenario:
    """Wire geometry -> path loss -> envelope statistics for one scenario."""
    lam = wavelength(scenario.fc_hz)
    beta0_inv = 1.0 / direct_pathloss(
        scenario.bs.distance_to(scenario.user), scenario.budget.eta_db, scenario.budget.xi
    )

    boundaries = []
    links = []
    for setup in scenario.panels:
        boundaries.append(near_field_boundary(setup.panel, lam))
        links.append(panel_link(scenario.bs, scenario.user, setup.panel))

    mode = scenario.mode
    if mode == "auto":
        all_far = all(
            min(link.d1, link.d2) > boundary
            for link, boundary in zip(links, boundaries)
        )
        mode = "far" if all_far else "near"
    notes = [ELEVATION_CONVENTION_NOTE]
    if mode == "far":
        inside = [
            i
            for i, (link, boundary) in enumerate(zip(links, boundaries))
            if min(link.d1, link.d2) <= boundary
        ]
        if inside:
            message = (
                f"far-field formula applied to panel(s) {inside} inside the "
                "near/far boundary; results are approximate there"
            )
            warnings.warn(message)
            notes.append(message)

    panel_stats = []
    mc_panels = []
    for setup, link, boundary in zip(scenario.panels, links, boundaries):
        gt, gr = scenario.budget.gt, scenario.budget.gr
        b0_ref = beta0_reference(gt, gr, setup.panel.dx, setup.panel.dy)
        if mode == "near":
            beta_inv = 1.0 / element_pathloss(
                element_links(scenario.bs, scenario.user, setup.panel), b0_ref, gt, gr
            )
        else:
            beta_inv = np.full(
                setup.panel.element_count, 1.0 / farfield_pathloss(link, b0_ref)
            )
        rho = setup.aging_rho()
        omega1 = rician_mean_envelope(RicianParams(setup.k1))
        omega2 = rician_mean_envelope(RicianParams(setup.k2))
        panel_stats.append(
            PanelStats(beta_inv=beta_inv, omega1=omega1, omega2=omega2, rho=rho)
        )
        mc_panels.append(
            PanelChannel(beta_inv=beta_inv, rho=rho, k1=setup.k1, k2=setup.k2)
        )

    rho0 = scenario.aging_rho0()
    omega0 = rician_mean_envelope(RicianParams(scenario.k0))
    moments = distributed_moments(panel_stats, omega0, rho0, beta0_inv)
    effective = distributed_noise_variance(
        scenario.budget.tx_power,
        panel_stats,
        rho0,
        omega0,
        beta0_inv,
        scenario.budget.noise_power,
    )
    ensemble = SnrEnsemble(
        panels=tuple(mc_panels),
        beta0_inv=beta0_inv,
        rho0=rho0,
        k0=scenario.k0,
        gamma_teff=effective.gamma_teff,
    )
    return ResolvedScenario(
        panel_stats=tuple(panel_stats),
        ensemble=ensemble,
        moments=moments,
        effective=effective,
        mode_used=mode,
        d_boundary=max(boundaries),
        notes=tuple(notes),
    )


def run_scenario(
    scenario: Scenario,
    trials: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> RunResult:
    """Analytic capacity report, plus a Monte Carlo estimate when trials
    are requested."""
    resolved = resolve(scenario)
    report = cap.capacity_report(resolved.moments, resolved.effective.gamma_teff)
    mc = None
    if trials:
        mc = simulate_ec(
            resolved.ensemble, TrialConfig(trials=trials, seed=seed), workers=workers
        )
    return RunResult(
        report=report,
        mc=mc,
        gamma_teff=resolved.effective.gamma_teff,
        mode_used=resolved.mode_used,
        d_boundary=resolved.d_boundary,
        moments=resolved.moments,
        notes=resolved.notes,
    )


def apply_sweep_value(scenario: Scenario, variable: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept field replaced.

    Units: P in dBm, K0 in dB, d1 and cell_size in meters; rho/rho0 are
    plain correlations; My is an element count (with
    deployment.fixed_total_elements set, mx is re-derived as total/my).
    """
    if variable == "P":
        return dataclasses.replace(
            scenario,
            budget=dataclasses.replace(scenario.budget, tx_power=dbm_to_watts(value)),
        )
    if variable == "rho0":
        if not (0.0 <= value <= 1.0):
            raise ScenarioError(f"sweep rho0={value}: correlation must lie in [0, 1]")
        return dataclasses.replace(scenario, rho0=value, doppler0=None)
    if variable == "rho":
        if not (0.0 <= value <= 1.0):
            raise ScenarioError(f"sweep rho={value}: correlation must lie in [0, 1]")
        panels = tuple(
            dataclasses.replace(ps, rho=value, doppler=None) for ps in scenario.panels
        )
        return dataclasses.replace(scenario, panels=panels)
    if variable == "K0":
        return dataclasses.replace(scenario, k0=db_to_linear(value))
    if variable == "cell_size":
        if value <= 0:
            raise ScenarioError(f"sweep cell_size={value}: must be positive")
        panels = tuple(
            dataclasses.replace(
                ps, panel=dataclasses.replace(ps.panel, dx=value, dy=value)
            )
            for ps in scenario.panels
        )
        return dataclasses.replace(scenario, panels=panels)
    if variable == "My":
        my = int(value)
        if my < 1 or my != value:
            raise ScenarioError(f"sweep My={value}: must be a positive integer")
        if len(scenario.panels) != 1:
            raise ScenarioError("sweep My: only supported for single-panel scenarios")
        setup = scenario.panels[0]
        mx = setup.panel.mx
        total = scenario.fixed_total_elements
        if total is not None:
            if total % my != 0:
                raise ScenarioError(
                    f"sweep My={my}: does not divide fixed_total_elements={total}"
                )
            mx = total // my
        panel = dataclasses.replace(setup.panel, mx=mx, my=my)
        return dataclasses.replace(
            scenario, panels=(dataclasses.replace(setup, panel=panel),)
        )
    if variable == "d1":
        if len(scenario.panels) != 1:
            raise ScenarioError("sweep d1: only supported for single-panel scenarios")
        setup = scenario.panels[0]
        center = setup.panel.center
        offset_sq = (scenario.bs.z - center.z) ** 2 + (scenario.bs.y - center.y) ** 2
        if value * value <= offset_sq:
            raise ScenarioError(
                f"sweep d1={value}: smaller than the fixed off-axis offset "
                f"{math.sqrt(offset_sq):.6g} m"
            )
        new_center = Point3(
            scenario.bs.x + math.sqrt(value * value - offset_sq), center.y, center.z
        )
        panel = dataclasses.replace(setup.panel, center=new_center)
        return dataclasses.replace(
            scenario, panels=(dataclasses.replace(setup, panel=panel),)
        )
    raise ScenarioError(f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point's outputs (None for values not computed)."""

    sweep_value: float
    ec_approx: Optional[float]
    ec_ub: Optional[float]
    ec_lb: Optional[float]
    ec_mc: Optional[float]
    mc_stderr: Optional[float]
    gamma_teff: float
    mode: str
    d_boundary_m: float


def run_sweep(
    scenario: Scenario,
    sweep: SweepSpec,
    workers: int = 1,
) -> list[SweepRow]:
    """Evaluate each sweep value.  Monte Carlo points share one seed
    (common random numbers); points with equal draw signatures also share
    every block's draws, so each block is drawn once per group and every
    point's estimate is bit-identical to running it alone."""
    resolved = []
    reports = []
    for value in sweep.values:
        point = resolve(apply_sweep_value(scenario, sweep.variable, value))
        resolved.append(point)
        reports.append(cap.capacity_report(point.moments, point.effective.gamma_teff))

    mc: list[Optional[McEstimate]] = [None] * len(resolved)
    if "mc" in sweep.outputs:
        groups: dict[tuple, list[int]] = {}
        for i, point in enumerate(resolved):
            groups.setdefault(point.ensemble.draw_signature(), []).append(i)
        cfg = TrialConfig(trials=sweep.trials, seed=sweep.seed)
        for indices in groups.values():
            estimates = simulate_ec_sweep(
                [resolved[i].ensemble for i in indices], cfg, workers=workers
            )
            for i, estimate in zip(indices, estimates):
                mc[i] = estimate

    return [
        SweepRow(
            sweep_value=value,
            ec_approx=report.ec_approx if "approx" in sweep.outputs else None,
            ec_ub=report.ec_upper if "ub" in sweep.outputs else None,
            ec_lb=report.ec_lower if "lb" in sweep.outputs else None,
            ec_mc=estimate.mean_ec if estimate else None,
            mc_stderr=estimate.std_error if estimate else None,
            gamma_teff=point.effective.gamma_teff,
            mode=point.mode_used,
            d_boundary_m=point.d_boundary,
        )
        for value, point, report, estimate in zip(sweep.values, resolved, reports, mc)
    ]


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".12g")


def rows_to_csv(rows: Sequence[SweepRow], variable: str) -> str:
    """Fixed-schema CSV with a unit comment line; byte-deterministic."""
    unit = SWEEP_UNITS.get(variable, "1")
    buf = io.StringIO()
    buf.write(
        f"# sweep_value: {unit}; ec_approx/ec_ub/ec_lb/ec_mc/mc_stderr: bit/s/Hz; "
        "gamma_teff: linear; d_boundary_m: m\n"
    )
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_format(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()
