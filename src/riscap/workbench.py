"""Scenario execution: near/far resolution, the analytic pipeline, Monte
Carlo runs, parameter sweeps, and CSV emission.

``RunResult`` is the one record of an evaluated scenario.  ``_evaluate``
is the one evaluation route: ``_statistics`` takes each scenario through
geometry, path loss and envelope statistics in turn, then one
``capacity.capacity_reports`` call runs the capacity integrals of the
whole run in lockstep, and unless trials is None one
``simulate_ec_sweep`` call, which groups the scenarios that can share
draws, fills in ``mc``.  ``run_scenario`` is its one-scenario case, and
``run_scenario(scenario)`` (trials None) the analytic-only call;
``run_sweep`` and ``presets.run_preset`` return (sweep_value, RunResult)
pairs, the rows ``rows_to_csv`` reads.

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
from .channel import PanelChannel, RicianParams, rician_mean_envelope
from .errors import (
    GeometryError,
    PatternUnderflow,
    ScenarioError,
    SingularPattern,
    ValidationFailure,
    until_failure,
)
from .geometry import (
    ELEVATION_CONVENTION_NOTE,
    Point3,
    element_links,
    near_field_boundary,
    panel_link,
)
from .moments import MomentSummary, distributed_moments, distributed_noise_variance
from .montecarlo import (
    McEstimate,
    SnrEnsemble,
    TrialConfig,
    check_run_settings,
    simulate_ec_sweep,
)
from .pathloss import beta0_reference, direct_pathloss, element_pathloss, farfield_pathloss
from .scenario import Scenario
from .units import dbm_to_watts, db_to_linear, wavelength

SWEEP_UNITS = {
    "P": "dBm",
    "rho": "1",
    "rho0": "1",
    "My": "elements",
    "d1": "m",
    "cell_size": "m",
    "K0": "dB",
}
SWEEP_VARIABLES = tuple(SWEEP_UNITS)
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 7_543_137


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable and its values."""

    variable: str
    values: tuple[float, ...]

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


@dataclass(frozen=True)
class RunResult:
    """One evaluated scenario: its resolved ensemble and statistics, the
    analytic capacity report, and the Monte Carlo estimate (None when no
    Monte Carlo ran)."""

    ensemble: SnrEnsemble
    moments: MomentSummary
    report: cap.CapacityReport
    mode_used: str
    d_boundary: float
    notes: tuple[str, ...]
    mc: Optional[McEstimate] = None

    @property
    def gamma_teff(self) -> float:
        return self.ensemble.gamma_teff


def _loss(what: str, pathloss, *args):
    """pathloss(*args), a loss factor (or array) that must be finite and
    positive: out of float range it raises ScenarioError naming `what`."""
    try:
        loss = pathloss(*args)
    except (OverflowError, ZeroDivisionError):
        loss = math.inf
    if not np.all((loss > 0) & (loss < math.inf)):
        raise ScenarioError(f"{what}: loss factor is out of float range")
    return loss


# every overflow is range-checked and named below; numpy's warnings add nothing
@np.errstate(all="ignore")
def _statistics(scenario: Scenario) -> dict:
    """Geometry -> path loss -> envelope statistics of one scenario: the
    RunResult fields other than the report and mc."""
    lam = wavelength(scenario.fc_hz)
    d0 = scenario.bs.distance_to(scenario.user)
    if d0 == 0:
        raise ScenarioError("scenario.bs, scenario.user: the endpoints coincide")
    budget = scenario.budget
    beta0_inv = 1.0 / _loss(
        "scenario.bs, scenario.user, scenario.budget.eta_db, scenario.budget.xi: direct link "
        f"at eta_db={budget.eta_db:g}, xi={budget.xi:g} "
        f"over the {d0:g} m bs-user distance",
        direct_pathloss, d0, budget.eta_db, budget.xi,
    )

    sections = [
        "scenario.deployment." + ("panel" if scenario.kind == "centralized" else f"panels[{i}]")
        for i in range(len(scenario.panels))
    ]
    boundaries = []
    links = []
    for i, setup in enumerate(scenario.panels):
        boundaries.append(near_field_boundary(setup.panel, lam))
        try:
            links.append(panel_link(scenario.bs, scenario.user, setup.panel))
        except GeometryError as exc:
            raise GeometryError(f"panel {i}: {exc}, set by {sections[i]}.center.z") from None

    inside = [
        i
        for i, (link, boundary) in enumerate(zip(links, boundaries))
        if min(link.d1, link.d2) <= boundary
    ]
    mode = scenario.mode
    if mode == "auto":
        mode = "near" if inside else "far"
    notes = [ELEVATION_CONVENTION_NOTE]
    if mode == "far" and inside:
        message = (
            f"far-field formula applied to panel(s) {inside} inside the "
            "near/far boundary; results are approximate there"
        )
        warnings.warn(message)
        notes.append(message)

    gt, gr = budget.gt, budget.gr
    panels = []
    for i, (setup, link) in enumerate(zip(scenario.panels, links)):
        dx, dy = setup.panel.dx, setup.panel.dy
        b0_ref = _loss(
            "scenario.budget.gt, scenario.budget.gr: reference constant at "
            f"gt={gt:g}, gr={gr:g}, {dx:g} x {dy:g} m",
            beta0_reference, gt, gr, dx, dy,
        )
        what = (
            f"panel {i}: {mode}-field loss at d1={link.d1:g} m, d2={link.d2:g} m "
            f"from {sections[i]}.center to scenario.bs, scenario.user"
        )
        try:
            if mode == "near":
                links_i = element_links(scenario.bs, scenario.user, setup.panel)
                beta_inv = 1.0 / _loss(what, element_pathloss, links_i, b0_ref, gt, gr)
            else:
                beta_inv = np.full(
                    setup.panel.element_count, 1.0 / _loss(what, farfield_pathloss, link, b0_ref)
                )
        except PatternUnderflow as exc:
            message = f"panel {i}: scenario.budget.gt, scenario.budget.gr: {exc}"
            raise PatternUnderflow(message) from None
        except SingularPattern as exc:
            # a cosine's sign follows from the element grid and the endpoints
            grid = ", ".join(f"{sections[i]}.{key}" for key in ("mx", "my", "dx", "dy"))
            message = f"panel {i}: {exc}, set by {grid}, scenario.bs, scenario.user"
            raise SingularPattern(message) from None
        panels.append(
            PanelChannel(beta_inv=beta_inv, rho=setup.rho, k1=setup.k1, k2=setup.k2)
        )

    rho0 = scenario.rho0
    omega0 = rician_mean_envelope(RicianParams(scenario.k0))
    moments = distributed_moments(panels, omega0, rho0, beta0_inv)
    effective = distributed_noise_variance(
        budget.tx_power, panels, rho0, omega0, beta0_inv, budget.noise_power
    )
    if not math.isfinite(effective.noise_variance):
        raise ScenarioError(
            "scenario.budget.p_w, scenario.budget.gt, scenario.budget.gr: the outdated-CSI leakage "
            f"P * sum(beta^-1) overflowed at p_w={budget.tx_power:g} W, gt={gt:g}, gr={gr:g}"
        )
    if not 0 < effective.gamma_teff < math.inf:
        raise ScenarioError(
            "scenario.budget.p_w, scenario.budget.noise_w: effective transmit SNR "
            f"{budget.tx_power:g} W / {effective.noise_variance:g} W is out of float range"
        )
    ensemble = SnrEnsemble(
        panels=tuple(panels),
        beta0_inv=beta0_inv,
        rho0=rho0,
        k0=scenario.k0,
        gamma_teff=effective.gamma_teff,
    )
    return dict(
        ensemble=ensemble,
        moments=moments,
        mode_used=mode,
        d_boundary=max(boundaries),
        notes=tuple(notes),
    )


def _evaluate(
    scenarios: Sequence[Scenario],
    trials: Optional[int],
    seed: int,
    workers: int,
    labels: Optional[Sequence[Optional[str]]] = None,
) -> list[RunResult]:
    """Each scenario's envelope statistics, one capacity_reports call that
    runs all their capacity integrals in lockstep, then, unless trials is
    None, Monte Carlo estimates from one simulate_ec_sweep call on one seed
    (common random numbers), which decides which scenarios share draws.
    A failure raises what evaluating the scenarios one by one would raise
    first; given labels (one message prefix or None per scenario, such as
    its sweep point), a ValidationFailure carries its scenario's prefix."""
    check_run_settings(trials, seed, workers)
    staged, failure = until_failure(_statistics, scenarios)
    reports = cap.capacity_reports(
        [(fields["moments"], fields["ensemble"].gamma_teff) for fields in staged]
    )
    if failure is not None:
        label = labels[len(staged)] if labels else None
        if label is not None and isinstance(failure, ValidationFailure):
            raise type(failure)(f"{label}: {failure}") from None
        raise failure
    results = [RunResult(report=report, **fields) for fields, report in zip(staged, reports)]
    if trials is None:
        return results
    estimates = simulate_ec_sweep(
        [r.ensemble for r in results], TrialConfig(trials=trials, seed=seed), workers=workers
    )
    return [dataclasses.replace(r, mc=mc) for r, mc in zip(results, estimates)]


def run_scenario(
    scenario: Scenario,
    trials: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> RunResult:
    """Analytic capacity report, plus a Monte Carlo estimate unless trials
    is None."""
    return _evaluate([scenario], trials, seed, workers)[0]


def apply_sweep_value(scenario: Scenario, variable: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept field replaced.

    Units: P in dBm, K0 in dB, d1 and cell_size in meters; rho/rho0 are
    plain correlations; My is an element count (with
    deployment.fixed_total_elements set, mx is re-derived as total/my).
    A value the scenario's constructors reject, or whose conversion
    overflows, raises ScenarioError naming the sweep variable and value.
    """
    try:
        return _replace_swept(scenario, variable, value)
    except ValueError as exc:
        raise ScenarioError(f"sweep {variable}={value}: {exc}") from exc
    except OverflowError:
        raise ScenarioError(f"sweep {variable}={value}: out of float range") from None


def _replace_swept(scenario: Scenario, variable: str, value: float) -> Scenario:
    if variable == "P":
        return dataclasses.replace(
            scenario,
            budget=dataclasses.replace(scenario.budget, tx_power=dbm_to_watts(value)),
        )
    if variable in ("rho", "rho0") and not (0.0 <= value <= 1.0):
        raise ScenarioError(f"sweep {variable}={value}: correlation must lie in [0, 1]")
    if variable == "rho0":
        return dataclasses.replace(scenario, rho0=value)
    if variable == "rho":
        panels = tuple(dataclasses.replace(ps, rho=value) for ps in scenario.panels)
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


def run_sweep(
    scenario: Scenario,
    sweep: SweepSpec,
    trials: Optional[int] = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[tuple[float, RunResult]]:
    """One (sweep_value, RunResult) pair per sweep value, with Monte Carlo
    unless trials is None."""
    scenarios = [apply_sweep_value(scenario, sweep.variable, v) for v in sweep.values]
    labels = [f"sweep {sweep.variable}={v}" for v in sweep.values]
    return list(zip(sweep.values, _evaluate(scenarios, trials, seed, workers, labels)))


# The CSV schema: each column's name and its reader of one
# (sweep_value, RunResult) pair; Monte Carlo columns are blank without MC.
CSV_COLUMNS = (
    ("sweep_value", lambda value, r: value),
    ("ec_approx", lambda value, r: r.report.ec_approx),
    ("ec_ub", lambda value, r: r.report.ec_upper),
    ("ec_lb", lambda value, r: r.report.ec_lower),
    ("ec_mc", lambda value, r: r.mc.mean_ec if r.mc else None),
    ("mc_stderr", lambda value, r: r.mc.std_error if r.mc else None),
    ("gamma_teff", lambda value, r: r.gamma_teff),
    ("mode", lambda value, r: r.mode_used),
    ("d_boundary_m", lambda value, r: r.d_boundary),
)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".12g")


def rows_to_csv(rows: Sequence[tuple[float, RunResult]], variable: str) -> str:
    """Fixed-schema CSV of (sweep_value, RunResult) pairs with a unit
    comment line; byte-deterministic."""
    unit = SWEEP_UNITS.get(variable, "1")
    buf = io.StringIO()
    buf.write(
        f"# sweep_value: {unit}; ec_approx/ec_ub/ec_lb/ec_mc/mc_stderr: bit/s/Hz; "
        "gamma_teff: linear; d_boundary_m: m\n"
    )
    buf.write(",".join(name for name, _ in CSV_COLUMNS) + "\n")
    for value, result in rows:
        buf.write(",".join(_format(read(value, result)) for _, read in CSV_COLUMNS) + "\n")
    return buf.getvalue()
