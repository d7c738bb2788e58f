"""Scenario execution: near/far resolution, the analytic pipeline, Monte
Carlo runs, parameter sweeps, and CSV emission.

``RunResult`` is the one record of an evaluated scenario.  ``_evaluate``
is the one evaluation route: ``_statistics`` takes each scenario, whose
invariants its records hold, through geometry, path loss and envelope
statistics in turn.  Every panel, near or far field, is reduced in one
``panel_tiles`` loop to its element count, root sum sum(sqrt(beta^-1))
and power sum sum(beta^-1), the ``channel.PanelChannel`` the moments
read; the panel's read-only amplitudes sqrt(beta^-1) are one vector,
filled tile by tile, kept only for a run with trials (Monte Carlo
samples them) or when the panel is one tile, so an analytic-only run
holds one tile whatever the panel size.  A panel whose endpoints,
geometry, gains and resolved mode an earlier scenario of the run already
had reuses that panel's record, so a sweep over P, rho, rho0 or K0
reduces its panels once.  Then one ``capacity.capacity_reports`` call
runs the capacity integrals of the whole run in lockstep, and unless
trials is None one ``simulate_ec_sweep`` call, which groups the
scenarios that can share draws, fills in ``mc``.  ``run_scenario`` is its
one-scenario case, and ``run_scenario(scenario)`` (trials None) the
analytic-only call; ``run_sweep`` and ``presets.run_preset`` return
(sweep_value, RunResult) pairs, the rows ``rows_to_csv`` reads.  A
failure names record paths (``budget.tx_power``, ``panels[1].panel.dx``),
and a sweep names ``sweep.values`` in place of those its value set.

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
from .errors import ScenarioError, renamed, until_failure
from .geometry import (
    ELEVATION_CONVENTION_NOTE,
    TILE_ELEMENTS,
    PanelLink,
    Point3,
    RisPanel,
    near_field_boundary,
    panel_link,
    panel_tiles,
)
from .moments import MomentSummary, distributed_moments, distributed_noise_variance
from .montecarlo import (
    McEstimate,
    SnrEnsemble,
    TrialConfig,
    check_run_settings,
    simulate_ec_sweep,
)
from .pathloss import (
    ENDPOINTS,
    GAINS,
    OUT_OF_RANGE,
    NearFieldTiles,
    beta0_reference,
    direct_pathloss,
    farfield_pathloss,
    loss_factor,
)
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
                f"{self.variable!r} is not one of {SWEEP_VARIABLES}", ("sweep.variable",)
            )
        try:
            if isinstance(self.values, (str, bytes)):  # one value, not a sequence of them
                raise TypeError
            values = tuple(map(float, self.values))
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"expected numbers, got {self.values!r}", ("sweep.values",)) from None
        if not values:
            raise ScenarioError("must be non-empty", ("sweep.values",))
        object.__setattr__(self, "values", values)
        bad = [v for v in self.values if not math.isfinite(v)]
        if bad:
            raise ScenarioError(f"must be finite, got {bad[0]}", ("sweep.values",))


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


def _fsum(values) -> float:
    """math.fsum of non-negative values; +inf where their sum overflows,
    which fsum raises as OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _panel_sums(
    scenario: Scenario, panel: RisPanel, link: PanelLink, mode: str, keep: bool
) -> tuple[Optional[np.ndarray], float, float]:
    """The panel's (amplitude, root_sum, power_sum) under the resolved mode,
    reduced one panel_tiles tile at a time: a near-field tile is
    NearFieldTiles.inverse_losses of its rows and columns, a far-field
    tile the constant 1/farfield_pathloss (0 if out of float range).  The
    tiles' sums of beta^-1 and of sqrt(beta^-1) are added with math.fsum
    in tile order.  The amplitudes sqrt(beta^-1), row-major and read-only,
    are filled tile by tile when keep is set or the panel is one tile,
    else they are None and only one tile is held.  After the last tile it
    raises the panel's first pattern fault, then an inverse loss out of
    range, each naming the record paths that set it (``panel.dx``)."""
    gt, gr = scenario.budget.gt, scenario.budget.gr
    b0_ref = beta0_reference(gt, gr, panel.dx, panel.dy)  # Scenario checks its range
    amplitude = grid = None
    if keep or panel.element_count <= TILE_ELEMENTS:
        amplitude = np.empty(panel.element_count)
        grid = amplitude.reshape(panel.my, panel.mx)
    in_range = True
    # per tile, sum(beta^-1) and sum(sqrt(beta^-1)): 16 bytes a tile, a
    # quarter of what two lists of Python floats would take
    sums = np.empty((sum(1 for _ in panel_tiles(panel)), 2))
    if mode == "near":
        near = NearFieldTiles(scenario.bs, scenario.user, panel, link, b0_ref, gt, gr)
    else:
        far_inv = 1.0 / loss_factor(farfield_pathloss, link, b0_ref)
    for k, (rows, cols) in enumerate(panel_tiles(panel)):
        if mode == "near":
            tile = near.inverse_losses(rows, cols)
        else:
            tile = np.full(len(rows) * len(cols), far_inv)
        # a nan fails both comparisons, so it is out of range too
        in_range = in_range and bool(tile.min() > 0 and tile.max() < math.inf)
        sums[k, 0] = tile.sum()
        root = np.sqrt(tile, out=tile)
        sums[k, 1] = root.sum()
        if grid is not None:
            grid[rows.start : rows.stop, cols.start : cols.stop] = root.reshape(len(rows), -1)
    if mode == "near":
        near.check()
    if not in_range:
        # d1 and d2 depend on the panel centre and both endpoints
        raise ScenarioError(
            f"{mode}-field loss at d1={link.d1:g} m, d2={link.d2:g} m",
            ("panel.center", "panel.dx", "panel.dy", *GAINS, *ENDPOINTS),
            detail=OUT_OF_RANGE,
        )
    if amplitude is not None:
        amplitude.flags.writeable = False
    return amplitude, _fsum(sums[:, 1]), _fsum(sums[:, 0])


# every overflow is range-checked and named below; numpy's warnings add nothing
@np.errstate(all="ignore")
def _statistics(scenario: Scenario, shared: dict, keep: bool) -> dict:
    """Geometry -> path loss -> envelope statistics of one scenario: the
    RunResult fields other than the report and mc.  shared maps what a
    panel's inverse losses depend on to the (amplitude, root_sum,
    power_sum) of a panel evaluated earlier in the run; a panel not in it
    is evaluated and added, so geometry-equal points of a sweep reduce it
    once.  keep asks for every panel's amplitudes (Monte Carlo reads
    them); without it only one-tile panels carry them."""
    lam = wavelength(scenario.fc_hz)
    budget = scenario.budget
    d0 = scenario.bs.distance_to(scenario.user)
    beta0_inv = 1.0 / direct_pathloss(d0, budget.eta_db, budget.xi)  # Scenario checks its range

    boundaries = [near_field_boundary(setup.panel, lam) for setup in scenario.panels]
    links = [panel_link(scenario.bs, scenario.user, setup.panel) for setup in scenario.panels]

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
        # a panel's inverse losses are a function of these fields alone
        key = (scenario.bs, scenario.user, setup.panel, gt, gr, mode)
        if key not in shared:
            prefix = f"panels[{i}]."  # before the panel's own fields
            with renamed(lambda f: prefix + f if f.startswith("panel.") else f, f"panel {i}"):
                shared[key] = _panel_sums(scenario, setup.panel, link, mode, keep)
        amplitude, root_sum, power_sum = shared[key]
        count = setup.panel.element_count
        panels.append(
            PanelChannel(count, root_sum, power_sum, setup.rho, setup.k1, setup.k2, amplitude)
        )

    rho0 = scenario.rho0
    omega0 = rician_mean_envelope(RicianParams(scenario.k0))
    moments = distributed_moments(panels, omega0, rho0, beta0_inv)
    variance = distributed_noise_variance(
        budget.tx_power, panels, rho0, omega0, beta0_inv, budget.noise_power
    )
    if not math.isfinite(variance):
        raise ScenarioError(
            "the outdated-CSI leakage P * sum(beta^-1) overflowed "
            f"at transmit power {budget.tx_power:g} W, linear gains {gt:g} and {gr:g}",
            ("budget.tx_power", *GAINS),
        )
    gamma_teff = budget.tx_power / variance
    if not 0 < gamma_teff < math.inf:
        raise ScenarioError(
            f"effective transmit SNR {budget.tx_power:g} W / {variance:g} W is out of float range",
            ("budget.tx_power", "budget.noise_power"),
        )
    if not (math.isfinite(moments.mean) and math.isfinite(moments.second_moment)):
        grids = (
            f"panels[{i}].panel.{key}"
            for i in range(len(links))
            for key in ("center", "mx", "my", "dx", "dy")
        )
        raise ScenarioError(
            f"the envelope moments overflowed (mean {moments.mean:g}, second moment "
            f"{moments.second_moment:g}) at linear gains {gt:g} and {gr:g}",
            (*GAINS, *grids, *ENDPOINTS),
        )
    ensemble = SnrEnsemble(
        panels=tuple(panels),
        beta0_inv=beta0_inv,
        rho0=rho0,
        k0=scenario.k0,
        gamma_teff=gamma_teff,
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
    first; given labels (one label or None per scenario, such as
    its sweep point), a ValidationFailure carries its scenario's label."""
    check_run_settings(trials, seed, workers)
    shared: dict = {}
    keep = trials is not None
    staged, failure = until_failure(lambda s: _statistics(s, shared, keep), scenarios)
    reports = cap.capacity_reports(
        [(fields["moments"], fields["ensemble"].gamma_teff) for fields in staged]
    )
    if failure is not None:
        with renamed(label=labels[len(staged)] if labels else None):
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
    A value the scenario's records reject (a correlation outside [0, 1],
    a NaN K-factor, a panel past a RisPanel limit) or whose conversion
    overflows raises ScenarioError labelled "sweep variable=value", naming
    sweep.values for a path the value set or a record it rebuilt.
    """
    if variable not in SWEEP_UNITS:
        raise ScenarioError(f"unknown sweep variable {variable!r}")
    label = f"sweep {variable}={value}"
    paths: tuple[str, ...] = ()
    try:
        # a record the value rebuilt names its own attribute, bare
        with renamed(lambda f: "sweep.values" if f in paths or f.isidentifier() else f):
            changes, paths = _replace_swept(scenario, variable, value)
            return dataclasses.replace(scenario, **changes)
    except OverflowError:
        raise ScenarioError("out of float range", ("sweep.values",), label) from None
    except ScenarioError as exc:
        exc.label = exc.label or label
        raise


def _replace_swept(scenario: Scenario, variable: str, value: float) -> tuple[dict, tuple]:
    """The scenario fields the swept value replaces, and the paths it sets."""
    if variable == "P":
        budget = dataclasses.replace(scenario.budget, tx_power=dbm_to_watts(value))
        return {"budget": budget}, ("budget.tx_power",)
    if variable == "rho0":
        return {"rho0": value}, ("rho0",)
    if variable == "rho":
        panels = tuple(dataclasses.replace(ps, rho=value) for ps in scenario.panels)
        return {"panels": panels}, tuple(f"panels[{i}].rho" for i in range(len(panels)))
    if variable == "K0":
        # +-inf dB is a Rayleigh or a deterministic link
        return {"k0": db_to_linear(value)}, ("k0",)
    if variable == "cell_size":
        return _with_panels(scenario, dx=value, dy=value)
    if variable == "My":
        if not float(value).is_integer():
            raise ScenarioError("must be a positive integer", ("sweep.values",))
        my = int(value)
        if len(scenario.panels) != 1:
            raise ScenarioError("only supported for single-panel scenarios", label="sweep My")
        total = scenario.fixed_total_elements
        if total is None:
            return _with_panels(scenario, my=my)
        if not my or total % my:  # 0 divides no positive total
            raise ScenarioError(f"does not divide fixed_total_elements={total}", ("sweep.values",))
        return _with_panels(scenario, mx=total // my, my=my)
    # d1
    if len(scenario.panels) != 1:
        raise ScenarioError("only supported for single-panel scenarios", label="sweep d1")
    center = scenario.panels[0].panel.center
    offset_sq = (scenario.bs.z - center.z) ** 2 + (scenario.bs.y - center.y) ** 2
    if value * value <= offset_sq:
        raise ScenarioError(
            f"smaller than the fixed off-axis offset {math.sqrt(offset_sq):.6g} m",
            ("sweep.values",),
        )
    new_center = Point3(
        scenario.bs.x + math.sqrt(value * value - offset_sq), center.y, center.z
    )
    return _with_panels(scenario, center=new_center)


def _with_panels(scenario: Scenario, **changes) -> tuple[dict, tuple]:
    """_replace_swept's changes to every panel's RisPanel."""
    panels = tuple(
        dataclasses.replace(ps, panel=dataclasses.replace(ps.panel, **changes))
        for ps in scenario.panels
    )
    paths = (f"panels[{i}].panel.{key}" for i in range(len(panels)) for key in changes)
    return {"panels": panels}, tuple(paths)


def run_sweep(
    scenario: Scenario,
    sweep: SweepSpec,
    trials: Optional[int] = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[tuple[float, RunResult]]:
    """One (sweep_value, RunResult) pair per sweep value, with Monte Carlo
    unless trials is None; a failure names sweep.values for what it set."""
    scenarios = [apply_sweep_value(scenario, sweep.variable, v) for v in sweep.values]
    labels = [f"sweep {sweep.variable}={v}" for v in sweep.values]
    paths = _replace_swept(scenario, sweep.variable, sweep.values[0])[1]  # every point's
    with renamed(lambda field: "sweep.values" if field in paths else field):
        results = _evaluate(scenarios, trials, seed, workers, labels)
    return list(zip(sweep.values, results))


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
