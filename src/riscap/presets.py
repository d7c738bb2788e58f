"""Figure-reproduction presets.

Every preset starts from one baseline link budget and geometry (fixed BS
and user 100 m apart at 10 m height, a 5 GHz carrier, -120 dBm noise,
20 dB / 0 dB antenna gains, log-distance direct link with -30 dB
reference loss and exponent 3.5) and varies geometry and sweep per
figure.  Element size defaults to lambda/8.

Documented defaults where the source material under-specifies:

* Rician K-factors default to 3 dB on every link (k0, k1, k2).
* Aging defaults: rho0 = 0.95; panel rho = 0.9.
* Near-field presets place the centralized panel at (-49.5, 0, 9.5),
  0.5 m from the BS in x and 0.5 m below it.
* fig4 runs at P = -30 dBm with the panel plane 2.5 m below the BS
  (z = 7.5): at that depth and power the general and constant-loss
  formulas separate by more than 1 percent inside half the boundary
  distance while agreeing past the boundary, which is the comparison the
  preset exists to expose.  The d1 sweep repositions the panel center
  along y = 0 at fixed z, on the user side of the BS.
* fig7 shape comparison keeps the total element count at 576 and places
  the panel at the near-field default.
* fig8 distributed cases use two 16x18 panels 0.5 m apart; the panel
  nearest an endpoint always sits at the standard 0.5 m x-offset
  (x = -49.5 near the BS, x = +49.5 near the user) so all three layouts
  share the same best-panel geometry.

run_preset expands two presets beyond their single (scenario, sweep)
pair, and the CLI prints its rows as they are: fig4 is evaluated once per
forced mode (near rows, then far rows) so the two formulas can be
compared per distance, and fig8 appends one row per distributed case
(sweep_value 1..3) after the moving-panel sweep.
"""

from __future__ import annotations

import dataclasses

from .errors import ScenarioError
from .geometry import Point3, RisPanel
from .pathloss import LinkBudget
from .scenario import PanelSetup, Scenario
from .units import db_to_linear, dbm_to_watts, wavelength
from .workbench import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    RunResult,
    SweepSpec,
    _evaluate,
    apply_sweep_value,
)

FC_HZ = 5.0e9
LAMBDA = wavelength(FC_HZ)
CELL = LAMBDA / 8.0
BS = Point3(-50.0, 0.0, 10.0)
USER = Point3(50.0, 0.0, 10.0)
NEAR_PANEL_CENTER = Point3(-49.5, 0.0, 9.5)
K_DEFAULT = db_to_linear(3.0)
RHO0_DEFAULT = 0.95
RHO_PANEL_DEFAULT = 0.9


def _budget(p_dbm: float) -> LinkBudget:
    return LinkBudget(
        gt=db_to_linear(20.0),
        gr=db_to_linear(0.0),
        tx_power=dbm_to_watts(p_dbm),
        noise_power=dbm_to_watts(-120.0),
        eta_db=-30.0,
        xi=3.5,
    )


def _panel(center: Point3, mx: int, my: int) -> PanelSetup:
    return PanelSetup(
        panel=RisPanel(center=center, mx=mx, my=my, dx=CELL, dy=CELL),
        k1=K_DEFAULT,
        k2=K_DEFAULT,
        rho=RHO_PANEL_DEFAULT,
    )


def _scenario(
    *panels: PanelSetup,
    p_dbm: float = 0.0,
    mode: str = "auto",
    fixed_total: int | None = None,
) -> Scenario:
    """Baseline scenario: one panel is a centralized deployment, more are
    a distributed one."""
    return Scenario(
        bs=BS,
        user=USER,
        kind="centralized" if len(panels) == 1 else "distributed",
        panels=panels,
        k0=K_DEFAULT,
        rho0=RHO0_DEFAULT,
        budget=_budget(p_dbm),
        fc_hz=FC_HZ,
        mode=mode,
        fixed_total_elements=fixed_total,
    )


def _fig2():
    """Capacity vs transmit power, centralized 24x24 panel near the BS."""
    scenario = _scenario(_panel(NEAR_PANEL_CENTER, 24, 24))
    sweep = SweepSpec(variable="P", values=tuple(range(-20, 25, 5)))
    return scenario, sweep


def _fig3():
    """Capacity vs aging correlation, two 16x18 panels at both ends."""
    panels = (
        _panel(Point3(-49.0, 0.0, 9.5), 16, 18),
        _panel(Point3(49.0, 0.0, 9.5), 16, 18),
    )
    scenario = _scenario(*panels)
    sweep = SweepSpec(variable="rho", values=(1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5))
    return scenario, sweep


def _fig4():
    """General vs constant-loss formula as the BS-to-panel distance grows
    (40x40 panel, boundary at 6 m; see the module docstring for the
    depth/power choice)."""
    scenario = _scenario(
        _panel(Point3(-49.5, 0.0, 7.5), 40, 40), p_dbm=-30.0, mode="near"
    )
    sweep = SweepSpec(
        variable="d1", values=(2.6, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
    )
    return scenario, sweep


def _fig5():
    """Capacity vs element size, centralized 24x24 near-field panel."""
    scenario = _scenario(_panel(NEAR_PANEL_CENTER, 24, 24))
    sweep = SweepSpec(
        variable="cell_size",
        values=tuple(LAMBDA / k for k in (10.0, 8.0, 6.0, 4.0, 3.0, 2.0)),
    )
    return scenario, sweep


def _fig6():
    """Capacity vs element count at fixed mx = 24 (near-field panel);
    uniform my steps so successive capacity differences are comparable."""
    scenario = _scenario(_panel(NEAR_PANEL_CENTER, 24, 8))
    sweep = SweepSpec(variable="My", values=tuple(range(8, 104, 8)))
    return scenario, sweep


def _fig7():
    """Panel shape comparison at a fixed element budget of 576, P=-10 dBm.

    Sweeping My with fixed_total_elements re-derives mx = 576 / My, giving
    the shapes 24x24, 16x36, 12x48.
    """
    scenario = _scenario(
        _panel(NEAR_PANEL_CENTER, 24, 24), p_dbm=-10.0, fixed_total=576
    )
    sweep = SweepSpec(variable="My", values=(24, 36, 48))
    return scenario, sweep


def _fig8():
    """Centralized panel moved along the link axis (compare against the
    distributed cases from fig8_distributed_cases)."""
    scenario = _scenario(_panel(NEAR_PANEL_CENTER, 24, 24))
    sweep = SweepSpec(
        variable="d1",
        values=(2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 65.0, 80.0, 90.0, 95.0, 99.0),
    )
    return scenario, sweep


def fig8_distributed_cases() -> list[Scenario]:
    """The three two-panel layouts: both near the BS, both near the user,
    and one at each end (case 3)."""
    half = 16, 18
    layouts = (
        (Point3(-49.5, 0.0, 9.5), Point3(-49.0, 0.0, 9.5)),
        (Point3(49.0, 0.0, 9.5), Point3(49.5, 0.0, 9.5)),
        (Point3(-49.5, 0.0, 9.5), Point3(49.5, 0.0, 9.5)),
    )
    return [_scenario(_panel(a, *half), _panel(b, *half)) for a, b in layouts]


_BUILDERS = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}
PRESET_NAMES = tuple(_BUILDERS)


def preset(name: str) -> tuple[Scenario, SweepSpec]:
    """Scenario and sweep reproducing one figure's data at desk scale."""
    if name not in _BUILDERS:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return _BUILDERS[name]()


def run_preset(
    name: str,
    trials: int | None = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> tuple[list[tuple[float, RunResult]], str]:
    """(sweep_value, RunResult) rows of one preset (expanded as the module
    docstring says) and the swept variable that labels them in
    rows_to_csv; trials=None skips Monte Carlo."""
    scenario, sweep = preset(name)
    bases = [scenario]
    if name == "fig4":
        bases = [dataclasses.replace(scenario, mode=mode) for mode in ("near", "far")]
    points = [
        (value, apply_sweep_value(base, sweep.variable, value))
        for base in bases
        for value in sweep.values
    ]
    if name == "fig8":
        points += [(float(i), case) for i, case in enumerate(fig8_distributed_cases(), 1)]
    results = _evaluate([point for _, point in points], trials, seed, workers)
    return [(value, r) for (value, _), r in zip(points, results)], sweep.variable
