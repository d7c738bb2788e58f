import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riscap import capacity, cli, montecarlo, special
from riscap import scenario as scenario_module
from riscap.errors import (
    PatternUnderflow,
    QuadratureFailure,
    ScenarioError,
    SingularPattern,
    ValidationFailure,
)
from riscap.geometry import TILE_ELEMENTS, Point3, RisPanel, panel_link, panel_tiles
from riscap.montecarlo import TrialConfig, simulate_ec_sweep
from riscap.pathloss import LinkBudget, NearFieldTiles, beta0_reference, farfield_pathloss
from riscap.presets import PRESET_NAMES, preset, run_preset
from riscap.scenario import (
    PanelSetup,
    Scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    written_keys,
)

from oracles import brute_force_beta_inv, per_point_preset, per_point_sweep
from panels import near_field, whole_panel
from riscap.workbench import (
    SWEEP_VARIABLES,
    SweepSpec,
    apply_sweep_value,
    rows_to_csv,
    run_scenario,
    run_sweep,
)


def synthetic_scenario(d1=4.0, d2=50.0, mode="auto"):
    """Panel with an exactly representable boundary: 2x2 grid of 0.5 m
    cells at wavelength 1 m gives boundary 4.0."""
    panel = RisPanel(center=Point3(0.0, 0.0, 0.0), mx=2, my=2, dx=0.5, dy=0.5)
    return Scenario(
        bs=Point3(0.0, 0.0, d1),
        user=Point3(0.0, 0.0, d2),
        kind="centralized",
        panels=(PanelSetup(panel=panel, k1=2.0, k2=2.0, rho=0.9),),
        k0=1.0,
        rho0=0.95,
        budget=LinkBudget(
            gt=4.0, gr=2.0, tx_power=1e-3, noise_power=1e-15, eta_db=-30.0, xi=3.5
        ),
        fc_hz=3.0e8,
        mode=mode,
    )


class TestAutoMode:
    def test_boundary_tie_stays_near(self):
        res = run_scenario(synthetic_scenario(d1=4.0))
        assert res.d_boundary == 4.0
        assert res.mode_used == "near"

    def test_beyond_boundary_goes_far(self):
        res = run_scenario(synthetic_scenario(d1=4.5, d2=50.0))
        assert res.mode_used == "far"

    def test_user_side_counts_too(self):
        res = run_scenario(synthetic_scenario(d1=40.0, d2=3.0))
        assert res.mode_used == "near"

    def test_forced_far_inside_boundary_warns_but_runs(self):
        with pytest.warns(UserWarning, match="boundary"):
            res = run_scenario(synthetic_scenario(d1=2.0, mode="far"))
        assert res.mode_used == "far"
        assert any("boundary" in note for note in res.notes)


class TestPipelineConsistency:
    def test_distributed_single_panel_equals_centralized(self):
        s, _ = preset("fig2")
        as_distributed = dataclasses.replace(s, kind="distributed")
        a = run_scenario(s)
        b = run_scenario(as_distributed)
        assert a.report == b.report
        assert a.gamma_teff == b.gamma_teff

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_analytic_run_equals_the_monte_carlo_run_without_mc(self, name):
        s, _ = preset(name)
        res = run_scenario(s)
        run = run_scenario(s, trials=1000)
        assert res.mc is None and run.mc is not None
        for field in dataclasses.fields(res.report):
            assert getattr(res.report, field.name) == getattr(run.report, field.name)
        assert res.gamma_teff == run.gamma_teff == res.ensemble.gamma_teff

    @pytest.mark.parametrize(
        "case",
        ["synthetic_2x2", "fig2_gain_40x40", "fig2_gain_odd_7x5"],
    )
    def test_near_field_beta_inv_matches_brute_force_loop(self, case):
        if case == "synthetic_2x2":
            s = synthetic_scenario(d1=2.0)
        else:
            mx, my = (40, 40) if case == "fig2_gain_40x40" else (7, 5)
            s, _ = preset("fig2")
            setup = s.panels[0]
            panel = dataclasses.replace(setup.panel, mx=mx, my=my)
            s = dataclasses.replace(
                s, panels=(dataclasses.replace(setup, panel=panel),), mode="near"
            )
        res = run_scenario(s)
        assert res.mode_used == "near"
        whole = whole_panel(near_field(*first_panel(s)))
        assert np.array_equal(res.ensemble.panels[0].amplitude, np.sqrt(whole))
        assert res.ensemble.panels[0].power_sum == float(np.sum(whole))
        assert res.ensemble.panels[0].root_sum == float(np.sum(np.sqrt(whole)))
        expected = brute_force_beta_inv(s.bs, s.user, s.panels[0].panel, s.budget.gt, s.budget.gr)
        np.testing.assert_allclose(whole, expected, rtol=1e-12, atol=0)

    def test_monotone_in_power_rho_and_k(self):
        s, _ = preset("fig2")
        ecs = []
        for p_dbm in (-20.0, -10.0, 0.0, 10.0):
            r = run_scenario(apply_sweep_value(s, "P", p_dbm))
            ecs.append(r.report.ec_approx)
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

        ecs = [
            run_scenario(apply_sweep_value(s, "rho", r)).report.ec_approx
            for r in (0.5, 0.7, 0.9, 1.0)
        ]
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

        ecs = [
            run_scenario(apply_sweep_value(s, "rho0", r)).report.ec_approx
            for r in (0.5, 0.8, 0.95)
        ]
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

        ecs = [
            run_scenario(apply_sweep_value(s, "K0", k_db)).report.ec_approx
            for k_db in (-10.0, 0.0, 3.0, 10.0)
        ]
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

    def test_overflowing_moments_name_the_gains_and_panel(self):
        s = parse_scenario(edited_preset("fig2", MOMENT_OVERFLOW))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # forced far field
            with pytest.raises(ScenarioError, match="envelope moments overflowed") as exc:
                run_scenario(s)
        assert exc.value.fields == MOMENT_OVERFLOW_PATHS

    def test_power_saturation(self):
        s, _ = preset("fig2")
        ec_mid = run_scenario(apply_sweep_value(s, "P", 60.0)).report.ec_approx
        ec_high = run_scenario(apply_sweep_value(s, "P", 90.0)).report.ec_approx
        assert ec_high - ec_mid < 1e-3


def first_panel(s: Scenario) -> tuple:
    """near_field's arguments for the scenario's first panel: endpoints,
    panel, gains and reference constant."""
    panel = s.panels[0].panel
    b0 = beta0_reference(s.budget.gt, s.budget.gr, panel.dx, panel.dy)
    return s.bs, s.user, panel, s.budget.gt, s.budget.gr, b0


def reference_tiles(beta_inv: np.ndarray, panel: RisPanel) -> list[np.ndarray]:
    """The panel_tiles tiles of a row-major per-element vector, each a
    contiguous row-major copy as the workbench forms it."""
    grid = beta_inv.reshape(panel.my, panel.mx)
    return [
        np.ascontiguousarray(grid[rows.start : rows.stop, cols.start : cols.stop]).ravel()
        for rows, cols in panel_tiles(panel)
    ]


def midlink_fig2(mx, my, **budget) -> Scenario:
    """fig2 in near mode with an mx x my panel centred between the
    endpoints, 0.5 m below them; budget fields replace fig2's."""
    s, _ = preset("fig2")
    setup = s.panels[0]
    panel = dataclasses.replace(setup.panel, center=Point3(0.0, 0.0, 9.5), mx=mx, my=my)
    return dataclasses.replace(
        s,
        panels=(dataclasses.replace(setup, panel=panel),),
        budget=dataclasses.replace(s.budget, **budget),
        mode="near",
    )


class TestTiledNearField:
    """_statistics reduces a panel one panel_tiles tile at a time; an
    analytic run keeps a panel's amplitudes only when it is one tile."""

    @pytest.mark.parametrize("mx, my", [(316, 316), (317, 101), (1, 10**5), (12000, 1)])
    def test_tiled_beta_inv_equals_one_whole_panel_call(self, mx, my):
        # shapes the tile does not divide; the 12000-element row is split
        s = midlink_fig2(mx, my)
        panel = s.panels[0].panel
        assert len(list(panel_tiles(panel))) > 1
        whole = whole_panel(near_field(*first_panel(s)))
        # the analytic run: each tile's sums, added in tile order
        channel = run_scenario(s).ensemble.panels[0]
        assert channel.amplitude is None and channel.count == mx * my
        tiles = reference_tiles(whole, panel)
        assert channel.power_sum == math.fsum(float(np.sum(t)) for t in tiles)
        assert channel.root_sum == math.fsum(float(np.sum(np.sqrt(t))) for t in tiles)
        # a run with trials fills every amplitude from the same tiles
        sampled = run_scenario(s, trials=1).ensemble.panels[0]
        assert np.array_equal(sampled.amplitude, np.sqrt(whole))
        assert not sampled.amplitude.flags.writeable
        assert (sampled.root_sum, sampled.power_sum) == (channel.root_sum, channel.power_sum)
        expected = brute_force_beta_inv(s.bs, s.user, panel, s.budget.gt, s.budget.gr)
        np.testing.assert_allclose(whole, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["near", "far"])
    def test_analytic_peak_memory_does_not_grow_with_the_panel(self, mode):
        # 10^6 and 10^7 elements: the larger panel peaks no higher than
        # the smaller one plus one tile-sized vector (its 3162-element rows
        # make 6324-element tiles, the 1000-element rows 8000-element ones,
        # so it may peak lower); one panel vector would add 72 MB
        peaks = []
        for side in (1000, 3162):
            s = dataclasses.replace(midlink_fig2(side, side, gt=1.0), mode=mode)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # forced far field
                tracemalloc.start()
                try:
                    channel = run_scenario(s).ensemble.panels[0]
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert channel.amplitude is None and channel.count == side * side
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 8 * TILE_ELEMENTS

    @pytest.mark.parametrize("mode", ["near", "far"])
    @pytest.mark.parametrize("mx, my", [(1, 1), (91, 90), (8192, 1), (1, 8192)])
    def test_a_one_tile_panel_keeps_its_amplitudes(self, mode, mx, my):
        assert mx * my <= TILE_ELEMENTS
        s = dataclasses.replace(midlink_fig2(mx, my), mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # forced far field
            channel = run_scenario(s).ensemble.panels[0]
            sampled = run_scenario(s, trials=1).ensemble.panels[0]
        assert channel.amplitude.shape == (mx * my,)
        assert not channel.amplitude.flags.writeable
        assert channel.root_sum == float(np.sum(channel.amplitude))
        assert np.array_equal(channel.amplitude, sampled.amplitude)
        assert (channel.root_sum, channel.power_sum) == (sampled.root_sum, sampled.power_sum)

    def test_monte_carlo_refuses_an_analytic_multi_tile_ensemble(self):
        ensemble = run_scenario(midlink_fig2(317, 101)).ensemble
        with pytest.raises(ScenarioError, match="^ensemble 0, panel 0: amplitude: "):
            simulate_ec_sweep([ensemble], TrialConfig(trials=1, seed=1))

    @pytest.mark.parametrize("mx, my", [(1000, 1000), (1, 10**6)])
    def test_peak_memory_is_one_panel_vector_and_a_tile(self, mx, my):
        # an upper bound: the analytic run holds one tile's links and
        # inverse losses, no per-element vector; a second per-element
        # vector would reach 2.0, and whole-panel links ~10
        s = midlink_fig2(mx, my, gt=1.0)
        tracemalloc.start()
        try:
            run_scenario(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * mx * my

    def test_endpoint_fault_in_a_later_tile_counts_the_whole_panel(self):
        # a 12000-element row reaching 5 m past the user: only elements of
        # its second tile lie past the user's perpendicular
        s = midlink_fig2(12000, 1)
        setup = s.panels[0]
        panel = dataclasses.replace(setup.panel, center=Point3(10.0, 0.0, 9.5))
        s = dataclasses.replace(s, panels=(dataclasses.replace(setup, panel=panel),))
        by_tile = near_field(*first_panel(s))
        (rows, cols), (rest_rows, rest_cols) = panel_tiles(panel)
        by_tile.inverse_losses(rows, cols)
        assert by_tile.endpoint_count == 0
        by_tile.inverse_losses(rest_rows, rest_cols)
        assert by_tile.endpoint_count == 666
        one_call = near_field(*first_panel(s))
        one_call.inverse_losses(range(1), range(12000))
        with pytest.raises(SingularPattern) as whole:
            one_call.check()
        assert "666 element(s) are not (worst -0.9937)" in str(whole.value)
        with pytest.raises(SingularPattern) as tiles:
            by_tile.check()
        assert str(tiles.value) == str(whole.value)
        grid = ", ".join(f"panels[0].panel.{key}" for key in ("mx", "my", "dx", "dy"))
        expected = f"panel 0: {whole.value.message}, set by {grid}, bs, user"
        with pytest.raises(SingularPattern) as tiled:
            run_scenario(s)
        assert type(tiled.value) is SingularPattern
        assert str(tiled.value) == expected

    def test_pattern_underflow_in_two_tiles_counts_the_whole_panel(self):
        # huge gain exponents: the pattern underflows at both ends of a
        # 12000-element row, one end in each of its two tiles
        s = midlink_fig2(12000, 1, gt=1e6, gr=1e6)
        by_tile, counts = near_field(*first_panel(s)), []
        for rows, cols in panel_tiles(s.panels[0].panel):
            by_tile.inverse_losses(rows, cols)
            counts.append(by_tile.pattern_count)
        assert 0 < counts[0] < counts[1]
        with pytest.raises(PatternUnderflow) as whole:
            whole_panel(near_field(*first_panel(s)))
        assert f"at {counts[1]} element(s)" in str(whole.value)
        with pytest.raises(PatternUnderflow) as tiled:
            run_scenario(s)
        grid = ", ".join(f"panels[0].panel.{key}" for key in ("mx", "my", "dx", "dy"))
        fields = f"budget.gt, budget.gr, {grid}, bs, user"
        expected = f"panel 0: {fields}: {whole.value.message}"
        assert str(tiled.value) == expected


    @pytest.mark.parametrize("bad_tile", [0, 1])
    def test_nan_inverse_loss_in_any_tile_is_out_of_range(self, monkeypatch, bad_tile):
        # a nan inverse loss passes the pattern checks; the range verdict
        # folded over the tiles must still see it, before or after an
        # in-range tile
        from riscap import workbench

        calls = []

        class WithNan(NearFieldTiles):
            def inverse_losses(self, rows, cols):
                beta_inv = super().inverse_losses(rows, cols)
                if len(calls) == bad_tile:
                    beta_inv[-1] = math.nan
                calls.append(beta_inv.size)
                return beta_inv

        monkeypatch.setattr(workbench, "NearFieldTiles", WithNan)
        with pytest.raises(ScenarioError) as exc:
            run_scenario(midlink_fig2(12000, 1))
        assert len(calls) == 2
        assert str(exc.value).startswith("panel 0: near-field loss at ")
        assert str(exc.value).endswith(": loss factor or its inverse is out of float range")

    def test_leakage_overflow_across_tiles_is_named(self):
        # six far-field tiles whose power sums are finite while their total
        # overflows, which math.fsum raises as OverflowError
        edits = {**MOMENT_OVERFLOW, "deployment.panel.mx": 8192, "deployment.panel.my": 6}
        s = parse_scenario(edited_preset("fig2", edits))
        panel = s.panels[0].panel
        assert len(list(panel_tiles(panel))) == 6
        b0 = beta0_reference(s.budget.gt, s.budget.gr, panel.dx, panel.dy)
        beta_inv = 1.0 / farfield_pathloss(panel_link(s.bs, s.user, panel), b0)
        tile_sum = float(np.sum(np.full(8192, beta_inv)))
        assert math.isfinite(tile_sum)
        with pytest.raises(OverflowError):
            math.fsum([tile_sum] * 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # forced far field
            with pytest.raises(ScenarioError, match="outdated-CSI leakage P \\* sum"):
                run_scenario(s)

    def test_moment_overflow_across_tiles_is_named(self):
        # two far-field tiles: finite sums and leakage, while the squared
        # root sum overflows
        edits = {**MOMENT_OVERFLOW, "deployment.panel.mx": 8192, "deployment.panel.my": 2}
        edits.update({"budget.gt": 1e152, "budget.gr": 1e152})
        s = parse_scenario(edited_preset("fig2", edits))
        assert len(list(panel_tiles(s.panels[0].panel))) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # forced far field
            with pytest.raises(ScenarioError, match="envelope moments overflowed") as exc:
                run_scenario(s)
        assert exc.value.fields == MOMENT_OVERFLOW_PATHS


class TestApplySweepValue:
    def test_power(self):
        s, _ = preset("fig2")
        out = apply_sweep_value(s, "P", -10.0)
        assert out.budget.tx_power == pytest.approx(1e-4, rel=1e-12)

    def test_my_with_fixed_total(self):
        s, _ = preset("fig7")
        out = apply_sweep_value(s, "My", 36)
        assert (out.panels[0].panel.mx, out.panels[0].panel.my) == (16, 36)
        with pytest.raises(ScenarioError, match="divide"):
            apply_sweep_value(s, "My", 35)

    def test_my_without_fixed_total_keeps_mx(self):
        s, _ = preset("fig6")
        out = apply_sweep_value(s, "My", 40)
        assert (out.panels[0].panel.mx, out.panels[0].panel.my) == (24, 40)

    def test_d1_repositions_panel(self):
        s, _ = preset("fig4")
        out = apply_sweep_value(s, "d1", 7.5)
        center = out.panels[0].panel.center
        assert out.bs.distance_to(center) == pytest.approx(7.5, rel=1e-12)
        assert center.z == s.panels[0].panel.center.z

    def test_d1_too_small_rejected(self):
        s, _ = preset("fig4")
        with pytest.raises(ScenarioError, match="off-axis"):
            apply_sweep_value(s, "d1", 1.0)

    def test_cell_size(self):
        s, _ = preset("fig5")
        out = apply_sweep_value(s, "cell_size", 0.01)
        assert out.panels[0].panel.dx == 0.01
        assert out.panels[0].panel.dy == 0.01

    def test_rho_applies_to_all_panels(self):
        s, _ = preset("fig3")
        out = apply_sweep_value(s, "rho", 0.6)
        assert all(ps.rho == 0.6 for ps in out.panels)

    def test_k0_nan_rejected_infinities_kept(self):
        s, _ = preset("fig2")
        with pytest.raises(ScenarioError, match=r"^sweep K0=nan: "):
            apply_sweep_value(s, "K0", math.nan)
        # a Rayleigh and a deterministic direct link
        assert apply_sweep_value(s, "K0", -math.inf).k0 == 0.0
        assert apply_sweep_value(s, "K0", math.inf).k0 == math.inf

    def test_unknown_variable(self):
        with pytest.raises(ScenarioError):
            SweepSpec(variable="bananas", values=(1.0,))

    @pytest.mark.parametrize("values", [("x",), 5, (1j,), (10**400,), (), None, "12", b"12"])
    def test_values_that_are_not_numbers_name_the_field(self, values):
        with pytest.raises(ScenarioError) as exc:
            SweepSpec("P", values)
        assert exc.value.fields == ("sweep.values",)

    @pytest.mark.parametrize(
        "name, variable, value, message",
        [
            ("fig3", "My", 20, "sweep My: only supported for single-panel scenarios"),
            ("fig2", "bananas", 1.0, "unknown sweep variable 'bananas'"),
            # the label gives the value as it came, not the int it stands for
            (
                "fig7",
                "My",
                -1e300,
                "sweep My=-1e+300: sweep.values: does not divide fixed_total_elements=576",
            ),
        ],
    )
    def test_rejected_sweep_names_the_variable(self, name, variable, value, message):
        s, _ = preset(name)
        with pytest.raises(ScenarioError) as exc:
            apply_sweep_value(s, variable, value)
        assert str(exc.value) == message


class TestRunSettings:
    BAD = [
        ("trials", 0),
        ("trials", -5),
        ("seed", -1),
        ("seed", 2**64),
        ("workers", 0),
        ("trials", 2.5),
        ("seed", 1.5),
        ("workers", 1.5),
        ("workers", True),
    ]

    @pytest.mark.parametrize("field, value", BAD)
    def test_run_scenario_rejects(self, field, value):
        s, _ = preset("fig2")
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            run_scenario(s, **{field: value})

    def test_numpy_integers_pass(self):
        s, _ = preset("fig2")
        plain = run_scenario(s, trials=64, seed=3, workers=1)
        numpy = run_scenario(s, trials=np.int64(64), seed=np.uint64(3), workers=np.int32(2))
        assert numpy.mc == plain.mc

    @pytest.mark.parametrize("field, value", BAD)
    def test_run_preset_rejects(self, field, value):
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            run_preset("fig7", **{field: value})

    @pytest.mark.parametrize("field, value", BAD)
    def test_run_sweep_rejects(self, field, value):
        s, sweep = preset("fig2")
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            run_sweep(s, sweep, **{field: value})


class TestSweepCsv:
    def test_deterministic_bytes(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(variable="P", values=(-10.0, 0.0))
        a = rows_to_csv(run_sweep(s, sweep, trials=2_000, seed=5), "P")
        b = rows_to_csv(run_sweep(s, sweep, trials=2_000, seed=5), "P")
        assert a == b
        assert a.startswith("# sweep_value: dBm")
        header = a.splitlines()[1]
        assert header == (
            "sweep_value,ec_approx,ec_ub,ec_lb,ec_mc,mc_stderr,gamma_teff,mode,d_boundary_m"
        )

    def test_no_trials_blanks_mc_columns(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(variable="P", values=(0.0,))
        text = rows_to_csv(run_sweep(s, sweep, trials=None), "P")
        row = text.splitlines()[2].split(",")
        assert row[1] != "" and row[2] != "" and row[3] != ""
        assert row[4] == row[5] == ""

    def test_monotone_power_sweep(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(variable="P", values=(-20.0, -10.0, 0.0, 10.0, 20.0))
        rows = run_sweep(s, sweep, trials=None)
        ecs = [r.report.ec_approx for _, r in rows]
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

    def test_rho_sweep_nonincreasing_when_descending(self):
        s, sweep = preset("fig3")
        rows = run_sweep(s, sweep, trials=None)
        ecs = [r.report.ec_approx for _, r in rows]
        assert all(b < a for a, b in zip(ecs, ecs[1:]))  # values run 1.0 -> 0.5

    def test_element_count_sweep_flattens_in_near_field(self):
        # growing the panel toward the BS adds ever-lossier edge elements,
        # so capacity gains per added row must shrink toward zero
        s, sweep = preset("fig6")
        rows = run_sweep(s, sweep, trials=None)
        ecs = [r.report.ec_approx for _, r in rows]
        diffs = [b - a for a, b in zip(ecs, ecs[1:])]
        assert all(d > 0 for d in diffs)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 0.05 * diffs[0]

    def test_single_panel_distributed_file_gives_identical_csv(self):
        s, _ = preset("fig2")
        as_distributed = dataclasses.replace(s, kind="distributed")
        sweep = SweepSpec(variable="P", values=(-10.0, 0.0))
        a = rows_to_csv(run_sweep(s, sweep, trials=1_000, seed=13), "P")
        b = rows_to_csv(run_sweep(as_distributed, sweep, trials=1_000, seed=13), "P")
        assert a == b


class TestBatchedSweep:
    VALUES = {
        "P": (-10.0, 0.0, 10.0),
        "rho": (0.5, 0.9, 1.0),
        "rho0": (0.6, 0.95),
        "My": (2, 3, 4),
        "d1": (0.8, 2.0, 5.0),
        "cell_size": (0.005, 0.01),
        "K0": (-3.0, 0.0, 5.0),
    }

    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_csv_equals_per_point_runs(self, variable):
        s, _ = preset("fig2")
        if variable == "My":
            setup = s.panels[0]
            panel = dataclasses.replace(setup.panel, mx=4, my=4)
            s = dataclasses.replace(s, panels=(dataclasses.replace(setup, panel=panel),))
        # 2100 trials: one full block of 2048 and a partial one
        sweep = SweepSpec(variable=variable, values=self.VALUES[variable])
        for workers in (1, 2):
            batched = rows_to_csv(run_sweep(s, sweep, 2100, 17, workers), variable)
            reference = rows_to_csv(per_point_sweep(s, sweep, 2100, 17, workers), variable)
            assert batched == reference

    def test_first_failing_point_decides_the_error(self, monkeypatch):
        s, _ = preset("fig2")
        # d1 = 1e100 passes apply_sweep_value, but evaluating it fails
        with pytest.raises(ScenarioError):
            run_scenario(apply_sweep_value(s, "d1", 1e100))
        # three subintervals are too few for either quadrature route
        monkeypatch.setattr(capacity, "QUAD_LIMIT", 3)
        with pytest.raises(QuadratureFailure):
            run_sweep(s, SweepSpec(variable="d1", values=(4.0, 1e100)), trials=None)
        with pytest.raises(ScenarioError):
            run_sweep(s, SweepSpec(variable="d1", values=(1e100, 4.0)), trials=None)

    def test_failing_point_names_the_sweep_value(self):
        from riscap.errors import SingularPattern

        s, _ = preset("fig2")
        # the same error, prefixed only when it comes from a swept point
        with pytest.raises(SingularPattern, match=r"^panel 0: endpoint-side"):
            run_scenario(apply_sweep_value(s, "cell_size", 1e8))
        with pytest.raises(
            SingularPattern, match=r"^sweep cell_size=100000000\.0: panel 0: endpoint-side"
        ):
            run_sweep(s, SweepSpec(variable="cell_size", values=(0.01, 1e8)), trials=None)


class TestRunPreset:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_csv_equals_per_point_cli_route(self, name):
        # fig4's far rows force the far-field formula inside the boundary
        expected = (
            pytest.warns(UserWarning, match="boundary")
            if name == "fig4"
            else contextlib.nullcontext()
        )
        with expected:
            for workers in (1, 2):
                rows, variable = run_preset(name, trials=600, seed=3, workers=workers)
                reference = per_point_preset(name, trials=600, seed=3, workers=workers)
                assert rows_to_csv(rows, variable) == rows_to_csv(reference, variable)

    def test_failing_row_names_the_sweep_value(self, monkeypatch):
        from riscap import presets

        s, _ = preset("fig2")
        monkeypatch.setattr(presets, "preset", lambda name: (s, SweepSpec("d1", (20.0, 1e100))))
        with pytest.raises(ScenarioError, match=r"^sweep d1=1e\+100: panel 0: far-field loss"):
            run_preset("fig2", trials=None)

    def test_no_mc_blanks_mc_columns(self):
        rows, _ = run_preset("fig8", trials=None)
        assert all(r.mc is None for _, r in rows)
        assert all(r.report.ec_approx is not None for _, r in rows)


class TestSharedPanels:
    """A run evaluates each panel geometry once: its points share one
    read-only amplitude array and power sum."""

    @pytest.mark.parametrize("name, geometries", [("fig2", 1), ("fig5", 6)])
    def test_each_panel_geometry_is_reduced_once(self, monkeypatch, name, geometries):
        # fig2 sweeps P over one panel; fig5 sweeps the element size
        from riscap import workbench

        calls = []
        reduce = workbench._panel_sums

        def counted(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(workbench, "_panel_sums", counted)
        rows, _ = run_preset(name, trials=None)
        assert len(calls) == geometries
        amplitudes = {id(r.ensemble.panels[0].amplitude): r.ensemble.panels[0] for _, r in rows}
        assert len(amplitudes) == geometries
        assert not any(p.amplitude.flags.writeable for p in amplitudes.values())

    def test_points_differing_in_one_key_field_do_not_share(self):
        # each field a panel's losses depend on, changed alone in one run
        from riscap.workbench import _evaluate

        s, _ = preset("fig2")
        setup = s.panels[0]
        moved = dataclasses.replace(setup.panel, center=Point3(-49.0, 0.0, 9.5))
        points = [
            s,
            dataclasses.replace(s, bs=Point3(-50.0, 0.5, 10.0)),
            dataclasses.replace(s, user=Point3(50.0, 0.5, 10.0)),
            dataclasses.replace(s, panels=(dataclasses.replace(setup, panel=moved),)),
            dataclasses.replace(s, budget=dataclasses.replace(s.budget, gt=50.0)),
            dataclasses.replace(s, budget=dataclasses.replace(s.budget, gr=2.0)),
            dataclasses.replace(s, mode="far"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # forced far field
            together = _evaluate(points, None, 0, 1)
            alone = [run_scenario(point) for point in points]
        amplitudes = [r.ensemble.panels[0].amplitude for r in together]
        assert len({id(a) for a in amplitudes}) == len(points)
        for got, want in zip(together, alone):
            (panel,), (solo,) = got.ensemble.panels, want.ensemble.panels
            assert np.array_equal(panel.amplitude, solo.amplitude)
            assert got.report == want.report

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_rows_equal_points_run_alone(self, name):
        scenario, sweep = preset(name)
        rows, _ = run_preset(name, trials=4096, seed=11, workers=2)
        assert len(rows) == len(sweep.values)
        for (value, batched), want in zip(rows, sweep.values):
            assert value == want
            alone = run_scenario(
                apply_sweep_value(scenario, sweep.variable, value), trials=4096, seed=11
            )
            for field in ("moments", "report", "mc", "mode_used", "d_boundary", "notes"):
                assert getattr(batched, field) == getattr(alone, field), (value, field)
            for field in ("beta0_inv", "rho0", "k0", "gamma_teff"):
                assert getattr(batched.ensemble, field) == getattr(alone.ensemble, field)
            for got, solo in zip(batched.ensemble.panels, alone.ensemble.panels):
                assert np.array_equal(got.amplitude, solo.amplitude)
                assert (got.power_sum, got.rho, got.k1, got.k2) == (
                    solo.power_sum, solo.rho, solo.k1, solo.k2
                )


# fig2 with every aging correlation 0
OUTDATED = {"channel.rho": [0.0], "channel.rho0": 0.0}
# fig2 with a 1 m element 1 mm below both endpoints and huge gains: the
# loss factor is subnormal, so its inverse overflows
TINY_LINK = {
    "deployment.panel.mx": 1,
    "deployment.panel.my": 1,
    "deployment.panel.dx": 1,
    "deployment.panel.dy": 1,
    "deployment.panel.center": {"x": 0, "y": 0, "z": 0},
    "bs": {"x": 0, "y": 0, "z": 1e-3},
    "user": {"x": 1e-3, "y": 0, "z": 1e-3},
    "budget.gt": 1e150,
    "budget.gr": 1e150,
}
# fig2 in far mode with 1 m elements 1 m from both endpoints and gains
# that keep the leakage finite while sum(amplitude)^2 overflows, so the
# envelope's second moment is NaN
MOMENT_OVERFLOW = {
    "mode": "far",
    "deployment.panel.dx": 1,
    "deployment.panel.dy": 1,
    "deployment.panel.center": {"x": 0, "y": 0, "z": 0},
    "bs": {"x": -0.6, "y": 0, "z": 0.8},
    "user": {"x": 0.6, "y": 0, "z": 0.8},
    "budget.gt": 1e153,
    "budget.gr": 1e153,
}
MOMENT_OVERFLOW_FIELDS = (
    "scenario.budget.gt, scenario.budget.gr, scenario.deployment.panel.center, "
    "scenario.deployment.panel.mx, scenario.deployment.panel.my, "
    "scenario.deployment.panel.dx, scenario.deployment.panel.dy"
)
# the same fields as record paths, which the library names
MOMENT_OVERFLOW_PATHS = (
    "budget.gt",
    "budget.gr",
    *(f"panels[0].panel.{key}" for key in ("center", "mx", "my", "dx", "dy")),
    "bs",
    "user",
)
# the fields that set fig2's element cosines
GRID_AND_ENDPOINTS = (
    "scenario.deployment.panel.mx, scenario.deployment.panel.my, "
    "scenario.deployment.panel.dx, scenario.deployment.panel.dy, scenario.bs, scenario.user"
)


def doppler_triples(doppler=None, doppler0=None) -> dict:
    """Edits that spell fig2's rho and rho0 as Doppler triples; a given
    mapping replaces that triple."""
    return {
        "channel.rho": None,
        "channel.rho0": None,
        "channel.doppler": doppler or {"v_mps": 1.0, "ts_s": 1.0e-3},
        "channel.doppler0": doppler0 or {"fc_hz": 5.0e9, "v_mps": 3.0, "ts_s": 2.0e-3},
    }


def edited_preset(name, edits) -> dict:
    """Preset `name`'s scenario file as a mapping with edits applied; edits
    maps a dotted scenario-file field (a number indexes a list) to its new
    value (None deletes it)."""
    data = scenario_to_dict(preset(name)[0])
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        target = functools.reduce(
            lambda node, k: node[int(k) if isinstance(node, list) else k], parents, data
        )
        if value is None:
            del target[key]
        else:
            target[key] = value
    return data


def edited_preset_file(tmp_path, name, edits) -> str:
    """Write edited_preset(name, edits) to a file and return its path."""
    path = tmp_path / f"{name}_edited.yaml"
    path.write_text(yaml.safe_dump(edited_preset(name, edits)))
    return str(path)


def _single_edit_scan():
    """tools/single_edit_scan.py as a module: its leaf walk and values."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "single_edit_scan.py")
    spec = importlib.util.spec_from_file_location("single_edit_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCAN = _single_edit_scan()
SCAN_LEAVES = [
    (name, leaf)
    for name in ("fig2", "fig3")
    for leaf, _, _ in SCAN.numeric_leaves(scenario_to_dict(preset(name)[0]))
]


class TestFailureFields:
    @pytest.mark.parametrize("name, leaf", SCAN_LEAVES)
    def test_failure_names_the_edited_leaf(self, tmp_path, name, leaf):
        # the single-edit scan's edit at a seeded subset of its values,
        # loaded from a file and run under each mode in written_keys'
        # block: every validation failure names the leaf, or a section
        # that holds it, in its fields
        path = f"scenario.{leaf}"
        parts = re.split(r"(?=[.\[])", path)
        holders = {"".join(parts[:k]) for k in range(2, len(parts) + 1)}
        data = scenario_to_dict(preset(name)[0])
        node, key = next((n, k) for where, n, k in SCAN.numeric_leaves(data) if where == leaf)
        original = node[key]
        file = tmp_path / "edited.yaml"
        for value in random.Random(path).sample(SCAN.VALUES, 6):
            node[key] = int(value) if isinstance(original, int) and value.is_integer() else value
            file.write_text(yaml.safe_dump(data))
            for mode in ("auto", "near", "far"):
                try:
                    scenario = load_scenario(str(file))
                    with warnings.catch_warnings(), written_keys(str(file)):
                        warnings.simplefilter("ignore", UserWarning)  # forced far field
                        run_scenario(dataclasses.replace(scenario, mode=mode))
                except ValidationFailure as exc:
                    assert holders & set(exc.fields), (value, mode, str(exc))


def scenario_leaves(node, path=()):
    """Key paths of every leaf of a scenario dict but mode."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from scenario_leaves(value, path + (key,))
        elif key != "mode":
            yield path + (key,)


PAIR_BASES = {name: scenario_to_dict(preset(name)[0]) for name in ("fig2", "fig3")}
EXTREMES = (0, -1, 1e-300, 1e300)
VALUE_TOKENS = ("0", "-1", "1e-300", "1e300", "0.5", "0.9", "2", "nan", "-inf", "", " ", "x", "0x10")


@st.composite
def cli_cases(draw):
    """(scenario dict, argv after the scenario path): a preset with two of
    its numeric leaves set to extreme values, then analyze or sweep with
    drawn --var, --values and --mode strings."""
    name = draw(st.sampled_from(sorted(PAIR_BASES)))
    data = copy.deepcopy(PAIR_BASES[name])
    numeric = [
        leaf
        for leaf in scenario_leaves(data)
        if isinstance(functools.reduce(lambda n, k: n[k], leaf, data), (int, float))
    ]
    for leaf in draw(st.lists(st.sampled_from(numeric), min_size=2, max_size=2, unique=True)):
        value = draw(st.sampled_from(EXTREMES))
        functools.reduce(lambda n, k: n[k], leaf[:-1], data)[leaf[-1]] = value
    mode = draw(st.sampled_from((None, None, None, "auto", "near", "far", "", "NEAR")))
    argv = ["--no-mc"] + ([] if mode is None else ["--mode", mode])
    if draw(st.booleans()):
        return data, ["analyze", *argv]
    variable = draw(st.sampled_from(SWEEP_VARIABLES * 2 + ("", "p", "rho,rho0", "My ")))
    values = ",".join(draw(st.lists(st.sampled_from(VALUE_TOKENS), min_size=1, max_size=3)))
    return data, ["sweep", "--var", variable, f"--values={values}", *argv]


def run_cli(*argv):
    """(exit code, stdout, stderr) of `riscap argv` run in this process:
    argparse's SystemExit becomes its code, and any other exception
    escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCli:
    # Each subcommand runs once as `python -m riscap.cli`, the process a
    # user starts; every other case runs the CLI in process through run_cli.
    def scenario_file(self, tmp_path):
        s, _ = preset("fig2")
        path = tmp_path / "fig2.yaml"
        path.write_text(dump_scenario(s))
        return str(path)

    def test_analyze_no_mc(self, tmp_path):
        out = self.python("-m", "riscap.cli", "analyze", self.scenario_file(tmp_path), "--no-mc")
        assert "ec_approx_bit_s_hz:" in out
        assert "mode: near" in out
        assert "ec_mc_bit_s_hz" not in out

    def test_analyze_with_mc(self, tmp_path):
        code, out, err = run_cli(
            "analyze", self.scenario_file(tmp_path), "--trials", "500", "--seed", "4"
        )
        assert code == 0, err
        assert "ec_mc_bit_s_hz:" in out

    def test_mc_subcommand(self, tmp_path):
        out = self.python(
            "-m", "riscap.cli", "mc", self.scenario_file(tmp_path), "--trials", "500", "--seed", "4"
        )
        assert "ec_mc_bit_s_hz:" in out
        assert "seed: 4" in out

    def test_sweep_writes_csv(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        self.python(
            "-m",
            "riscap.cli",
            "sweep",
            self.scenario_file(tmp_path),
            "--var",
            "P",
            "--values=-10,0",  # '=' form so argparse accepts the leading '-'
            "--no-mc",
            "--out",
            str(csv_path),
        )
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("sweep_value,")

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        data = yaml.safe_load(dump_scenario(preset("fig2")[0]))
        del data["budget"]["xi"]
        bad.write_text(yaml.safe_dump(data))
        for argv in (["analyze", str(bad), "--no-mc"], ["mc", str(bad)]):
            code, _, err = run_cli(*argv)
            assert code == 2, err
            assert "scenario.budget.xi" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mc", "{s}", "--trials", "0"], "--trials"),
            (["mc", "{s}", "--seed", "-1"], "--seed"),
            (["analyze", "{s}", "--seed", str(2**64)], "--seed"),
            (["sweep", "{s}", "--var", "P", "--values", "0", "--trials", "-5"], "--trials"),
            (["sweep", "{s}", "--var", "P", "--values", "0", "--trials", "0"], "--trials"),
            (["preset", "fig2", "--workers", "0"], "--workers"),
            (["analyze", "{s}", "--no-mc", "--trials", "0"], "--trials"),
            (["sweep", "{s}", "--var", "Q", "--values", "0", "--no-mc"], "--var"),
            (["sweep", "{s}", "--var", "P", "--values=abc", "--no-mc"], "--values"),
            (["sweep", "{s}", "--var", "P", "--values=nan", "--no-mc"], "--values"),
        ],
    )
    def test_bad_mc_flag_exit_code(self, tmp_path, argv, flag):
        # the library checks the value, and its failure names the flag in
        # one line, as any failure does, and without argparse's usage block
        path = self.scenario_file(tmp_path)
        code, out, err = run_cli(*(arg.replace("{s}", path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, err

    def test_non_integer_flag_exit_code(self, tmp_path):
        code, _, err = run_cli("analyze", self.scenario_file(tmp_path), "--trials", "abc")
        assert code == 2
        assert "argument --trials: invalid int value: 'abc'" in err

    @pytest.mark.parametrize(
        "variable, value",
        [
            *(
                (variable, value)
                for variable in ("P", "K0", "d1", "cell_size", "My")
                for value in ("nan", "inf", "-inf")
            ),
            # finite, but its int is 301 digits: the label gives the value
            ("My", "-1e300"),
        ],
    )
    def test_non_finite_sweep_value_exit_code(self, tmp_path, variable, value):
        path = self.scenario_file(tmp_path)
        code, _, err = run_cli("sweep", path, "--var", variable, f"--values={value}", "--no-mc")
        assert code == 2
        # SweepSpec rejects a non-finite value; a record, a finite one
        label = f"sweep {variable}={float(value)}: " if math.isfinite(float(value)) else ""
        assert f"error: {label}--values: " in err

    @pytest.mark.parametrize(
        "argv, edits, field",
        [
            (["sweep", "--var", "My", "--values=1e300"], {}, "sweep My="),
            (["sweep", "--var", "P", "--values=1e300"], {}, "sweep P="),
            (["sweep", "--var", "K0", "--values=1e300"], {}, "sweep K0="),
            (["sweep", "--var", "cell_size", "--values=1e300"], {}, "sweep cell_size="),
            (["sweep", "--var", "d1", "--values=1e300"], {}, "sweep d1="),
            (["analyze"], {"budget.p_w": None, "budget.p_dbm": 1e300}, "scenario.budget.p_dbm"),
            (["analyze"], {"channel.k0": None, "channel.k0_db": 1e300}, "scenario.channel.k0_db"),
            (["analyze"], {"deployment.panel.mx": 10**12}, "scenario.deployment.panel"),
            (
                ["analyze"],
                {"deployment.panel.mx": 10**5, "deployment.panel.my": 10**5},
                "scenario.deployment.panel",
            ),
            # loss factors that leave float range while a scenario is evaluated
            (["sweep", "--var", "d1", "--values=1e100"], {}, "d1="),
            # the file is fine there: the swept value moves the panel out of range
            (["sweep", "--var", "d1", "--values=1e100"], {}, "sweep d1=1e+100: panel 0: far-field"),
            (
                ["sweep", "--var", "cell_size", "--values=1e8"],
                {},
                "sweep cell_size=100000000.0: panel 0: endpoint-side",
            ),
            (["analyze"], {"budget.eta_db": 1e300}, "eta_db="),
            (["analyze"], {"budget.eta_db": -1e300}, "eta_db="),
            (["analyze"], {"budget.xi": 1e300}, "xi="),
            (["analyze"], {"bs.x": 1e300}, "bs-user"),
            (["analyze"], {"bs.y": -1e300}, "bs-user"),
            (["analyze"], {"user.x": -1e300}, "bs-user"),
            (["analyze"], {"user.y": 1e300}, "bs-user"),
            (["analyze"], {"deployment.panel.center.x": 1e300}, "panel 0"),
            (["analyze"], {"deployment.panel.center.y": 1e300}, "panel 0"),
            (["analyze"], {"budget.gt": 1e-320}, "scenario.budget.gt, "),
            # dB/dBm fields that underflow to 0 in linear units
            (["analyze"], {"budget.p_w": None, "budget.p_dbm": -1e300}, "scenario.budget.p_dbm"),
            (
                ["analyze"],
                {"budget.noise_w": None, "budget.noise_dbm": -1e300},
                "scenario.budget.noise_dbm",
            ),
            (["analyze"], {"budget.gt": None, "budget.gt_db": -1e300}, "scenario.budget.gt_db"),
            (["analyze"], {"budget.gr": None, "budget.gr_db": -1e300}, "scenario.budget.gr_db"),
            # Doppler triples the aging model cannot take: a negative speed
            # or symbol time, a J0 argument out of float range, and one
            # past J0's first zero
            (
                ["analyze"],
                doppler_triples(doppler={"v_mps": -1, "ts_s": 1.0e-3}),
                "scenario.channel.doppler:",
            ),
            (
                ["analyze"],
                doppler_triples(doppler0={"v_mps": 1.0, "ts_s": -1}),
                "scenario.channel.doppler0:",
            ),
            (
                ["analyze"],
                doppler_triples(doppler={"fc_hz": 1e300, "v_mps": 1e10, "ts_s": 1e10}),
                "scenario.channel.doppler:",
            ),
            (
                ["analyze"],
                doppler_triples(doppler={"v_mps": 30.0, "ts_s": 1.0e-3}),
                "scenario.channel.doppler:",
            ),
            (
                ["analyze"],
                doppler_triples(doppler0={"v_mps": 30.0, "ts_s": 1.0e-3}),
                "scenario.channel.doppler0:",
            ),
        ],
    )
    def test_extreme_finite_input_exit_code(self, tmp_path, argv, edits, field):
        path = edited_preset_file(tmp_path, "fig2", edits)
        code, _, err = run_cli(argv[0], path, *argv[1:], "--no-mc")
        assert code == 2, err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "leaf, value, field",
        [
            *(
                (f"deployment.panel.{key}", value, f"scenario.deployment.panel.{key}:")
                for key in ("mx", "my")
                for value in (0, -1)
            ),
            *(
                (f"deployment.panel.{key}", value, f"scenario.deployment.panel.{key}:")
                for key in ("dx", "dy")
                for value in (0, -1, 1e-300, -1e-300, 1e300, -1e300)
            ),
            *(
                (f"deployment.panel.{key}", 10**8, f"scenario.deployment.panel.{key}")
                for key in ("mx", "my")
            ),
            *(
                (f"{end}.{axis}", value, f"scenario.{end}")
                for end in ("bs", "user")
                for axis in ("x", "y", "z")
                for value in (1e300, -1e300)
            ),
            *(
                (f"budget.{key}", 1e-300, f"scenario.budget.{key}")
                for key in ("gt", "gr")
            ),
            # element sizes that RisPanel takes but the reference constant
            # 16 pi^2 / (gt gr dx^2 dy^2) cannot: a subnormal square, or
            # gt * gr * dx^2 past float range
            *(
                (f"deployment.panel.{key}", value, f"scenario.deployment.panel.{key}")
                for key, value in (("dx", 1e-154), ("dy", 1e-154), ("dx", 1e154))
            ),
            *(
                (f"deployment.panel.center.{axis}", value, "scenario.deployment.panel.center")
                for axis, value in (("x", 1e300), ("y", 1e300), ("z", -1e300))
            ),
            *(
                (
                    f"deployment.panels.{i}.center.{axis}",
                    value,
                    f"scenario.deployment.panels[{i}].center",
                )
                for i in (0, 1)
                for axis, value in (("x", 1e300), ("y", 1e300), ("z", -1e300))
            ),
            # a panel plane raised above the endpoints names the centre
            *(
                ("deployment.panel.center.z", value, "scenario.deployment.panel.center.z")
                for value in (1e300, 1e8)
            ),
            *(
                (
                    f"deployment.panels.{i}.center.z",
                    value,
                    f"scenario.deployment.panels[{i}].center.z",
                )
                for i in (0, 1)
                for value in (1e300, 1e8)
            ),
            # elements so wide that an endpoint sees some from behind name
            # the element grid and the endpoints; rows so far apart that
            # every endpoint cosine is a tiny positive number underflow the
            # pattern, which names the gains first
            ("deployment.panel.dx", 1e8, GRID_AND_ENDPOINTS),
            (
                "deployment.panel.dy",
                1e8,
                f"scenario.budget.gt, scenario.budget.gr, {GRID_AND_ENDPOINTS}: "
                "radiation pattern underflows to 0 at 576 element(s)",
            ),
        ],
    )
    def test_bad_leaf_is_named(self, tmp_path, leaf, value, field):
        # a panel field out of range, or a field that takes a loss factor
        # (direct link, reference constant, panel) out of float range,
        # names the edited field; panels[i] leaves edit the two-panel
        # fig3, the others fig2
        name = "fig3" if leaf.startswith("deployment.panels.") else "fig2"
        path = edited_preset_file(tmp_path, name, {leaf: value})
        code, _, err = run_cli("analyze", path, "--no-mc")
        assert code == 2
        assert field in err

    @pytest.mark.parametrize(
        "name, edits, argv, code, expected",
        [
            # fully outdated CSI: Z is identically 0, so every capacity is 0
            (
                "fig2",
                OUTDATED,
                ["analyze", "--no-mc"],
                0,
                ["ec_approx_bit_s_hz: 0\n", "ec_upper_bit_s_hz: 0\n", "ec_lower_approx_bit_s_hz: 0\n"],
            ),
            ("fig2", OUTDATED, ["sweep", "--var", "rho", "--values=0,0.5", "--no-mc"], 0, ["\n0,0,0,0,,,"]),
            ("fig2", OUTDATED, ["sweep", "--var", "rho0", "--values=0", "--trials", "100"], 0, ["\n0,0,0,0,0,0,"]),
            # endpoints at one point; an effective SNR that underflows
            ("fig2", {"bs.x": 0, "user.x": 0}, ["analyze", "--no-mc"], 2, ["scenario.bs", "scenario.user"]),
            (
                "fig2",
                {"budget.p_w": 1e-300, "budget.noise_w": 1e300},
                ["analyze", "--no-mc"],
                2,
                ["scenario.budget.p_w", "scenario.budget.noise_w"],
            ),
            # rejected for leaving float range, without a numpy warning on
            # the way: the user-to-element distances overflow; the
            # outdated-CSI leakage overflows (gt scales it, noise_w does not)
            (
                "fig2",
                {"user.x": 1e300, "budget.xi": 1e-300},
                ["analyze", "--no-mc"],
                2,
                ["panel 0: near-field loss"],
            ),
            (
                "fig3",
                {"budget.p_w": 1e300, "budget.gt": 1e300},
                ["analyze", "--no-mc"],
                2,
                ["scenario.budget.p_w, scenario.budget.gt, scenario.budget.gr", "leakage"],
            ),
            # a loss factor whose inverse overflows names what sets it
            *(
                (
                    "fig2",
                    {**TINY_LINK, "mode": mode},
                    ["analyze", "--no-mc"],
                    2,
                    [
                        f"panel 0: {mode}-field loss",
                        "scenario.deployment.panel.center, scenario.deployment.panel.dx, "
                        "scenario.deployment.panel.dy, scenario.budget.gt, scenario.budget.gr, "
                        "scenario.bs, scenario.user",
                    ],
                )
                for mode in ("near", "far")
            ),
            (
                "fig2",
                {"budget.eta_db": 3200},
                ["analyze", "--no-mc"],
                2,
                ["scenario.budget.eta_db", "direct link at eta_db=3200"],
            ),
            # gain exponents that underflow the pattern name the gains, then
            # the element grid and endpoints that set the cosines; a pattern
            # with a non-positive cosine names the panel
            (
                "fig2",
                {"budget.gt": 1e6},
                ["analyze", "--no-mc"],
                2,
                [f"panel 0: scenario.budget.gt, scenario.budget.gr, {GRID_AND_ENDPOINTS}: radiation pattern underflows"],
            ),
            (
                "fig2",
                {"deployment.panel.dx": 1e8},
                ["analyze", "--no-mc"],
                2,
                ["panel 0: endpoint-side pattern cosines must be positive"],
            ),
            # a far-field elevation cosine that underflows to 0 (d1 = inf)
            # is set by the panel centre and the endpoints, not the grid
            (
                "fig2",
                {
                    "bs.x": 1.7e308,
                    "user.x": 1.7e308,
                    "user.y": 1,
                    "deployment.panel.center.x": -1.7e308,
                    "mode": "far",
                },
                ["analyze", "--no-mc"],
                2,
                [
                    "panel 0: panel elevation cosine is not positive, set by "
                    "scenario.deployment.panel.center, scenario.bs, scenario.user\n"
                ],
            ),
            # an endpoint at or below a panel's plane names its height and
            # the panel's centre
            (
                "fig3",
                {"deployment.panels.1.center.z": 10.5},
                ["analyze", "--no-mc"],
                2,
                [
                    "error: scenario.bs.z, scenario.deployment.panels[1].center.z: "
                    "endpoint z=10.0 must lie strictly above the panel plane z=10.5\n"
                ],
            ),
            (
                "fig3",
                {"user.z": 9.0},
                ["analyze", "--no-mc"],
                2,
                [
                    "error: scenario.user.z, scenario.deployment.panels[0].center.z: "
                    "endpoint z=9.0 must lie strictly above the panel plane z=9.5\n"
                ],
            ),
            (
                "fig2",
                {"user.z": 9.0},
                ["analyze", "--no-mc"],
                2,
                [
                    "error: scenario.user.z, scenario.deployment.panel.center.z: "
                    "endpoint z=9.0 must lie strictly above the panel plane z=9.5\n"
                ],
            ),
            # rows so far apart that most elements' squared distances
            # overflow: their cosines are nan, which is no pattern fault,
            # and their losses leave float range
            (
                "fig2",
                {"deployment.panel.dy": 1e154},
                ["analyze", "--no-mc"],
                2,
                [
                    "error: panel 0: near-field loss at d1=0.707107 m, d2=99.5013 m, set by "
                    "scenario.deployment.panel.center, scenario.deployment.panel.dx, "
                    "scenario.deployment.panel.dy, scenario.budget.gt, scenario.budget.gr, "
                    "scenario.bs, scenario.user: loss factor or its inverse is out of float range\n"
                ],
            ),
            # the SNR -> 0 limit of the lower bound; a variance whose
            # gamma_teff^2 and b^4 both underflow, yet which is finite
            ("fig2", {"budget.p_w": 1e-300}, ["analyze", "--no-mc"], 0, ["ec_lower_approx_bit_s_hz: 0\n"]),
            (
                "fig3",
                {"budget.p_w": 1e-300, "budget.gt": 1e300},
                ["analyze", "--no-mc"],
                0,
                ["snr_variance: 1180.38122\n"],
            ),
            # a second moment that overflows to NaN names the gains and the panel
            ("fig2", MOMENT_OVERFLOW, ["analyze", "--no-mc"], 2, [MOMENT_OVERFLOW_FIELDS]),
            # run-time faults of a file in dB keys name the keys it wrote
            (
                "fig3",
                {"budget.p_w": None, "budget.p_dbm": 3000, "budget.gt": None, "budget.gt_db": 3000},
                ["analyze", "--no-mc"],
                2,
                ["error: scenario.budget.p_dbm, scenario.budget.gt_db, scenario.budget.gr: ", "leakage"],
            ),
            (
                "fig2",
                {"budget.gt": None, "budget.gt_db": 1540},
                ["analyze", "--no-mc"],
                2,
                ["error: panel 0: scenario.budget.gt_db, scenario.budget.gr, ", "pattern underflows"],
            ),
            # a swept value that takes the reference constant out of float
            # range names --values in place of the element size it set
            (
                "fig5",
                {},
                ["sweep", "--var", "cell_size", "--values=0.01,3e-78", "--no-mc"],
                2,
                [
                    "error: sweep cell_size=3e-78: scenario.budget.gt, scenario.budget.gr, "
                    "--values: reference constant at linear gains 100 and 1, 3e-78 x 3e-78 m"
                ],
            ),
        ],
    )
    def test_degenerate_input_exit_code(self, tmp_path, name, edits, argv, code, expected):
        path = edited_preset_file(tmp_path, name, edits)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, out, err = run_cli(argv[0], path, *argv[1:])
        assert status == code
        for text in expected:
            assert text in (out if code == 0 else err)
        if code == 0:
            assert "nan" not in out
        # numpy reports arithmetic that leaves float range as a warning;
        # the report check handles it, so none reaches the user
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_rayleigh_k_from_underflowing_db_is_valid(self, tmp_path):
        data = yaml.safe_load(dump_scenario(preset("fig2")[0]))
        del data["channel"]["k0"]
        data["channel"]["k0_db"] = -1e300
        path = tmp_path / "rayleigh.yaml"
        path.write_text(yaml.safe_dump(data))
        code, _, err = run_cli("analyze", str(path), "--no-mc")
        assert code == 0, err

    @pytest.mark.parametrize(
        "name, edits, leaves",
        [
            pytest.param("fig2", {}, 26, id="fig2"),
            pytest.param("fig3", {}, 36, id="fig3"),
            pytest.param("fig2", doppler_triples(), 29, id="fig2-doppler"),
        ],
    )
    def test_no_scenario_leaf_ends_in_traceback(self, tmp_path, name, edits, leaves):
        # every leaf of the scenario file but mode at every extreme value:
        # the CLI returns 0, 2 or 3 and no exception escapes it
        base = edited_preset(name, edits)
        path = tmp_path / "leaf.yaml"
        escaped = []
        cases = 0
        for leaf in scenario_leaves(base):
            for value in (0, -1, 1e-300, -1e-300, 1e300, -1e300, 10**8):
                data = copy.deepcopy(base)
                functools.reduce(lambda node, key: node[key], leaf[:-1], data)[leaf[-1]] = value
                path.write_text(yaml.safe_dump(data))
                cases += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code, _, _ = run_cli("analyze", str(path), "--no-mc")
                except Exception as exc:
                    escaped.append((leaf, value, repr(exc)))
                    continue
                if code not in (0, 2, 3):
                    escaped.append((leaf, value, f"exit code {code}"))
        assert cases == 7 * leaves
        assert escaped == []

    @given(cli_cases())
    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_leaf_pairs_and_flag_strings_exit_cleanly(self, tmp_path, case):
        # two extreme leaves at once, plus free-form flag strings: the CLI
        # exits 0, 2 or 3, nothing escapes it, and success prints no nan
        data, argv = case
        path = tmp_path / "pair.yaml"
        path.write_text(yaml.safe_dump(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(argv[0], str(path), *argv[1:])
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            assert "nan" not in out, (argv, out)

    def test_missing_file_exit_code(self):
        code, _, err = run_cli("analyze", "does-not-exist.yaml")
        assert code == 2, err

    @pytest.mark.parametrize(
        "out",
        [
            ".",
            "missing/dir/x.csv",
            pytest.param(
                "/dev/full",
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["preset", "sweep"])
    def test_unwritable_out_exit_code(self, tmp_path, command, out):
        # a directory, a file in a directory that does not exist, or a
        # device that opens (the check before the run passes) but refuses
        # the write; an absolute out replaces tmp_path
        target = str(tmp_path / out)
        if command == "preset":
            argv = ["preset", "fig2", "--no-mc", "--out", target]
        else:
            argv = ["sweep", self.scenario_file(tmp_path), "--var", "P", "--values=0", "--no-mc"]
            argv += ["--out", target]
        code, _, err = run_cli(*argv)
        assert code == 2
        assert f"error: --out: cannot write {target}: " in err

    @pytest.mark.parametrize("out", [".", "missing/dir/x.csv"])
    def test_unwritable_out_fails_before_monte_carlo(self, tmp_path, monkeypatch, out):
        def no_block(*args):
            raise AssertionError("a Monte Carlo block ran")

        monkeypatch.setattr(montecarlo, "_block_envelope_sums", no_block)
        target = str(tmp_path / out)
        code, _, err = run_cli("preset", "fig2", "--trials", "20000", "--out", target)
        assert code == 2
        assert f"error: --out: cannot write {target}: " in err

    @pytest.mark.parametrize(
        "argv, code, reads",
        [
            (["analyze", "--no-mc"], 0, 1),
            (["sweep", "--var", "P", "--values=0", "--no-mc"], 0, 1),
            (["mc", "--trials", "64"], 0, 1),
            # a failure: written_keys reads the file again to rename its fields
            (["sweep", "--var", "P", "--values=4000", "--no-mc"], 2, 2),
        ],
    )
    def test_file_is_read_through_cli_load_scenario(
        self, tmp_path, monkeypatch, argv, code, reads
    ):
        # the CLI parses a file once, through its own load_scenario name,
        # and written_keys reads it again only to rename a failure
        loads, read, seen = [], scenario_module._read, []
        monkeypatch.setattr(scenario_module, "_read", lambda path: seen.append(path) or read(path))
        monkeypatch.setattr(cli, "load_scenario", lambda path: loads.append(path) or load_scenario(path))
        path = self.scenario_file(tmp_path)
        assert run_cli(argv[0], path, *argv[1:])[0] == code
        assert (loads, seen) == ([path], [path] * reads)

    def test_failed_run_leaves_no_out_file(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for target in (new, old):
            argv = ["sweep", scenario, "--var", "rho", "--values=0.5,2", "--no-mc"]
            code, _, err = run_cli(*argv, "--out", str(target))
            assert code == 2
            assert "sweep rho=2.0: --values: correlation must lie in [0, 1]" in err
        assert not new.exists()
        assert old.read_text() == "kept\n"

    def test_preset_runs(self, tmp_path):
        csv_path = tmp_path / "fig7.csv"
        self.python("-m", "riscap.cli", "preset", "fig7", "--no-mc", "--out", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # comment + header + three shapes

    def test_preset_fig8_appends_distributed_cases(self, tmp_path):
        csv_path = tmp_path / "fig8.csv"
        code, _, err = run_cli("preset", "fig8", "--no-mc", "--out", str(csv_path))
        assert code == 0, err
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
        _, sweep = preset("fig8")
        assert len(rows) == len(sweep.values) + 3
        assert [r[0] for r in rows[-3:]] == ["1", "2", "3"]

    def test_preset_fig4_emits_both_modes(self, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        # its far rows force the far-field formula inside the boundary
        with pytest.warns(UserWarning, match="boundary"):
            code, _, err = run_cli("preset", "fig4", "--no-mc", "--out", str(csv_path))
        assert code == 0, err
        lines = csv_path.read_text().splitlines()[2:]
        modes = [line.split(",")[7] for line in lines]
        assert "near" in modes and "far" in modes

    def test_forced_far_warning_is_one_stderr_line(self):
        # the process shows the warning without the source path and line;
        # in process it stays a UserWarning, and main leaves the
        # formatter as it found it
        shown = warnings.formatwarning
        with pytest.warns(UserWarning, match="boundary"):
            run_cli("preset", "fig4", "--no-mc")
        assert warnings.formatwarning is shown
        proc = subprocess.run(
            [sys.executable, "-m", "riscap.cli", "preset", "fig4", "--no-mc"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: far-field formula applied to panel(s) [0] inside the near/far boundary; "
            "results are approximate there\n"
        )

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureFailure("synthetic")

        monkeypatch.setattr(cli, "run_scenario", boom)
        code, _, _ = run_cli("analyze", self.scenario_file(tmp_path), "--no-mc")
        assert code == 3

    def test_quadrature_failure_exit_code(self, tmp_path, monkeypatch):
        # three subintervals are too few for either quadrature route
        monkeypatch.setattr(capacity, "QUAD_LIMIT", 3)
        code, _, err = run_cli("analyze", self.scenario_file(tmp_path), "--no-mc")
        assert code == 3
        assert "compact route QUADPACK ier=1" in err
        assert "log-scale retry QUADPACK ier=1" in err

    def test_monte_carlo_block_beyond_memory_exit_code(self, tmp_path, monkeypatch):
        # fig2's block of 2048 trials needs 16 B x 2048 x M: one byte more
        # than the memory reader reports, and nothing is drawn
        m = preset("fig2")[0].panels[0].panel.element_count
        monkeypatch.setattr(montecarlo, "physical_memory", lambda: 16 * 2048 * m - 1)
        monkeypatch.setattr(montecarlo, "sample_rician_envelope", None)
        code, out, err = run_cli("analyze", self.scenario_file(tmp_path), "--trials", "4096")
        assert (code, out) == (2, "")
        assert f"error: --trials: a Monte Carlo block of 2048 trials needs two 2048 x {m} float64" in err
        assert f"for a panel of {m} elements" in err

    def test_monte_carlo_blocks_run_at_once_beyond_memory_exit_code(self, tmp_path, monkeypatch):
        # 4096 trials are two blocks of 2048, and two workers hold both at
        # once: one byte short of that refuses the run before any draw,
        # while one worker, holding one block, still runs
        m = preset("fig2")[0].panels[0].panel.element_count
        monkeypatch.setattr(montecarlo, "physical_memory", lambda: 2 * 16 * 2048 * m - 1)
        path = self.scenario_file(tmp_path)
        with monkeypatch.context() as patched:
            patched.setattr(montecarlo, "sample_rician_envelope", None)
            code, out, err = run_cli("analyze", path, "--trials", "4096", "--workers", "2")
        assert (code, out) == (2, "")
        assert (
            f"error: --trials: 2 Monte Carlo blocks of 2048 trials, run at once on 2 workers, need two "
            f"2048 x {m} float64 arrays each"
        ) in err
        code, out, err = run_cli("analyze", path, "--trials", "4096", "--workers", "1")
        assert code == 0, err
        assert "ec_mc_bit_s_hz: " in out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memory_error_in_a_block_exit_code(self, tmp_path, monkeypatch, workers):
        def sampler(*args, **kwargs):
            raise MemoryError

        m = preset("fig2")[0].panels[0].panel.element_count
        monkeypatch.setattr(montecarlo, "sample_rician_envelope", sampler)
        argv = ("analyze", self.scenario_file(tmp_path), "--trials", "3000", "--workers", workers)
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert (
            f"error: --trials: allocating a Monte Carlo block of 2048 trials for a panel of {m} elements "
            f"with {workers} worker(s) failed; use fewer trials per block or fewer workers"
        ) in err

    def test_successive_main_calls_share_no_state(self, tmp_path):
        # main reuses one parser per process; a flag of one call must not
        # reach the next
        path = self.scenario_file(tmp_path)
        assert cli.build_parser() is cli.build_parser()
        with warnings.catch_warnings():
            # fig2 lies inside the near/far boundary: forcing far warns
            warnings.simplefilter("ignore")
            code, forced, _ = run_cli("analyze", path, "--mode", "far", "--no-mc")
        assert code == 0
        code, default, _ = run_cli("analyze", path, "--trials", "200")
        assert code == 0
        assert "mode: far" in forced and "ec_mc_bit_s_hz" not in forced
        assert "mode: near" in default and "ec_mc_bit_s_hz" in default

    @staticmethod
    def python(*argv):
        """Stripped stdout of `python argv` in a fresh interpreter, which
        must exit 0."""
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_out_scipy_integrate(self):
        # quadrature is in-tree; scipy.integrate would pull in optimize,
        # sparse and linalg on every CLI call
        code = (
            "import sys, riscap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'sparse'], ['scipy', 'linalg'])))"
        )
        assert self.python("-c", code) == "[]"

    def test_cli_import_leaves_out_scipy_special_init(self):
        # the special functions come from scipy.special's compiled ufuncs;
        # the package __init__ would load its array-API layer, which pulls
        # in numpy.testing, numpy.f2py and numpy.ma on every CLI call
        code = (
            "import sys, riscap.cli; "
            "print(sorted(m for m in ('scipy._lib._array_api', 'numpy.testing', 'numpy.f2py', "
            "'numpy.ma') if m in sys.modules))"
        )
        assert self.python("-c", code) == "[]"

    def test_cli_import_leaves_out_the_larger_special_extensions(self):
        # scipy.special._special_ufuncs defines all four functions;
        # scipy.special._ufuncs would add three more extensions and
        # scipy's bundled OpenBLAS (~3 MB resident) to every CLI call
        ufuncs = pytest.importorskip("scipy.special._special_ufuncs")
        if not all(hasattr(ufuncs, name) for name in special.NAMES):
            pytest.skip("this scipy's _special_ufuncs lacks riscap's functions")
        code = (
            "import sys, riscap.cli; "
            "print(sorted(m for m in ('scipy.special._ufuncs', 'scipy.special._ufuncs_cxx', "
            "'scipy.special._gufuncs', 'scipy.special._ellip_harm_2') if m in sys.modules))"
        )
        assert self.python("-c", code) == "[]"

    def test_cli_import_leaves_out_secrets_and_the_legacy_rng(self):
        # Generator and Philox come from numpy.random's two extensions; the
        # package __init__ would add mtrand, MT19937 and SFC64, and secrets
        # would add hashlib and OpenSSL, to every CLI call
        names = (
            "secrets", "hashlib", "_hashlib", "numpy.random", "numpy.random.mtrand",
            "numpy.random._mt19937", "scipy",
        )
        code = (
            f"import sys, numpy; names = [m for m in {names!r} if m not in sys.modules]; "
            "import riscap.cli; print(sorted(m for m in names if m in sys.modules))"
        )
        assert self.python("-c", code) == "[]"

    def test_bare_rng_draws_as_numpy_random(self):
        # the very classes numpy.random exports; secrets and unseeded
        # generators are untouched by the stand-in
        code = (
            "import sys\n"
            "from riscap import montecarlo\n"
            "import numpy as np\n"
            "assert montecarlo.Generator is np.random.Generator\n"
            "assert montecarlo.Philox is np.random.Philox\n"
            "for s, i in ((0, 0), (5, 3), (2**64 - 1, 7)):\n"
            "    ours = montecarlo._block_rng(s, i).standard_normal(5)\n"
            "    key = np.array([s, i], dtype=np.uint64)\n"
            "    theirs = np.random.Generator(np.random.Philox(key=key)).standard_normal(5)\n"
            "    assert (ours == theirs).all(), (s, i)\n"
            "import secrets\n"
            "assert secrets.__file__ and len(secrets.token_hex(8)) == 16\n"
            "assert np.random.default_rng().random() != np.random.default_rng().random()\n"
            "print('ok')"
        )
        assert self.python("-c", code) == "ok"

    def test_numpy_random_imported_first_is_used(self):
        code = (
            "import numpy.random, sys\n"
            "package = sys.modules['numpy.random']\n"
            "from riscap import montecarlo\n"
            "assert sys.modules['numpy.random'] is package\n"
            "assert montecarlo.Generator is package.Generator\n"
            "assert montecarlo.Philox is package.Philox\n"
            "print('ok')"
        )
        assert self.python("-c", code) == "ok"

    def test_refused_bare_rng_falls_back_to_the_package(self):
        # as under another numpy layout: the bare import fails, and the
        # package's own import of the same extension still works
        code = (
            "import sys\n"
            "class RefuseUnderStub:\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        parent = sys.modules.get('numpy.random')\n"
            "        if name == 'numpy.random._generator' and not hasattr(parent, '__file__'):\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, RefuseUnderStub())\n"
            "from riscap import montecarlo\n"
            "import numpy as np\n"
            "assert 'numpy.random.mtrand' in sys.modules\n"
            "assert montecarlo.Generator is np.random.Generator\n"
            "print(montecarlo._block_rng(5, 3).standard_normal())"
        )
        expected = str(np.random.Generator(np.random.Philox(key=[5, 3])).standard_normal())
        assert self.python("-c", code) == expected

    def test_cli_runs_import_nothing(self, tmp_path):
        # every module a run needs is loaded with riscap.cli, so none is
        # loaded (and timed) inside the first run of a process
        code = (
            "import contextlib, io, sys, warnings\n"
            "import riscap.cli as cli\n"
            "loaded = set(sys.modules)\n"
            "for argv in (['preset', 'fig2', '--trials', '64', '--workers', '2'], "
            "['preset', 'fig4', '--no-mc'], ['analyze', sys.argv[1], '--no-mc']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():\n"
            "        warnings.simplefilter('ignore')\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted(set(sys.modules) - loaded))"
        )
        assert self.python("-c", code, self.scenario_file(tmp_path)) == "[]"
