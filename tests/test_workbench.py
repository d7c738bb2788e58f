import contextlib
import copy
import dataclasses
import functools
import io
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riscap.errors import ScenarioError
from riscap.geometry import Point3, RisPanel
from riscap.pathloss import LinkBudget
from riscap.presets import PRESET_NAMES, preset, run_preset
from riscap.scenario import PanelSetup, Scenario, dump_scenario, scenario_to_dict

from oracles import brute_force_beta_inv, per_point_preset, per_point_sweep
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
        panel = s.panels[0].panel
        expected = brute_force_beta_inv(s.bs, s.user, panel, s.budget.gt, s.budget.gr)
        np.testing.assert_allclose(
            res.ensemble.panels[0].beta_inv, expected, rtol=1e-12, atol=0
        )

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

    def test_power_saturation(self):
        s, _ = preset("fig2")
        ec_mid = run_scenario(apply_sweep_value(s, "P", 60.0)).report.ec_approx
        ec_high = run_scenario(apply_sweep_value(s, "P", 90.0)).report.ec_approx
        assert ec_high - ec_mid < 1e-3


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

    def test_unknown_variable(self):
        with pytest.raises(ScenarioError):
            SweepSpec(variable="bananas", values=(1.0,))


class TestRunSettings:
    BAD = [
        ("trials", 0),
        ("trials", -5),
        ("seed", -1),
        ("seed", 2**64),
        ("workers", 0),
    ]

    @pytest.mark.parametrize("field, value", BAD)
    def test_run_scenario_rejects(self, field, value):
        s, _ = preset("fig2")
        with pytest.raises(ScenarioError, match=f"^{field}: "):
            run_scenario(s, **{field: value})

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
        from riscap import capacity
        from riscap.errors import QuadratureFailure

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


# fig2 with every aging correlation 0
OUTDATED = {"channel.rho": [0.0], "channel.rho0": 0.0}


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


class TestCli:
    def run_cli(self, *argv, expect=0):
        proc = subprocess.run(
            [sys.executable, "-m", "riscap.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expect, proc.stderr
        return proc

    def scenario_file(self, tmp_path):
        s, _ = preset("fig2")
        path = tmp_path / "fig2.yaml"
        path.write_text(dump_scenario(s))
        return str(path)

    def test_analyze_no_mc(self, tmp_path):
        out = self.run_cli("analyze", self.scenario_file(tmp_path), "--no-mc").stdout
        assert "ec_approx_bit_s_hz:" in out
        assert "mode: near" in out
        assert "ec_mc_bit_s_hz" not in out

    def test_analyze_with_mc(self, tmp_path):
        out = self.run_cli(
            "analyze", self.scenario_file(tmp_path), "--trials", "500", "--seed", "4"
        ).stdout
        assert "ec_mc_bit_s_hz:" in out

    def test_mc_subcommand(self, tmp_path):
        out = self.run_cli(
            "mc", self.scenario_file(tmp_path), "--trials", "500", "--seed", "4"
        ).stdout
        assert "ec_mc_bit_s_hz:" in out
        assert "seed: 4" in out

    def test_sweep_writes_csv(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        self.run_cli(
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
        proc = self.run_cli("analyze", str(bad), "--no-mc", expect=2)
        assert "scenario.budget.xi" in proc.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mc", "{s}", "--trials", "0"], "--trials"),
            (["mc", "{s}", "--seed", "-1"], "--seed"),
            (["analyze", "{s}", "--seed", str(2**64)], "--seed"),
            (["sweep", "{s}", "--var", "P", "--values", "0", "--trials", "-5"], "--trials"),
            (["sweep", "{s}", "--var", "P", "--values", "0", "--trials", "0"], "--trials"),
            (["preset", "fig2", "--workers", "0"], "--workers"),
        ],
    )
    def test_bad_mc_flag_exit_code(self, tmp_path, capsys, argv, flag):
        from riscap import cli

        path = self.scenario_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.replace("{s}", path) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("variable", ["P", "K0", "d1", "cell_size", "My"])
    def test_non_finite_sweep_value_exit_code(self, tmp_path, capsys, variable, value):
        from riscap import cli

        path = self.scenario_file(tmp_path)
        code = cli.main(["sweep", path, "--var", variable, f"--values={value}", "--no-mc"])
        assert code == 2
        assert "sweep.values" in capsys.readouterr().err

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
            (["analyze"], {"budget.gt": 1e-320}, "gt="),
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
        proc = self.run_cli(argv[0], path, *argv[1:], "--no-mc", expect=2)
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

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
            # elements so large that an endpoint sees some from behind name
            # the element grid and the endpoints
            *(
                (
                    f"deployment.panel.{key}",
                    1e8,
                    "scenario.deployment.panel.mx, scenario.deployment.panel.my, "
                    "scenario.deployment.panel.dx, scenario.deployment.panel.dy, "
                    "scenario.bs, scenario.user",
                )
                for key in ("dx", "dy")
            ),
        ],
    )
    def test_bad_leaf_is_named(self, tmp_path, capsys, leaf, value, field):
        # a panel field out of range, or a field that takes a loss factor
        # (direct link, reference constant, panel) out of float range,
        # names the edited field; panels[i] leaves edit the two-panel
        # fig3, the others fig2
        from riscap import cli

        name = "fig3" if leaf.startswith("deployment.panels.") else "fig2"
        path = edited_preset_file(tmp_path, name, {leaf: value})
        assert cli.main(["analyze", path, "--no-mc"]) == 2
        assert field in capsys.readouterr().err

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
            # gain exponents that underflow the pattern name the gains; a
            # pattern with a non-positive cosine names the panel
            (
                "fig2",
                {"budget.gt": 1e6},
                ["analyze", "--no-mc"],
                2,
                ["panel 0: scenario.budget.gt, scenario.budget.gr: radiation pattern underflows"],
            ),
            (
                "fig2",
                {"deployment.panel.dx": 1e8},
                ["analyze", "--no-mc"],
                2,
                ["panel 0: endpoint-side pattern cosines must be positive"],
            ),
            # an endpoint at or below a panel's plane names its field and the panel
            (
                "fig3",
                {"deployment.panels.1.center.z": 10.5},
                ["analyze", "--no-mc"],
                2,
                ["panel 1: scenario.bs.z=10.0 must lie strictly above the panel plane z=10.5"],
            ),
            (
                "fig2",
                {"user.z": 9.0},
                ["analyze", "--no-mc"],
                2,
                ["panel 0: scenario.user.z=9.0 must lie strictly above the panel plane z=9.5"],
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
        ],
    )
    def test_degenerate_input_exit_code(self, tmp_path, capsys, name, edits, argv, code, expected):
        from riscap import cli

        path = edited_preset_file(tmp_path, name, edits)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([argv[0], path, *argv[1:]]) == code
        out, err = capsys.readouterr()
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
        self.run_cli("analyze", str(path), "--no-mc")

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
        from riscap import cli

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
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                        io.StringIO()
                    ), warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code = cli.main(["analyze", str(path), "--no-mc"])
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
        from riscap import cli

        data, argv = case
        path = tmp_path / "pair.yaml"
        path.write_text(yaml.safe_dump(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main([argv[0], str(path), *argv[1:]])
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            assert "nan" not in out.getvalue(), (argv, out.getvalue())

    def test_missing_file_exit_code(self):
        self.run_cli("analyze", "does-not-exist.yaml", expect=2)

    def test_preset_runs(self, tmp_path):
        csv_path = tmp_path / "fig7.csv"
        self.run_cli("preset", "fig7", "--no-mc", "--out", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # comment + header + three shapes

    def test_preset_fig8_appends_distributed_cases(self, tmp_path):
        csv_path = tmp_path / "fig8.csv"
        self.run_cli("preset", "fig8", "--no-mc", "--out", str(csv_path))
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
        _, sweep = preset("fig8")
        assert len(rows) == len(sweep.values) + 3
        assert [r[0] for r in rows[-3:]] == ["1", "2", "3"]

    def test_preset_fig4_emits_both_modes(self, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        self.run_cli("preset", "fig4", "--no-mc", "--out", str(csv_path))
        lines = csv_path.read_text().splitlines()[2:]
        modes = [line.split(",")[7] for line in lines]
        assert "near" in modes and "far" in modes

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from riscap import cli
        from riscap.errors import QuadratureFailure

        def boom(*args, **kwargs):
            raise QuadratureFailure("synthetic")

        monkeypatch.setattr(cli, "run_scenario", boom)
        code = cli.main(["analyze", self.scenario_file(tmp_path), "--no-mc"])
        assert code == 3

    def test_quadrature_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from riscap import capacity, cli

        # three subintervals are too few for either quadrature route
        monkeypatch.setattr(capacity, "QUAD_LIMIT", 3)
        code = cli.main(["analyze", self.scenario_file(tmp_path), "--no-mc"])
        assert code == 3
        err = capsys.readouterr().err
        assert "compact route QUADPACK ier=1" in err
        assert "log-scale retry QUADPACK ier=1" in err

    def test_successive_main_calls_share_no_state(self, tmp_path, capsys):
        # main reuses one parser per process; a flag of one call must not
        # reach the next
        from riscap import cli

        path = self.scenario_file(tmp_path)
        assert cli.build_parser() is cli.build_parser()
        with warnings.catch_warnings():
            # fig2 lies inside the near/far boundary: forcing far warns
            warnings.simplefilter("ignore")
            assert cli.main(["analyze", path, "--mode", "far", "--no-mc"]) == 0
        forced = capsys.readouterr().out
        assert cli.main(["analyze", path, "--trials", "200"]) == 0
        default = capsys.readouterr().out
        assert "mode: far" in forced and "ec_mc_bit_s_hz" not in forced
        assert "mode: near" in default and "ec_mc_bit_s_hz" in default

    @staticmethod
    def python(*argv):
        """Stripped stdout of `python -c code args` in a fresh interpreter,
        which must exit 0."""
        proc = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True)
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
        assert self.python(code) == "[]"

    def test_cli_import_leaves_out_scipy_special_init(self):
        # the special functions come from scipy.special's compiled ufuncs;
        # the package __init__ would load its array-API layer, which pulls
        # in numpy.testing, numpy.f2py and numpy.ma on every CLI call
        code = (
            "import sys, riscap.cli; "
            "print(sorted(m for m in ('scipy._lib._array_api', 'numpy.testing', 'numpy.f2py', "
            "'numpy.ma') if m in sys.modules))"
        )
        assert self.python(code) == "[]"

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
        assert self.python(code, self.scenario_file(tmp_path)) == "[]"
