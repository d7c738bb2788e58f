import dataclasses
import functools
import subprocess
import sys

import numpy as np
import pytest
import yaml

from riscap.errors import ScenarioError
from riscap.geometry import Point3, RisPanel
from riscap.pathloss import LinkBudget
from riscap.presets import PRESET_NAMES, preset, run_preset
from riscap.scenario import PanelSetup, Scenario, dump_scenario

from oracles import brute_force_beta_inv, per_point_preset, per_point_sweep
from riscap.workbench import (
    SWEEP_VARIABLES,
    SweepSpec,
    apply_sweep_value,
    resolve,
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
        res = resolve(synthetic_scenario(d1=4.0))
        assert res.d_boundary == 4.0
        assert res.mode_used == "near"

    def test_beyond_boundary_goes_far(self):
        res = resolve(synthetic_scenario(d1=4.5, d2=50.0))
        assert res.mode_used == "far"

    def test_user_side_counts_too(self):
        res = resolve(synthetic_scenario(d1=40.0, d2=3.0))
        assert res.mode_used == "near"

    def test_forced_far_inside_boundary_warns_but_runs(self):
        with pytest.warns(UserWarning, match="boundary"):
            res = resolve(synthetic_scenario(d1=2.0, mode="far"))
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
        res = resolve(s)
        assert res.mode_used == "near"
        panel = s.panels[0].panel
        expected = brute_force_beta_inv(s.bs, s.user, panel, s.budget.gt, s.budget.gr)
        np.testing.assert_allclose(
            res.panel_stats[0].beta_inv, expected, rtol=1e-12, atol=0
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

    @pytest.mark.parametrize(
        "field, value", [("trials", 0), ("trials", -5), ("seed", -1), ("seed", 2**64)]
    )
    def test_bad_trials_or_seed(self, field, value):
        with pytest.raises(ScenarioError, match=f"sweep.{field}"):
            SweepSpec(variable="P", values=(0.0,), **{field: value})


class TestSweepCsv:
    def test_deterministic_bytes(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(variable="P", values=(-10.0, 0.0), trials=2_000, seed=5)
        a = rows_to_csv(run_sweep(s, sweep), "P")
        b = rows_to_csv(run_sweep(s, sweep), "P")
        assert a == b
        assert a.startswith("# sweep_value: dBm")
        header = a.splitlines()[1]
        assert header == (
            "sweep_value,ec_approx,ec_ub,ec_lb,ec_mc,mc_stderr,gamma_teff,mode,d_boundary_m"
        )

    def test_outputs_subset_blanks_columns(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(variable="P", values=(0.0,), outputs=("approx",))
        text = rows_to_csv(run_sweep(s, sweep), "P")
        row = text.splitlines()[2].split(",")
        assert row[1] != ""
        assert row[2] == row[3] == row[4] == row[5] == ""

    def test_monotone_power_sweep(self):
        s, _ = preset("fig2")
        sweep = SweepSpec(
            variable="P", values=(-20.0, -10.0, 0.0, 10.0, 20.0), outputs=("approx",)
        )
        rows = run_sweep(s, sweep)
        ecs = [r.ec_approx for r in rows]
        assert all(b > a for a, b in zip(ecs, ecs[1:]))

    def test_rho_sweep_nonincreasing_when_descending(self):
        s, sweep = preset("fig3")
        rows = run_sweep(s, dataclasses.replace(sweep, outputs=("approx",)))
        ecs = [r.ec_approx for r in rows]
        assert all(b < a for a, b in zip(ecs, ecs[1:]))  # values run 1.0 -> 0.5

    def test_element_count_sweep_flattens_in_near_field(self):
        # growing the panel toward the BS adds ever-lossier edge elements,
        # so capacity gains per added row must shrink toward zero
        s, sweep = preset("fig6")
        rows = run_sweep(s, dataclasses.replace(sweep, outputs=("approx",)))
        ecs = [r.ec_approx for r in rows]
        diffs = [b - a for a, b in zip(ecs, ecs[1:])]
        assert all(d > 0 for d in diffs)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 0.05 * diffs[0]

    def test_single_panel_distributed_file_gives_identical_csv(self):
        s, _ = preset("fig2")
        as_distributed = dataclasses.replace(s, kind="distributed")
        sweep = SweepSpec(variable="P", values=(-10.0, 0.0), trials=1_000, seed=13)
        a = rows_to_csv(run_sweep(s, sweep), "P")
        b = rows_to_csv(run_sweep(as_distributed, sweep), "P")
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
        sweep = SweepSpec(variable=variable, values=self.VALUES[variable], trials=2100, seed=17)
        for workers in (1, 2):
            batched = rows_to_csv(run_sweep(s, sweep, workers=workers), variable)
            reference = rows_to_csv(per_point_sweep(s, sweep, workers=workers), variable)
            assert batched == reference


class TestRunPreset:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_csv_equals_per_point_cli_route(self, name):
        for workers in (1, 2):
            rows, variable = run_preset(name, trials=600, seed=3, workers=workers)
            reference = per_point_preset(name, trials=600, seed=3, workers=workers)
            assert rows_to_csv(rows, variable) == rows_to_csv(reference, variable)

    def test_no_mc_blanks_mc_columns(self):
        rows, _ = run_preset("fig8", mc=False)
        assert all(r.ec_mc is None and r.mc_stderr is None for r in rows)
        assert all(r.ec_approx is not None for r in rows)


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
        ],
    )
    def test_extreme_finite_input_exit_code(self, tmp_path, argv, edits, field):
        # edits: dotted scenario-file field -> new value (None deletes it)
        data = yaml.safe_load(dump_scenario(preset("fig2")[0]))
        for dotted, value in edits.items():
            *parents, key = dotted.split(".")
            target = functools.reduce(dict.__getitem__, parents, data)
            if value is None:
                del target[key]
            else:
                target[key] = value
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(data))
        proc = self.run_cli(argv[0], str(path), *argv[1:], "--no-mc", expect=2)
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

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
