import ast
import builtins
import dataclasses
import math
import pathlib
import re

import mpmath
import pytest
import yaml

import riscap
from riscap.channel import outdated_correlation
from riscap import presets
from riscap.errors import ScenarioError
from riscap.geometry import Point3
from riscap.presets import PRESET_NAMES, fig8_distributed_cases, preset, run_preset
from riscap.scenario import dump_scenario, load_scenario, parse_scenario
from riscap.workbench import run_scenario

MINIMAL = """
fc_hz: 5.0e9
bs: {x: -50.0, y: 0.0, z: 10.0}
user: {x: 50.0, y: 0.0, z: 10.0}
deployment:
  kind: centralized
  panel:
    center: {x: -49.5, y: 0.0, z: 9.5}
    mx: 24
    my: 24
    dx: 0.0075
    dy: 0.0075
channel:
  k0_db: 3.0
  k1_db: 3.0
  k2_db: 3.0
  rho0: 0.95
  rho: 0.9
budget:
  p_dbm: 0.0
  noise_dbm: -120.0
  gt_db: 20.0
  gr_db: 0.0
  eta_db: -30.0
  xi: 3.5
"""


def parse_text(text):
    return parse_scenario(yaml.safe_load(text))


def edited(mutate):
    data = yaml.safe_load(MINIMAL)
    mutate(data)
    return data


class TestParsing:
    def test_minimal_centralized(self):
        s = parse_text(MINIMAL)
        assert s.kind == "centralized"
        assert len(s.panels) == 1
        assert s.panels[0].panel.element_count == 576
        assert s.k0 == pytest.approx(10 ** 0.3, rel=1e-12)
        assert s.budget.tx_power == pytest.approx(1e-3, rel=1e-12)
        assert s.budget.noise_power == pytest.approx(1e-15, rel=1e-12)
        assert s.budget.gt == pytest.approx(100.0, rel=1e-12)
        assert s.mode == "auto"

    def test_linear_spellings(self):
        data = edited(lambda d: d["channel"].update({"k0": 2.0}) or d["channel"].pop("k0_db"))
        assert parse_scenario(data).k0 == 2.0

    def test_distributed_with_lists(self):
        def mutate(d):
            panel = d["deployment"].pop("panel")
            d["deployment"]["kind"] = "distributed"
            p2 = yaml.safe_load(yaml.safe_dump(panel))
            p2["center"]["x"] = 49.0
            d["deployment"]["panels"] = [panel, p2]
            d["channel"]["k1_db"] = [3.0, 6.0]
            d["channel"]["k2_db"] = 3.0
            d["channel"]["rho"] = [0.9, 0.8]

        s = parse_scenario(edited(mutate))
        assert s.kind == "distributed"
        assert [ps.rho for ps in s.panels] == [0.9, 0.8]
        assert s.panels[0].k1 == pytest.approx(10 ** 0.3)
        assert s.panels[1].k1 == pytest.approx(10 ** 0.6)
        assert s.panels[0].k2 == s.panels[1].k2

    def test_doppler_derived_correlation(self):
        def mutate(d):
            d["channel"].pop("rho")
            d["channel"]["doppler"] = {"v_mps": 1.0, "ts_s": 1.0e-3}

        s = parse_scenario(edited(mutate))
        rho = s.panels[0].rho
        # J0(2 pi (5e9/3e8) * 1e-3); frozen from the series oracle
        assert rho == pytest.approx(0.99726032168302324479, rel=1e-12)

    def test_mode_values(self):
        for mode in ("auto", "near", "far"):
            s = parse_scenario(edited(lambda d, m=mode: d.update({"mode": m})))
            assert s.mode == mode


class TestValidationErrors:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("fc_hz"), "scenario.fc_hz"),
            (lambda d: d["bs"].pop("z"), "scenario.bs.z"),
            (lambda d: d["deployment"].update(kind="meshed"), "scenario.deployment.kind"),
            (lambda d: d["deployment"]["panel"].update(mx=0), "scenario.deployment.panel"),
            (lambda d: d["channel"].update(k0=1.0), "mutually exclusive"),
            (lambda d: d["channel"].pop("rho0"), "scenario.channel"),
            (lambda d: d["channel"].update(rho=1.5), "scenario.channel.rho"),
            (lambda d: d["budget"].pop("xi"), "scenario.budget.xi"),
            (lambda d: d["budget"].update(xi=0), "scenario.budget.xi: path-loss exponent"),
            (lambda d: d["budget"].update(p_w=1.0), "mutually exclusive"),
            (lambda d: d.update(extra=1), "unknown fields"),
            # YAML keys that are numbers, booleans or null
            (lambda d: d.update({1: 2, "zz": 3}), re.escape("scenario: unknown fields [1, 'zz'];")),
            (
                lambda d: d["budget"].update({True: 1, None: 2}),
                re.escape("scenario.budget: unknown fields [None, True];"),
            ),
            (lambda d: d["channel"].update(k0_db="three"), "expected a number"),
            (lambda d: d.update(mode="sideways"), "scenario.mode: must be one of"),
            (
                lambda d: d.update(deployment={"kind": "distributed", "panels": []}),
                re.escape("scenario.deployment.panels: expected a non-empty list"),
            ),
            *(
                (
                    lambda d, v=value: d["deployment"].update(fixed_total_elements=v),
                    f"scenario.deployment.fixed_total_elements: {message}",
                )
                for value, message in (
                    (0, "must be >= 1, got 0"),
                    (True, "expected an integer, got True"),
                    (2.5, "expected an integer, got 2.5"),
                )
            ),
        ],
    )
    def test_field_path_in_message(self, mutate, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(edited(mutate))

    @pytest.mark.parametrize("literal", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d, v: (d["budget"].pop("p_dbm"), d["budget"].update(p_w=v)), "scenario.budget.p_w"),
            (lambda d, v: d.update(fc_hz=v), "scenario.fc_hz"),
            (lambda d, v: (d["channel"].pop("k0_db"), d["channel"].update(k0=v)), "scenario.channel.k0"),
            (lambda d, v: d["budget"].update(eta_db=v), "scenario.budget.eta_db"),
            (lambda d, v: d["deployment"]["panel"].update(dx=v), "scenario.deployment.panel.dx"),
        ],
    )
    def test_non_finite_number_rejected(self, mutate, path, literal):
        value = yaml.safe_load(literal)
        with pytest.raises(ScenarioError, match=f"{re.escape(path)}: expected a finite number"):
            parse_scenario(edited(lambda d: mutate(d, value)))

    def test_per_panel_length_mismatch(self):
        def mutate(d):
            panel = d["deployment"].pop("panel")
            d["deployment"]["kind"] = "distributed"
            d["deployment"]["panels"] = [panel]
            d["channel"]["rho"] = [0.9, 0.8]

        with pytest.raises(ScenarioError, match="per-panel"):
            parse_scenario(edited(mutate))

    def test_mixed_element_sizes_rejected(self):
        def mutate(d):
            panel = d["deployment"].pop("panel")
            d["deployment"]["kind"] = "distributed"
            p2 = yaml.safe_load(yaml.safe_dump(panel))
            p2["dx"] = 0.01
            d["deployment"]["panels"] = [panel, p2]

        with pytest.raises(ScenarioError, match="one element size"):
            parse_scenario(edited(mutate))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert str(exc.value) == "scenario: expected a mapping, got list"

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("bs: [1, 2\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(str(path))

    def test_directory_path(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(tmp_path))
        assert str(exc.value).startswith(f"scenario: file cannot be read: {tmp_path}: ")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
        with pytest.raises(ScenarioError, match=re.escape(f"scenario: file is not UTF-8 text: {path}: ")):
            load_scenario(str(path))

    @pytest.mark.parametrize(
        "name, content, start",
        [
            ("nope.yaml", None, "scenario: file not found: "),
            (".", None, "scenario: file cannot be read: "),
            ("s.yaml", b"\xff\xfe" + MINIMAL.encode(), "scenario: file is not UTF-8 text: "),
            ("s.yaml", b"bs: [1, 2\n", "scenario: file is not valid YAML: "),
        ],
        ids=["not-found", "directory", "not-utf8", "not-yaml"],
    )
    def test_unreadable_file_names_the_scenario(self, tmp_path, name, content, start):
        # the field is "scenario", which leads the text as any field does
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert exc.value.fields == ("scenario",)
        assert str(exc.value).startswith(start)


# the spellings of each field the scenario reader takes, by section
SPELLINGS = {
    "channel": [("k0", "k0_db"), ("k1", "k1_db"), ("k2", "k2_db"), ("rho0", "doppler0"), ("rho", "doppler")],
    "budget": [("p_dbm", "p_w"), ("noise_dbm", "noise_w"), ("gt", "gt_db"), ("gr", "gr_db")],
}


def two_panels_with(key, value):
    """MINIMAL on two panels, with field `key` in place of whichever
    spelling of its field MINIMAL has."""

    def mutate(d):
        panel = d["deployment"].pop("panel")
        p2 = yaml.safe_load(yaml.safe_dump(panel))
        p2["center"]["x"] = 49.0
        d["deployment"].update(kind="distributed", panels=[panel, p2])
        for section, families in SPELLINGS.items():
            for family in families:
                if key in family:
                    for spelling in family:
                        d[section].pop(spelling, None)
                    d[section][key] = value

    return edited(mutate)


def j0(fc, v, ts):
    return float(mpmath.besselj(0, 2 * mpmath.pi * (mpmath.mpf(fc) * v / 3.0e8) * ts))


def per_panel(name):
    return lambda s: [getattr(ps, name) for ps in s.panels]


class TestFieldReader:
    """Every two-spelling field, in each spelling, as a scalar and (where
    the schema allows) a per-panel list, against a hand conversion."""

    @pytest.mark.parametrize(
        "key, value, parsed, expected",
        [
            ("k1", 2.0, per_panel("k1"), [2.0, 2.0]),
            ("k1", [2.0, 4.0], per_panel("k1"), [2.0, 4.0]),
            ("k1_db", 3.0, per_panel("k1"), [10 ** 0.3] * 2),
            ("k2", [0.0, 5.0], per_panel("k2"), [0.0, 5.0]),
            ("k2_db", [-10.0, 10.0], per_panel("k2"), [0.1, 10.0]),
            ("rho0", 0.5, lambda s: s.rho0, 0.5),
            ("doppler0", {"v_mps": 2.0, "ts_s": 1.0e-3}, lambda s: s.rho0, j0(5.0e9, 2.0, 1.0e-3)),
            ("rho", 0.7, per_panel("rho"), [0.7, 0.7]),
            (
                "doppler",
                {"fc_hz": 2.0e9, "v_mps": 3.0, "ts_s": 2.0e-3},
                per_panel("rho"),
                [j0(2.0e9, 3.0, 2.0e-3)] * 2,
            ),
            ("p_w", 0.5, lambda s: s.budget.tx_power, 0.5),
            ("noise_w", 1.0e-13, lambda s: s.budget.noise_power, 1.0e-13),
            ("gt", 50.0, lambda s: s.budget.gt, 50.0),
            ("gr", 2.0, lambda s: s.budget.gr, 2.0),
            ("gr_db", 3.0, lambda s: s.budget.gr, 10 ** 0.3),
        ],
    )
    def test_spelling_reads_as_hand_conversion(self, key, value, parsed, expected):
        assert parsed(parse_scenario(two_panels_with(key, value))) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("k0", -1, "scenario.channel.k0: K-factor must be >= 0"),
            ("k0", [1.0], "scenario.channel.k0: expected a number, got [1.0]"),
            ("k1_db", [3, "x"], "scenario.channel.k1_db[1]: expected a number, got 'x'"),
            ("k1", [2.0, -1.0], "scenario.channel.k1[1]: K-factor must be >= 0"),
            ("k1_db", [3, 3, 3], "scenario.channel.k1_db: expected 2 per-panel values, got 3"),
            ("k2_db", 1e300, "scenario.channel.k2_db[0]: 1e+300 is out of float range in linear units"),
            ("rho0", -0.1, "scenario.channel.rho0: correlation must lie in [0, 1], got -0.1"),
            ("rho", [0.9, 1.5], "scenario.channel.rho[1]: correlation must lie in [0, 1], got 1.5"),
            ("doppler", 0.5, "scenario.channel.doppler: expected a mapping, got float"),
            ("p_w", 0, "scenario.budget.p_w: must be positive in linear units, got 0.0"),
            ("noise_w", -1e-13, "scenario.budget.noise_w: must be positive in linear units, got -1e-13"),
            ("gt", -1, "scenario.budget.gt: must be positive in linear units, got -1.0"),
            ("gr_db", "x", "scenario.budget.gr_db: expected a number, got 'x'"),
        ],
    )
    def test_bad_value_names_key_as_written(self, key, value, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(two_panels_with(key, value))
        assert str(exc.value) == message


class TestPresetContracts:
    def test_defaults(self):
        for name in PRESET_NAMES:
            scenario, _ = preset(name)
            assert scenario.rho0 == 0.95
            assert all(ps.rho == 0.9 for ps in scenario.panels)

    def test_fig7_shape_setup(self):
        scenario, sweep = preset("fig7")
        assert scenario.budget.tx_power == pytest.approx(1e-4, rel=1e-12)  # -10 dBm
        assert scenario.fixed_total_elements == 576
        assert sweep.variable == "My"
        assert sweep.values == (24.0, 36.0, 48.0)

    def test_fig4_crossover_setup(self):
        scenario, sweep = preset("fig4")
        assert scenario.panels[0].panel.element_count == 1600
        assert scenario.budget.tx_power == pytest.approx(1e-6, rel=1e-12)  # -30 dBm
        assert min(sweep.values) <= 3.0 and max(sweep.values) >= 12.0

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset("fig99")


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip_exactly(self, name):
        scenario, _ = preset(name)
        assert parse_scenario(yaml.safe_load(dump_scenario(scenario))) == scenario

    def test_presets_load_equal_under_both_yaml_loaders(self, tmp_path):
        # load_scenario parses with libyaml where PyYAML was built with it
        for name in PRESET_NAMES:
            scenario, _ = preset(name)
            text = dump_scenario(scenario)
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            pure = parse_scenario(yaml.load(text, Loader=yaml.SafeLoader))
            assert load_scenario(str(path)) == pure == scenario

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_scenario_a_preset_runs_round_trips(self, name, monkeypatch):
        # whatever a run builds also saves as a file that parses back
        # equal: each sweep point, fig4's under both modes, the fig8 cases
        built = []

        def evaluate(scenarios, *args):
            built.extend(scenarios)
            return [None] * len(scenarios)

        monkeypatch.setattr(presets, "_evaluate", evaluate)
        run_preset(name, trials=None)
        _, sweep = preset(name)
        extra = {"fig4": len(sweep.values), "fig8": len(fig8_distributed_cases())}
        assert len(built) == len(sweep.values) + extra.get(name, 0)
        for scenario in built:
            assert parse_scenario(yaml.safe_load(dump_scenario(scenario))) == scenario

    def test_doppler_file_round_trips_as_correlations(self):
        def mutate(d):
            d["channel"].pop("rho")
            d["channel"].pop("rho0")
            d["channel"]["doppler"] = {"v_mps": 1.0, "ts_s": 1.0e-3}
            d["channel"]["doppler0"] = {"fc_hz": 2.0e9, "v_mps": 3.0, "ts_s": 2.0e-3}

        scenario = parse_scenario(edited(mutate))
        dumped = yaml.safe_load(dump_scenario(scenario))
        assert "doppler" not in dumped["channel"] and "doppler0" not in dumped["channel"]
        assert parse_scenario(dumped) == scenario
        assert scenario.panels[0].rho == outdated_correlation(5.0e9, 1.0, 1.0e-3)
        assert scenario.rho0 == outdated_correlation(2.0e9, 3.0, 2.0e-3)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"mode": "sideways"}, "mode: must be one of ('auto', 'near', 'far'), got 'sideways'"),
            ({"kind": "bogus"}, "kind: must be 'centralized' or 'distributed', got 'bogus'"),
            ({"panels": ()}, "panels: expected a non-empty list"),
        ],
        ids=["mode", "kind", "panels"],
    )
    def test_dump_checks_the_structure(self, edit, message):
        # a scenario the parser would reject is not written out: it cannot
        # be built, so a bogus kind is never saved as distributed
        with pytest.raises(ScenarioError) as exc:
            dump_scenario(dataclasses.replace(preset("fig2")[0], **edit))
        assert str(exc.value) == message

    def test_file_round_trip(self, tmp_path):
        scenario = parse_text(MINIMAL)
        path = tmp_path / "s.yaml"
        path.write_text(dump_scenario(scenario))
        assert load_scenario(str(path)) == scenario


FIG2, FIG3 = preset("fig2")[0], preset("fig3")[0]
NAN, INF = math.nan, math.inf


def _replaced(record, **edit):
    return lambda: dataclasses.replace(record, **edit)


def _leaf_cases():
    """(id, build, fields): each leaf of a Scenario built in Python with a
    value the parser rejects, and the fields its failure must hold."""
    setup = FIG3.panels[1]
    records = {
        "scenario": FIG3,
        "setup": setup,
        "budget": FIG3.budget,
        "panel": setup.panel,
        "point": FIG3.bs,
    }
    bad = {
        ("scenario", "k0"): (-1.0, NAN),
        ("scenario", "rho0"): (-0.1, 2.0, NAN),
        ("scenario", "fc_hz"): (0.0, -1.0, NAN, INF),
        ("scenario", "fixed_total_elements"): (0, -576, 2.5, True),
        ("scenario", "mode"): ("sideways", "Near"),
        ("scenario", "kind"): ("bogus",),
        ("setup", "k1"): (-1.0, NAN),
        ("setup", "k2"): (-1.0, NAN),
        ("setup", "rho"): (-0.1, 2.0, NAN),
        **{("budget", k): (0.0, -1.0, NAN) for k in ("gt", "gr", "tx_power", "noise_power", "xi")},
        **{("panel", k): (0, 2.5, True) for k in ("mx", "my")},
        **{("panel", k): (0.0, -1.0, NAN) for k in ("dx", "dy")},
        **{("point", k): (NAN, INF) for k in ("x", "y", "z")},
    }
    for (record, leaf), values in bad.items():
        for value in values:
            yield f"{record}.{leaf}={value!r}", _replaced(records[record], **{leaf: value}), (leaf,)
    # invariants across fields
    wider = dataclasses.replace(setup, panel=dataclasses.replace(setup.panel, dx=0.01))
    yield "centralized-two-panels", _replaced(FIG3, kind="centralized"), ("kind", "panels")
    yield "no-panels", _replaced(FIG3, panels=()), ("panels",)
    yield "mixed-element-sizes", _replaced(FIG3, panels=(FIG3.panels[0], wider)), ("panels",)
    yield "endpoints-coincide", _replaced(FIG3, user=FIG3.bs), ("bs", "user")
    # an endpoint in a panel plane names its height and that panel's centre
    for name, record in (("fig2", FIG2), ("fig3", FIG3)):
        for end in ("bs", "user"):
            low = dataclasses.replace(getattr(record, end), z=9.5)
            fields = (f"{end}.z", "panels[0].panel.center.z")
            yield f"{name}-{end}-in-a-panel-plane", _replaced(record, **{end: low}), fields
    raised = dataclasses.replace(setup.panel, center=Point3(49.0, 0.0, 10.5))
    panels = (FIG3.panels[0], dataclasses.replace(setup, panel=raised))
    fields = ("bs.z", "panels[1].panel.center.z")
    yield "fig3-second-panel-above-the-bs", _replaced(FIG3, panels=panels), fields
    # a loss factor out of float range: the direct link, the reference constant
    budget = dataclasses.replace(FIG3.budget, eta_db=1e300)
    fields = ("bs", "user", "budget.eta_db", "budget.xi")
    yield "direct-link-out-of-range", _replaced(FIG3, budget=budget), fields
    budget = dataclasses.replace(FIG3.budget, gt=1e-300)
    fields = ("budget.gt", "budget.gr", "panels[0].panel.dx", "panels[0].panel.dy")
    yield "reference-constant-out-of-range", _replaced(FIG3, budget=budget), fields
    # a run's failure names record paths too: 3000 dBm and a 3000 dB gain
    # overflow the outdated-CSI leakage
    build = _replaced(FIG3, budget=dataclasses.replace(FIG3.budget, tx_power=1e297, gt=1e300))
    fields = ("budget.tx_power", "budget.gt", "budget.gr")
    yield "leakage-overflow-run", lambda: run_scenario(build()), fields


LEAF_CASES = list(_leaf_cases())


def _builtin_raises() -> list[tuple[str, str, str]]:
    """(module, function, exception) of each raise of a builtin exception
    in the riscap package, sorted."""
    found = []

    class Raises(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_ClassDef = visit_scope

        def visit_Raise(self, node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and isinstance(getattr(builtins, exc.id, None), type):
                found.append((self.module, ".".join(self.scope), exc.id))

    for path in pathlib.Path(riscap.__file__).parent.glob("*.py"):
        Raises(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(found)


class TestRecordsValidateThemselves:
    @pytest.mark.parametrize(
        "build, fields", [case[1:] for case in LEAF_CASES], ids=[case[0] for case in LEAF_CASES]
    )
    def test_bad_leaf_built_in_python_names_it(self, build, fields):
        with pytest.raises(ScenarioError) as exc:
            build()
        assert exc.value.fields == fields
        assert exc.value.label is None

    def test_only_math_helpers_raise_value_error(self):
        # a bad field of a record raises ScenarioError naming it; a bare
        # ValueError is left to a bad argument of a math helper
        raises = _builtin_raises()
        raises.remove(("workbench", "SweepSpec.__post_init__", "TypeError"))  # caught there
        assert raises == [
            ("capacity", "GammaFit.__post_init__", "ValueError"),
            ("capacity", "_checked_snr", "ValueError"),
            ("capacity", "ec_upper_bound", "ValueError"),
            ("channel", "laguerre_half", "ValueError"),
            ("channel", "outdated_correlation", "ValueError"),
            ("geometry", "_axis", "ValueError"),
            ("quadpack", "driver", "ValueError"),
        ]

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(fc_hz=0), "scenario.fc_hz: must be positive and finite"),
            (
                lambda d: d["deployment"]["panel"].update(mx=2.5),
                "scenario.deployment.panel.mx: expected an integer, got 2.5",
            ),
            (
                lambda d: d["budget"].update(p_dbm=-1e300),
                "scenario.budget.p_dbm: must be positive in linear units, got 0.0",
            ),
            (
                lambda d: d["user"].update(x=-50.0),
                "scenario.bs, scenario.user: the endpoints coincide",
            ),
            (
                lambda d: d["user"].update(z=9.0),
                "scenario.user.z, scenario.deployment.panel.center.z: "
                "endpoint z=9.0 must lie strictly above the panel plane z=9.5",
            ),
            (
                lambda d: d["budget"].update(gt_db=-3000),
                "scenario.budget.gt_db, scenario.budget.gr_db, scenario.deployment.panel.dx, "
                "scenario.deployment.panel.dy: reference constant at linear gains 1e-300 and 1, "
                "0.0075 x 0.0075 m: loss factor or its inverse is out of float range",
            ),
        ],
        ids=["fc_hz", "mx", "p_dbm", "endpoints", "endpoint-plane", "gt_db"],
    )
    def test_parser_names_the_key_as_written(self, mutate, message):
        # a record's failure under its bare field reads under the key the
        # file wrote (TestFieldReader covers the per-panel and spelled keys)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(edited(mutate))
        assert str(exc.value) == message
