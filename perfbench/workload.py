"""One pass of one benchmark workload, run in a fresh process.

Usage (run.py starts this; it is not meant to be run by hand):

    python3 perfbench/workload.py --workload mc_sweep --seed 1 \\
        --pass-index 0 --launch <time.monotonic() at spawn> [--trace] [--smoke]

Pass 0 of mc_sweep also runs the untimed determinism check.

A pass sets up (imports riscap, expands presets, writes the generated
scenario YAML), runs the timed body through ``riscap.cli.main``, then
checks every output against ``reference.json`` and the Monte Carlo
bound.  The last line of its standard output is one JSON object with
the pass's measurements.

The workload seed picks the inputs: the riscap Monte Carlo seed and one
of ``VARIANTS`` geometry/budget variants of each generated scenario.  The
reference holds the analytic outputs of every variant.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"

WORKLOADS = ("mc_sweep", "analytic_suite", "large_panel")
# Fixed rather than riscap.PRESET_NAMES, so a new preset does not change
# the workload.
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
VARIANTS = 8
# Per-variant inputs of the generated scenarios.
BIG_PANEL_X = tuple(-17.5 + 5.0 * k for k in range(VARIANTS))
FIG3_RHO = (1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5)
RETRY_P_W = tuple(10.0 ** (3 + k) for k in range(VARIANTS))
LARGE_PANEL_X = tuple(-49.5 + 0.5 * k for k in range(VARIANTS))

SIZES = {
    "full": {"mc_sweep_trials": 4096, "large_panel_trials": 4096},
    "smoke": {"mc_sweep_trials": 1024, "large_panel_trials": 64},
}
MC_WORKERS = {"mc_sweep": 2, "large_panel": 1}

REL_TOL = 1e-9  # analytic columns against the reference
MC_REL_BOUND = 0.02  # acceptance criterion 01: MC within 2% of ec_approx
# analyze prints "key: value" lines; map them onto the CSV column names.
REPORT_KEYS = {
    "ec_approx": "ec_approx_bit_s_hz",
    "ec_ub": "ec_upper_bit_s_hz",
    "ec_lb": "ec_lower_approx_bit_s_hz",
    "gamma_teff": "gamma_teff",
    "d_boundary_m": "d_boundary_m",
    "mode": "mode",
    "ec_mc": "ec_mc_bit_s_hz",
}
ANALYTIC_COLUMNS = (
    "sweep_value", "ec_approx", "ec_ub", "ec_lb", "gamma_teff", "d_boundary_m", "mode",
)


@dataclass(frozen=True)
class Op:
    """One ``riscap`` command of the timed body and how to check it."""

    argv: tuple[str, ...]
    ref_key: str
    kind: str  # "csv" (sweep/preset) or "report" (analyze)
    mc: bool
    elem_trials: int = 0


def import_riscap():
    """Import riscap from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import riscap

    if src not in Path(riscap.__file__).resolve().parents:
        raise ImportError(f"riscap imported from {riscap.__file__}, not from {src}")
    return riscap


def mc_seed(workload: str, seed: int) -> int:
    return zlib.crc32(f"{workload}:{seed}".encode())


def _with_panel(scenario, **changes):
    setup = scenario.panels[0]
    panel = dataclasses.replace(setup.panel, **changes)
    return dataclasses.replace(scenario, panels=(dataclasses.replace(setup, panel=panel),))


def big_panel(presets, variant: int):
    """316x316 (~1e5-element) near-field panel near mid-link."""
    base, _ = presets.preset("fig2")
    center = dataclasses.replace(base.panels[0].panel.center, x=BIG_PANEL_X[variant])
    return _with_panel(base, center=center, mx=316, my=316)


def fig3_distributed(presets, variant: int):
    """The fig3 two-panel layout at one point of its rho sweep."""
    base, _ = presets.preset("fig3")
    panels = tuple(dataclasses.replace(ps, rho=FIG3_RHO[variant]) for ps in base.panels)
    return dataclasses.replace(base, panels=panels)


def logscale_retry(presets, variant: int):
    """One element, fresh CSI and an extreme SNR (gamma_teff >= 1e33): the
    compact quadrature flags roundoff and the log-scale retry runs."""
    base, _ = presets.preset("fig2")
    scenario = _with_panel(base, mx=1, my=1)
    scenario = dataclasses.replace(
        scenario,
        panels=(dataclasses.replace(scenario.panels[0], rho=1.0),),
        rho0=1.0,
        budget=dataclasses.replace(
            base.budget, tx_power=RETRY_P_W[variant], noise_power=1e-30
        ),
    )
    return scenario


def large_panel(presets, variant: int):
    """100x100 (1e4-element) near-field panel next to the BS."""
    base, _ = presets.preset("fig2")
    center = dataclasses.replace(base.panels[0].panel.center, x=LARGE_PANEL_X[variant])
    return _with_panel(base, center=center, mx=100, my=100)


GENERATED = {
    "big_panel": big_panel,
    "fig3_distributed": fig3_distributed,
    "logscale_retry": logscale_retry,
    "large_panel": large_panel,
}


def write_scenario(key: str, variant: int, workdir: Path):
    """Build one generated scenario and save it as YAML: (path, scenario)."""
    from riscap import presets
    from riscap.scenario import save_scenario

    path = workdir / f"{key}-v{variant}.yaml"
    scenario = GENERATED[key](presets, variant)
    save_scenario(scenario, str(path))
    return str(path), scenario


def plan(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    """Generate the pass's inputs and the commands that use them."""
    from riscap import presets

    variant = seed % VARIANTS
    if workload == "mc_sweep":
        trials = SIZES[size]["mc_sweep_trials"]
        scenario, sweep = presets.preset("fig2")
        elements = sum(ps.panel.element_count for ps in scenario.panels)
        argv = ("preset", "fig2", "--trials", str(trials), "--seed",
                str(mc_seed(workload, seed)), "--workers", str(MC_WORKERS[workload]))
        return [Op(argv, "preset/fig2", "csv", True, len(sweep.values) * trials * elements)]
    if workload == "analytic_suite":
        ops = [Op(("preset", name, "--no-mc"), f"preset/{name}", "csv", False) for name in PRESETS]
        for key in ("big_panel", "fig3_distributed", "logscale_retry"):
            path, _ = write_scenario(key, variant, workdir)
            ops.append(Op(("analyze", path, "--no-mc"), f"{key}/v{variant}", "report", False))
        return ops
    if workload == "large_panel":
        trials = SIZES[size]["large_panel_trials"]
        path, scenario = write_scenario("large_panel", variant, workdir)
        elements = sum(ps.panel.element_count for ps in scenario.panels)
        argv = ("analyze", path, "--trials", str(trials), "--seed",
                str(mc_seed(workload, seed)), "--workers", str(MC_WORKERS[workload]))
        return [Op(argv, f"large_panel/v{variant}", "report", True, trials * elements)]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(cli, argv) -> tuple[str, str | None, int]:
    """Run one command in-process: (stdout text, failure or None, warnings)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        # fig4's forced-far UserWarning is expected; warnings are counted,
        # never failures.
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
            if code != 0:
                error = f"exit code {code}"
        except Exception:  # a crash is a failed operation, not a crashed pass
            error = traceback.format_exc(limit=4)
    return out.getvalue(), error, len(caught)


def parse_output(kind: str, text: str) -> list[dict[str, str]]:
    if kind == "csv":
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    fields = dict(
        line.split(": ", 1) for line in text.splitlines() if not line.startswith("note:")
    )
    return [{col: fields.get(key, "") for col, key in REPORT_KEYS.items()}]


def analytic_row(row: dict[str, str]) -> dict:
    """The columns the reference pins, as numbers (mode stays a string)."""
    return {
        col: (row[col] if col == "mode" else float(row[col]))
        for col in ANALYTIC_COLUMNS
        if col in row
    }


def check(op: Op, text: str, reference: dict) -> list[str]:
    """Failures of one command's output; empty when it is correct."""
    try:
        rows = parse_output(op.kind, text)
        expected = reference[op.ref_key]
        if len(rows) != len(expected):
            return [f"{op.ref_key}: {len(rows)} rows, reference has {len(expected)}"]
        problems = []
        for n, (row, want) in enumerate(zip(rows, expected)):
            got = analytic_row(row)
            for col, ref in want.items():
                value = got.get(col)
                if col == "mode":
                    bad = value != ref
                else:
                    bad = value is None or not abs(value - ref) <= REL_TOL * abs(ref)
                if bad:
                    problems.append(f"{op.ref_key} row {n} {col}: {value!r} != reference {ref!r}")
            if op.mc:
                ec_mc, ec = float(row["ec_mc"]), got["ec_approx"]
                if not abs(ec_mc - ec) <= MC_REL_BOUND * abs(ec):
                    problems.append(
                        f"{op.ref_key} row {n}: ec_mc {ec_mc} not within 2% of ec_approx {ec}"
                    )
        return problems
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{op.ref_key}: output not parseable ({exc!r})"]


def run_pass(args) -> dict:
    import_riscap()
    import numpy
    import scipy
    from riscap import cli, montecarlo

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    ops = plan(args.workload, args.seed, "smoke" if args.smoke else "full", workdir)
    setup_s = time.monotonic() - args.launch

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    start = time.perf_counter()
    for op in ops:
        outputs.append(run_op(cli, op.argv))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    failures = []
    failed_ops = rows = 0
    for op, (text, error, _) in zip(ops, outputs):
        problems = [f"{' '.join(op.argv)}: {error}"] if error else check(op, text, reference)
        if problems:
            failed_ops += 1
            failures.extend(problems)
        else:
            rows += len(parse_output(op.kind, text))
    attempted = len(ops)

    if args.workload == "mc_sweep" and args.pass_index == 0:
        # Untimed, once per run: the same sweep with one worker must give
        # byte-identical CSV.
        attempted += 1
        argv = list(ops[0].argv)
        argv[argv.index("--workers") + 1] = "1"
        text, error, _ = run_op(cli, argv)
        if error is not None or text != outputs[0][0]:
            failed_ops += 1
            failures.append(
                f"determinism: --workers 1 output differs from --workers "
                f"{MC_WORKERS[args.workload]}" + (f" ({error})" if error else "")
            )

    result = {
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures,
        "rows": rows,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "elem_trials": sum(op.elem_trials for op in ops),
        "warnings": sum(w for _, _, w in outputs),
        "run": {
            "variant": args.seed % VARIANTS,
            "mc_seed": mc_seed(args.workload, args.seed),
            "trials": [int(op.argv[op.argv.index("--trials") + 1]) for op in ops if op.mc],
            "block_size": montecarlo.TrialConfig(trials=1, seed=0).block_size,
            "workers": MC_WORKERS.get(args.workload),
        },
        "software": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["absent"] = tracer.absent
        spans_path = workdir / f"spans-seed{args.seed}-pass{args.pass_index}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
