"""Command-line workbench.

Subcommands: analyze (one scenario, full report), sweep (one variable over
a value list, CSV out), preset (figure-reproduction runs, CSV out), mc
(Monte Carlo estimate only).  Exit codes: 0 success, 2 validation error,
3 numerical failure.  The library checks the flags' values: a failure
that names a run setting or the sweep names its flag (``--trials``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import locale  # argparse's gettext imports it lazily: import it here, not inside the first run
import os
import sys
import warnings

from .errors import NumericalFailure, ValidationFailure
from .montecarlo import check_run_settings
from .presets import PRESET_NAMES, run_preset
from .scenario import MODES, load_scenario
from .workbench import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SWEEP_VARIABLES,
    SweepSpec,
    rows_to_csv,
    run_scenario,
    run_sweep,
)


# the fields of the library's failures that a flag sets, and that flag
FLAGS = {
    "trials": "--trials",
    "seed": "--seed",
    "workers": "--workers",
    "sweep.variable": "--var",
    "sweep.values": "--values",
}


def _add_common(parser: argparse.ArgumentParser, with_mode: bool = True) -> None:
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="Monte Carlo trials")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="Monte Carlo seed")
    parser.add_argument("--workers", type=int, default=1, help="Monte Carlo worker threads")
    if with_mode:
        parser.add_argument(
            "--mode",
            choices=MODES,
            default=None,
            help="override the scenario's propagation-model selection",
        )


# built once per process: main reuses it, since parse_args keeps no state
# on the parser and building it costs ~1 ms per call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riscap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analytic + MC report for one scenario")
    p_analyze.add_argument("scenario")
    p_analyze.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo run")
    _add_common(p_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep one variable, emit CSV")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--var", required=True, help=" | ".join(SWEEP_VARIABLES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_sweep.add_argument("--no-mc", action="store_true")
    _add_common(p_sweep)

    p_preset = sub.add_parser("preset", help="run a figure-reproduction preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_preset.add_argument("--no-mc", action="store_true")
    _add_common(p_preset, with_mode=False)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate only")
    p_mc.add_argument("scenario")
    _add_common(p_mc)

    return parser


def _override_mode(scenario, mode):
    if mode is None:
        return scenario
    return dataclasses.replace(scenario, mode=mode)


def _cannot_write(out: str, exc: OSError) -> ValidationFailure:
    return ValidationFailure(f"cannot write {out}: {exc.strerror or exc}", ("--out",))


@contextlib.contextmanager
def _output(out: str | None):
    """Check before a run that the --out path can be written (None is
    stdout): opening it to append creates it if absent and changes no
    existing file.  If the run or the write then fails, a file the check
    created is removed."""
    if out is None:
        yield
        return
    created = not os.path.lexists(out)
    try:
        open(out, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(out, exc) from None
    try:
        yield
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(out)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot_write(out, exc) from None


def _cmd_analyze(args) -> None:
    scenario = _override_mode(load_scenario(args.scenario), args.mode)
    trials = None if args.no_mc else args.trials
    result = run_scenario(scenario, trials=trials, seed=args.seed, workers=args.workers)
    lines = [
        f"ec_approx_bit_s_hz: {result.report.ec_approx:.10g}",
        f"ec_upper_bit_s_hz: {result.report.ec_upper:.10g}",
        f"ec_lower_approx_bit_s_hz: {result.report.ec_lower:.10g}",
        f"snr_mean: {result.report.snr_mean:.10g}",
        f"snr_variance: {result.report.snr_variance:.10g}",
        f"gamma_teff: {result.gamma_teff:.10g}",
        f"envelope_mean: {result.moments.mean:.10g}",
        f"envelope_variance: {result.moments.variance:.10g}",
        f"mode: {result.mode_used}",
        f"d_boundary_m: {result.d_boundary:.10g}",
    ]
    if result.mc is not None:
        lines.append(f"ec_mc_bit_s_hz: {result.mc.mean_ec:.10g}")
        lines.append(f"mc_stderr_bit_s_hz: {result.mc.std_error:.10g}")
    for note in result.notes:
        lines.append(f"note: {note}")
    print("\n".join(lines))


def _cmd_sweep(args) -> None:
    scenario = _override_mode(load_scenario(args.scenario), args.mode)
    sweep = SweepSpec(args.var, [v for v in args.values.split(",") if v.strip()])
    with _output(args.out):
        rows = run_sweep(
            scenario, sweep, None if args.no_mc else args.trials, args.seed, args.workers
        )
        _emit(rows_to_csv(rows, sweep.variable), args.out)


def _cmd_preset(args) -> None:
    with _output(args.out):
        rows, variable = run_preset(
            args.name, None if args.no_mc else args.trials, args.seed, args.workers
        )
        _emit(rows_to_csv(rows, variable), args.out)


def _cmd_mc(args) -> None:
    scenario = _override_mode(load_scenario(args.scenario), args.mode)
    result = run_scenario(scenario, trials=args.trials, seed=args.seed, workers=args.workers)
    print(f"ec_mc_bit_s_hz: {result.mc.mean_ec:.10g}")
    print(f"mc_stderr_bit_s_hz: {result.mc.std_error:.10g}")
    print(f"trials: {args.trials}")
    print(f"seed: {args.seed}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "preset": _cmd_preset,
        "mc": _cmd_mc,
    }
    # a shown warning is one line; a caller that records warnings keeps its records
    shown, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        check_run_settings(args.trials, args.seed, args.workers)  # with --no-mc too
        handlers[args.command](args)
    except ValidationFailure as exc:
        exc.fields = tuple(FLAGS.get(field, field) for field in exc.fields)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = shown
    return 0


if __name__ == "__main__":
    sys.exit(main())
