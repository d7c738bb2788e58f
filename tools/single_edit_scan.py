"""Single-edit scan: every numeric leaf of four presets at fixed extreme
values, run through ``riscap analyze --no-mc`` under each ``--mode``, the
same in dB keys, each run-setting flag at the same values, and each
sweep variable at them.

    python tools/single_edit_scan.py --out scan.jsonl
    python tools/single_edit_scan.py --compare parent.jsonl change.jsonl

The scan saves each preset's scenario (fig2, fig3, fig5 and fig7) with
one numeric leaf set to one of ``VALUES``, and runs
``cli.main(["analyze", path, "--no-mc", "--mode", mode])`` in this
process for each mode.  An integer leaf (mx, my, fixed_total_elements)
takes a value as an int when the value is integral.  The dB pass does
the same with each preset written in dB keys (``p_dbm``, ``noise_dbm``,
``gt_db``, ``gr_db``, ``k0_db``, ``k1_db``, ``k2_db``) at ``VALUES`` and
``DB_VALUES``.  Then it runs ``cli.main(["analyze", path, "--no-mc",
flag, value])`` on fig2's scenario for each of ``FLAGS`` at each value,
passed as an int when integral; ``--no-mc`` keeps every value from
starting a Monte Carlo draw or a worker thread, so a value is only ever
checked.  Last, the sweep pass runs ``cli.main(["sweep", path, "--var",
variable, "--values=VALUE", "--no-mc"])`` on each preset's scenario for
each sweep variable at each of ``VALUES``.  Each run writes one JSON
line: preset, leaf (the flag or the sweep variable, for those runs),
value, mode (null for a flag or sweep run), the pass ("db" or "sweep";
absent in the linear-key and flag runs), exit code, stdout, stderr, the
warnings raised, and a traceback when an exception escaped ``cli.main``
(else null).  The scan exits 1 if any run has a traceback, if a file run
of either file pass that exits 2 names in its stderr neither the edited
leaf nor a section that holds it (``scenario.budget`` holds
``scenario.budget.gt_db``), if a flag run that exits 2 does not name its
flag, or if a sweep run that exits 2 does not name ``--values``, other
than the structural fault of a single-panel variable swept on several
panels.

The riscap it runs is the one under ``src/`` next to this script, so a
copy of the script in another checkout scans that checkout.  Warnings
are recorded as "Category: message" rather than printed, and traceback
paths are relative to the checkout, so two checkouts' records compare
equal when their behaviour does.  ``--compare A B`` prints each run whose
records differ, or that only one file holds, and the count per pass, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PRESETS = ("fig2", "fig3", "fig5", "fig7")
MODES = ("auto", "near", "far")
FLAGS = ("--trials", "--seed", "--workers")
VALUES = (
    -1e300, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-154, 1e-8,
    0.5, 2.0, 1e8, 1e20, 1e154, 1e300, 1.7976931348623157e308,
)
# dB values whose linear power or gain leaves float range, or nearly does
DB_VALUES = (-3240.0, -3000.0, -1540.0, 1540.0, 3000.0, 3080.0)
# each linear key and its dB spelling (dBm for a power in watts)
DB_KEYS = {
    "p_w": "p_dbm", "noise_w": "noise_dbm", "gt": "gt_db", "gr": "gr_db",
    "k0": "k0_db", "k1": "k1_db", "k2": "k2_db",
}
# the one sweep fault that no value sets: a single-panel variable on several panels
STRUCTURAL = "only supported for single-panel scenarios"
KEY = ("preset", "leaf", "value", "mode", "pass")
FIELD = re.compile(r"scenario(?:\.\w+|\[\d+\])+")  # a field path below the file


def numeric_leaves(node, path=""):
    """(dotted path, container, key) of every number in a scenario mapping,
    in the mapping's order; list items are written path[i]."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}".lstrip(".")
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, where)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield where, node, key


def in_db_keys(data: dict) -> dict:
    """data with each power, gain and K factor written in its dB key in
    place of its linear key, in the same position."""

    def db(key, value):
        if isinstance(value, list):
            return [db(key, v) for v in value]
        return 10.0 * math.log10(value) + (30.0 if key.endswith("_w") else 0.0)

    for section in ("budget", "channel"):
        data[section] = {
            DB_KEYS.get(key, key): db(key, value) if key in DB_KEYS else value
            for key, value in data[section].items()
        }
    return data


def names_leaf(leaf: str, text: str) -> bool:
    """Whether text names the field scenario.<leaf> or a section holding it."""
    path = f"scenario.{leaf}"
    return any(path == f or path.startswith((f"{f}.", f"{f}[")) for f in FIELD.findall(text))


def run_once(cli, argv) -> dict:
    """Exit code, stdout, stderr, warnings and traceback of one in-process
    cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    code, trace = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                trace = traceback.format_exc().replace(f"{SRC.parent}/", "")
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "traceback": trace,
    }


def scan(out) -> int:
    sys.path.insert(0, str(SRC))
    import yaml

    from riscap import cli, preset, scenario_to_dict
    from riscap.workbench import SWEEP_VARIABLES

    failures = unnamed = flagless = sweepless = 0

    def run(key, argv) -> dict:
        nonlocal failures
        # a linear-key or flag run has no pass, as in a scan without passes
        record = dict(zip(KEY, key)) if key[-1] else dict(zip(KEY[:-1], key))
        record.update(run_once(cli, argv))
        failures += record["traceback"] is not None
        out.write(json.dumps(record) + "\n")
        return record

    def save(data, path):
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh, sort_keys=False)

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.yaml")
        file_passes = ((None, lambda d: d, VALUES), ("db", in_db_keys, VALUES + DB_VALUES))
        for pass_name, spell, values in file_passes:
            for name in PRESETS:
                data = spell(scenario_to_dict(preset(name)[0]))
                for leaf, node, key in list(numeric_leaves(data)):
                    original = node[key]
                    for value in values:
                        integral = isinstance(original, int) and value.is_integer()
                        node[key] = int(value) if integral else value
                        save(data, path)
                        for mode in MODES:
                            argv = ["analyze", path, "--no-mc", "--mode", mode]
                            record = run((name, leaf, value, mode, pass_name), argv)
                            unnamed += record["exit"] == 2 and not names_leaf(leaf, record["stderr"])
                    node[key] = original
        save(scenario_to_dict(preset("fig2")[0]), path)
        for flag in FLAGS:
            for value in VALUES:
                text = str(int(value) if value.is_integer() else value)
                argv = ["analyze", path, "--no-mc", flag, text]
                record = run(("fig2", flag, value, None, None), argv)
                flagless += record["exit"] == 2 and flag not in record["stderr"]
        for name in PRESETS:
            save(scenario_to_dict(preset(name)[0]), path)
            for variable in SWEEP_VARIABLES:
                for value in VALUES:
                    argv = ["sweep", path, "--var", variable, f"--values={value}", "--no-mc"]
                    record = run((name, variable, value, None, "sweep"), argv)
                    err = record["stderr"]
                    named = "--values" in err or STRUCTURAL in err
                    sweepless += record["exit"] == 2 and not named
    if failures:
        print(f"{failures} run(s) ended in a traceback", file=sys.stderr)
    if unnamed:
        print(f"{unnamed} run(s) exited 2 without naming the edited leaf", file=sys.stderr)
    if flagless:
        print(f"{flagless} flag run(s) exited 2 without naming the flag", file=sys.stderr)
    if sweepless:
        print(f"{sweepless} sweep run(s) exited 2 without naming --values", file=sys.stderr)
    return 1 if failures or unnamed or flagless or sweepless else 0


def compare(a: str, b: str) -> int:
    def load(path):
        # keyed by the JSON text of the run's key, which tells -0.0 from 0.0
        with open(path, encoding="utf-8") as fh:
            records = (json.loads(line) for line in fh if line.strip())
            return {json.dumps({k: r.get(k) for k in KEY}): r for r in records}

    old, new = load(a), load(b)
    keys = list(old) + [k for k in new if k not in old]
    differ = [k for k in keys if old.get(k) != new.get(k)]
    for k in differ:
        print(k)
        for label, records in ((a, old), (b, new)):
            record = records.get(k)
            fields = {f: v for f, v in record.items() if f not in KEY} if record else None
            print(f"  {label}: {json.dumps(fields)}")
    passes = [json.loads(k)["pass"] for k in keys]
    for name in dict.fromkeys(passes):
        runs = [k for k, p in zip(keys, passes) if p == name]
        changed = set(differ).intersection(runs)
        print(f"{name or 'linear-key and flag'} runs: {len(changed)} of {len(runs)} differ")
    print(f"{len(differ)} of {len(keys)} run(s) differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="-", help="JSON-lines file (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two scans")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out == "-":
        return scan(sys.stdout)
    with open(args.out, "w", encoding="utf-8") as fh:
        return scan(fh)


if __name__ == "__main__":
    sys.exit(main())
