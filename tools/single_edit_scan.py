"""Single-edit scan: every numeric leaf of four presets at fixed extreme
values, run through ``riscap analyze --no-mc`` under each ``--mode``.

    python tools/single_edit_scan.py --out scan.jsonl
    python tools/single_edit_scan.py --compare parent.jsonl change.jsonl

The scan saves each preset's scenario (fig2, fig3, fig5 and fig7) with
one numeric leaf set to one of ``VALUES``, and runs
``cli.main(["analyze", path, "--no-mc", "--mode", mode])`` in this
process for each mode.  An integer leaf (mx, my, fixed_total_elements)
takes a value as an int when the value is integral.  Each run writes one
JSON line: preset, leaf, value, mode, exit code, stdout, stderr, the
warnings raised, and a traceback when an exception escaped ``cli.main``
(else null).  The scan exits 1 if any run has a traceback, or if a run
that exits 2 names in its stderr neither the edited leaf nor a section
that holds it (``scenario.budget`` holds ``scenario.budget.gt``).

The riscap it runs is the one under ``src/`` next to this script, so a
copy of the script in another checkout scans that checkout.  Warnings
are recorded as "Category: message" rather than printed, and traceback
paths are relative to the checkout, so two checkouts' records compare
equal when their behaviour does.  ``--compare A B`` prints each run whose
records differ, or that only one file holds, and exits 1 if there is
any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PRESETS = ("fig2", "fig3", "fig5", "fig7")
MODES = ("auto", "near", "far")
VALUES = (
    -1e300, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-154, 1e-8,
    0.5, 2.0, 1e8, 1e20, 1e154, 1e300, 1.7976931348623157e308,
)
KEY = ("preset", "leaf", "value", "mode")
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

    failures = unnamed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.yaml")
        for name in PRESETS:
            data = scenario_to_dict(preset(name)[0])
            for leaf, node, key in list(numeric_leaves(data)):
                original = node[key]
                for value in VALUES:
                    integral = isinstance(original, int) and value.is_integer()
                    node[key] = int(value) if integral else value
                    with open(path, "w", encoding="utf-8") as fh:
                        yaml.safe_dump(data, fh, sort_keys=False)
                    for mode in MODES:
                        argv = ["analyze", path, "--no-mc", "--mode", mode]
                        record = dict(zip(KEY, (name, leaf, value, mode)))
                        record.update(run_once(cli, argv))
                        failures += record["traceback"] is not None
                        unnamed += record["exit"] == 2 and not names_leaf(leaf, record["stderr"])
                        out.write(json.dumps(record) + "\n")
                node[key] = original
    if failures:
        print(f"{failures} run(s) ended in a traceback", file=sys.stderr)
    if unnamed:
        print(f"{unnamed} run(s) exited 2 without naming the edited leaf", file=sys.stderr)
    return 1 if failures or unnamed else 0


def compare(a: str, b: str) -> int:
    def load(path):
        # keyed by the JSON text of the run's key, which tells -0.0 from 0.0
        with open(path, encoding="utf-8") as fh:
            records = (json.loads(line) for line in fh if line.strip())
            return {json.dumps({k: r[k] for k in KEY}): r for r in records}

    old, new = load(a), load(b)
    keys = list(old) + [k for k in new if k not in old]
    differ = [k for k in keys if old.get(k) != new.get(k)]
    for k in differ:
        print(k)
        for label, records in ((a, old), (b, new)):
            record = records.get(k)
            fields = {f: v for f, v in record.items() if f not in KEY} if record else None
            print(f"  {label}: {json.dumps(fields)}")
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
