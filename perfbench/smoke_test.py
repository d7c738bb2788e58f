"""Smoke test: every workload at a tiny size prints every named metric.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Runs perfbench/run.py --smoke untraced and traced (about 20 s in all)
and checks that each metric of BENCHMARK.json appears in the JSON result
line for every workload, and that the human-readable report prints every
end-to-end and per-layer metric by name with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, REPORT_ONLY  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workload import WORKLOADS  # noqa: E402


def _run(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout.splitlines()


def _blocks(lines: list[str]) -> dict[str, list[str]]:
    """Report lines grouped under each '== <workload>' header."""
    blocks: dict[str, list[str]] = {}
    current = None
    for line in lines[:-1]:
        if line.startswith("== "):
            current = blocks.setdefault(line.split()[1], [])
        elif current is not None:
            current.append(line)
    return blocks


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    # large_panel runs by hand and in the default run, not in BENCHMARK.json.
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "large_panel"]


def test_every_metric_is_printed():
    for trace, in_json in ((0, END_TO_END), (1, PER_LAYER)):
        lines = _run(trace)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n, _, _ in in_json}
        for workload in WORKLOADS:
            for name, unit, _ in in_json:
                assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
        printed = END_TO_END + REPORT_ONLY + (PER_LAYER if trace else ())
        blocks = _blocks(lines)
        assert sorted(blocks) == sorted(WORKLOADS)
        for workload, block in blocks.items():
            pairs = {(line.split()[0], line.split()[-1]) for line in block if line.strip()}
            for name, unit, _ in printed:
                assert (name, unit) in pairs, f"{workload}: {name} [{unit}] not printed"
            assert any(line.strip().startswith("provenance: ") for line in block)


if __name__ == "__main__":
    test_benchmark_json_matches_the_code()
    test_every_metric_is_printed()
    print("smoke test passed")
