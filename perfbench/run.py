"""riscap benchmark: every workload in fresh processes, outputs checked.

    python3 perfbench/run.py                           # all workloads
    python3 perfbench/run.py --workload mc_sweep --seed 3 --seconds 20
    python3 perfbench/run.py --workload large_panel --trace 1

Each workload runs as a loop of passes for --seconds seconds (at least
MIN_PASSES).  A pass is one fresh process (workload.py) that sets up,
runs the timed body and checks its outputs.  Body times (wall_s and the
rates derived from it) are reported as the 10th percentile of the passes,
the other figures as medians.  With --trace 1 passes alternate untraced
and traced; the traced ones give the per-layer metrics, and the
difference of the two wall_s figures is the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A full record
with per-pass samples and provenance goes to .perfbench/<workload>/.
The exit code is 0 only when every operation succeeded and every output
was correct; 2 when there is no riscap source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workload import HERE, OUT, ROOT, WORKLOADS

# (name, unit, better) of the end-to-end metrics of the JSON result line.
# wall_s and points_per_s are taken at FAST_QUANTILE of the passes, not at
# the median: on a shared host the speed of pure-Python code wanders by up
# to 2x in stretches of 10-30 s, noise only ever slows a pass, and a median
# moves with the share of slow stretches that a run happens to catch.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# Printed with the end-to-end metrics but kept out of the JSON line: the
# median body time for reference, and two figures that are 0 on some
# workload (no MC in analytic_suite; no failures when correct).
REPORT_ONLY = (
    ("wall_s_median", "s", "lower"),
    ("mc_elem_trials_per_s", "1/s", "higher"),
    ("error_rate", "ratio", "lower"),
)
MIN_PASSES = 3
FAST_QUANTILE = 0.1
# A run ends within MAX_LOOP_S + PASS_TIMEOUT_S (160 s) even if a pass hangs.
PASS_TIMEOUT_S = 60
MAX_LOOP_S = 100  # never start a pass after this long, whatever --seconds says
# One BLAS thread per process: load comes from at most MC_WORKERS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn_pass(workload, seed, index, trace, smoke) -> dict:
    """One fresh workload process; a crash or timeout is one failed op."""
    launch = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--pass-index", str(index), "--launch", repr(launch),
    ]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
            env={**os.environ, **THREAD_ENV}, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "failures": [f"pass {index} timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {
            "attempted": 1, "failed": 1,
            "failures": [f"pass {index} exited {proc.returncode}: " + " | ".join(tail)],
        }
    return json.loads(lines[-1])


def run_passes(workload, seed, seconds, trace, smoke) -> list[dict]:
    """Passes until --seconds have elapsed; with trace, even passes are
    untraced and odd ones traced."""
    passes = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if smoke else MIN_PASSES)
        if (enough and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
            break
        index = len(passes)
        traced = trace and index % 2 == 1
        result = spawn_pass(workload, seed, index, traced, smoke)
        result["traced"] = traced
        passes.append(result)
    return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    """The q-quantile of values, interpolated between order statistics."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _fast(times):
    """The body time of a pass the host did not slow down."""
    return _quantile(times, FAST_QUANTILE)


def summarize(passes: list[dict]) -> dict:
    """Every end-to-end and per-layer metric over the passes: body times at
    FAST_QUANTILE, everything else as medians."""
    good = [p for p in passes if "wall_s" in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": _fast([p["wall_s"] for p in plain]),
        "wall_s_median": _median([p["wall_s"] for p in plain]),
        "points_per_s": _quantile([p["rows"] / p["wall_s"] for p in plain], 1 - FAST_QUANTILE),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "setup_s": _median([p["setup_s"] for p in plain]),
        "mc_elem_trials_per_s": _quantile(
            [p["elem_trials"] / p["wall_s"] for p in plain], 1 - FAST_QUANTILE
        ),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    for name, _, _ in PER_LAYER[:-1]:
        metrics[name] = _median([p["layers"][name] for p in traced])
    metrics["trace.overhead_s"] = (
        _fast([p["wall_s"] for p in traced]) - metrics["wall_s"] if traced else 0.0
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "wall_s": [p["wall_s"] for p in plain],
            "setup_s": [p["setup_s"] for p in plain],
            "traced_wall_s": [p["wall_s"] for p in traced],
        },
        "failures": [f for p in passes for f in p["failures"]],
        "warnings": sum(p.get("warnings", 0) for p in good),
        "absent": sorted({a for p in traced for a in p.get("absent", [])}),
    }


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip()
         for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches}


def provenance(workload, seed, passes) -> dict:
    sample = next((p for p in passes if "run" in p), {})
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "machine": machine(),
        "software": sample.get("software", {}),
        "run": {
            "git_commit": git_commit(), "workload": workload, "seed": seed,
            **sample.get("run", {}), "thread_env": THREAD_ENV,
        },
        "code_size": {"src_py_lines": src_lines},
    }


def print_report(workload, seed, trace, summary, prov) -> None:
    m, s = summary["metrics"], summary["samples"]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {s['passes']} untraced, {s['traced_passes']} traced")
    for name, unit, _ in END_TO_END + REPORT_ONLY:
        print(f"  {name:<40} {m[name]:>14.6g} {unit}")
    if trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<40} {m[name]:>14.6g} {unit}")
    print(f"  operations {summary['attempted']} attempted, {summary['failed']} failed; "
          f"{summary['warnings']} warnings")
    for name in summary["absent"]:
        print(f"  absent: {name}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  provenance: {json.dumps(prov)}")


def run_workload(workload, seed, seconds, trace, smoke) -> dict:
    passes = run_passes(workload, seed, seconds, trace, smoke)
    summary = summarize(passes)
    prov = provenance(workload, seed, passes)
    print_report(workload, seed, trace, summary, prov)
    record = OUT / workload / f"result-seed{seed}-trace{int(trace)}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**summary, "provenance": prov}, indent=1), encoding="utf-8")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test only")
    args = parser.parse_args()
    if not (ROOT / "src" / "riscap" / "__init__.py").is_file():
        print(f"error: no riscap source tree at {ROOT / 'src' / 'riscap'}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    metric_names = [n for n, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
               for w in workloads}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    metrics = {
        name if args.workload else f"{w}.{name}": {
            "value": r["metrics"][name], "unit": units[name]
        }
        for w, r in results.items()
        for name in metric_names
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
