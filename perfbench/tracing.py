"""Span tracer for the benchmark's traced passes.

The tracer replaces public riscap functions with wrappers, at the module
attribute through which their caller looks them up (``cli`` resolves
``load_scenario`` in ``riscap.cli``, ``run_scenario`` resolves ``resolve``
in ``riscap.workbench``, and so on).  Each wrapped call records one span:
name, start, end, parent span and thread.  Spans stay in memory and are
written out when the pass ends.

A span started on a thread with no open span of its own (a Monte Carlo
worker thread) takes as parent the innermost open span of the main thread,
which is the call that is blocked waiting for the workers.

A wrapped name that no longer exists is reported as absent; so is a count
whose source no longer has the expected shape.  Neither is an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time


def _elements(panels) -> int:
    return sum(p.beta_inv.size for p in panels)


def _count_simulate_ec(args, result) -> dict:
    cfg, elements = args["cfg"], _elements(args["ensemble"].panels)
    return {
        "elem_trials": cfg.trials * elements,
        "block_bytes": min(cfg.block_size, cfg.trials) * elements * 8,
        "workers": args["workers"],
    }


# (module the caller looks the name up in, attribute, span name, counter).
# A counter maps (bound arguments, result) to named counts for the span.
WRAPS = (
    ("riscap.cli", "main", "cli.main", None),
    ("riscap.cli", "load_scenario", "scenario.load_scenario", None),
    ("riscap.cli", "preset_with", "presets.preset_with", None),
    ("riscap.cli", "fig8_distributed_cases", "presets.fig8_distributed_cases", None),
    ("riscap.cli", "run_sweep", "workbench.run_sweep", None),
    ("riscap.cli", "run_scenario", "workbench.run_scenario", None),
    ("riscap.cli", "rows_to_csv", "workbench.rows_to_csv", None),
    ("riscap.workbench", "apply_sweep_value", "workbench.apply_sweep_value", None),
    ("riscap.workbench", "run_scenario", "workbench.run_scenario", None),
    (
        "riscap.workbench",
        "resolve",
        "workbench.resolve",
        lambda a, r: {
            "elements": sum(ps.panel.element_count for ps in a["scenario"].panels)
        },
    ),
    ("riscap.workbench", "panel_link", "geometry.panel_link", None),
    ("riscap.workbench", "near_field_boundary", "geometry.near_field_boundary", None),
    (
        "riscap.workbench",
        "element_links",
        "geometry.element_links",
        lambda a, r: {"elements": len(r)},
    ),
    ("riscap.workbench", "direct_pathloss", "pathloss.direct_pathloss", None),
    ("riscap.workbench", "beta0_reference", "pathloss.beta0_reference", None),
    ("riscap.workbench", "farfield_pathloss", "pathloss.farfield_pathloss", None),
    ("riscap.workbench", "rician_mean_envelope", "channel.rician_mean_envelope", None),
    ("riscap.workbench", "distributed_moments", "moments.distributed_moments", None),
    (
        "riscap.workbench",
        "distributed_noise_variance",
        "moments.distributed_noise_variance",
        None,
    ),
    ("riscap.workbench", "simulate_ec", "montecarlo.simulate_ec", _count_simulate_ec),
    ("riscap.capacity", "capacity_report", "capacity.capacity_report", None),
    ("riscap.capacity", "ergodic_capacity", "capacity.ergodic_capacity", None),
    (
        "riscap.montecarlo",
        "sample_rician_envelope",
        "channel.sample_rician_envelope",
        lambda a, r: {"draws": int(r.size)},
    ),
)

# Per-layer metrics of a traced pass: (name, unit, better).
PER_LAYER = (
    ("scenario.load_scenario.calls", "count", "lower"),
    ("scenario.load_scenario.s", "s", "lower"),
    ("geometry.element_links.s", "s", "lower"),
    ("geometry.element_links.elements", "count", "lower"),
    ("workbench.resolve.calls", "count", "lower"),
    ("workbench.resolve.s", "s", "lower"),
    ("workbench.resolve.self_s", "s", "lower"),
    ("workbench.resolve.ns_per_element", "ns", "lower"),
    ("moments.distributed_moments.s", "s", "lower"),
    ("moments.distributed_noise_variance.s", "s", "lower"),
    ("capacity.capacity_report.calls", "count", "lower"),
    ("capacity.capacity_report.s", "s", "lower"),
    ("capacity.ergodic_capacity.s", "s", "lower"),
    ("channel.sample_rician_envelope.calls", "count", "lower"),
    ("channel.sample_rician_envelope.s", "s", "lower"),
    ("channel.sample_rician_envelope.draws", "count", "lower"),
    ("montecarlo.simulate_ec.calls", "count", "lower"),
    ("montecarlo.simulate_ec.s", "s", "lower"),
    ("montecarlo.simulate_ec.self_s", "s", "lower"),
    ("montecarlo.ns_per_element_trial", "ns", "lower"),
    ("montecarlo.worker_busy_frac", "ratio", "higher"),
    ("montecarlo.bytes_per_block_computed", "B", "lower"),
    ("workbench.run_sweep.calls", "count", "lower"),
    ("workbench.rows_to_csv.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        # Each span: [name, start, end, parent index or None, thread, counts]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def install(self) -> None:
        for module_name, attr, span_name, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span_name, counter))

    def _wrap(self, fn, span_name, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if main_stack else None
            span = [span_name, 0.0, 0.0, parent, thread, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = _count(signature, counter, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "thread", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"absent": self.absent, "spans": [dict(zip(keys, s)) for s in self.spans]},
                fh,
            )


def _count(signature, counter, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    try:
        return counter(bound.arguments, result)
    except (AttributeError, KeyError, TypeError):
        return None  # the counted structure changed shape: count absent


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s).

    Self time is a span's duration minus the union of its children's
    intervals.  Times summed over spans of one name add up worker threads,
    so they are busy time, not wall time.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        start, end = spans[i][1], spans[i][2]
        covered = [
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
        ]
        return duration(i) - _union_length([iv for iv in covered if iv[1] > iv[0]])

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def seconds(name):
        return sum(duration(i) for i in named(name))

    def self_seconds(name):
        return sum(self_time(i) for i in named(name))

    def counted(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    busy = capacity = 0.0
    for i in named("montecarlo.simulate_ec"):
        per_thread: dict[int, list] = {}
        for c in children.get(i, ()):
            per_thread.setdefault(spans[c][4], []).append((spans[c][1], spans[c][2]))
        busy += sum(_union_length(iv) for iv in per_thread.values())
        capacity += (spans[i][5] or {}).get("workers", 1) * duration(i)
    block_bytes = [
        (spans[i][5] or {}).get("block_bytes", 0) for i in named("montecarlo.simulate_ec")
    ]

    resolve_s = seconds("workbench.resolve")
    simulate_s = seconds("montecarlo.simulate_ec")
    return {
        "scenario.load_scenario.calls": len(named("scenario.load_scenario")),
        "scenario.load_scenario.s": seconds("scenario.load_scenario"),
        "geometry.element_links.s": seconds("geometry.element_links"),
        "geometry.element_links.elements": counted("geometry.element_links", "elements"),
        "workbench.resolve.calls": len(named("workbench.resolve")),
        "workbench.resolve.s": resolve_s,
        "workbench.resolve.self_s": self_seconds("workbench.resolve"),
        "workbench.resolve.ns_per_element": 1e9
        * ratio(resolve_s, counted("workbench.resolve", "elements")),
        "moments.distributed_moments.s": seconds("moments.distributed_moments"),
        "moments.distributed_noise_variance.s": seconds(
            "moments.distributed_noise_variance"
        ),
        "capacity.capacity_report.calls": len(named("capacity.capacity_report")),
        "capacity.capacity_report.s": seconds("capacity.capacity_report"),
        "capacity.ergodic_capacity.s": seconds("capacity.ergodic_capacity"),
        "channel.sample_rician_envelope.calls": len(
            named("channel.sample_rician_envelope")
        ),
        "channel.sample_rician_envelope.s": seconds("channel.sample_rician_envelope"),
        "channel.sample_rician_envelope.draws": counted(
            "channel.sample_rician_envelope", "draws"
        ),
        "montecarlo.simulate_ec.calls": len(named("montecarlo.simulate_ec")),
        "montecarlo.simulate_ec.s": simulate_s,
        "montecarlo.simulate_ec.self_s": self_seconds("montecarlo.simulate_ec"),
        "montecarlo.ns_per_element_trial": 1e9
        * ratio(simulate_s, counted("montecarlo.simulate_ec", "elem_trials")),
        "montecarlo.worker_busy_frac": ratio(busy, capacity),
        "montecarlo.bytes_per_block_computed": max(block_bytes, default=0),
        "workbench.run_sweep.calls": len(named("workbench.run_sweep")),
        "workbench.rows_to_csv.s": seconds("workbench.rows_to_csv"),
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": self_seconds("cli.main"),
    }
