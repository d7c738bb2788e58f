"""Regenerate reference.json: the analytic outputs the benchmark checks.

    python3 perfbench/make_reference.py

Runs every preset and every variant of every generated scenario with
``--no-mc`` through ``riscap.cli.main`` and stores the analytic columns
(sweep_value, ec_approx, ec_ub, ec_lb, gamma_teff, d_boundary_m, mode).
Regenerate only when a change is meant to move these numbers, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workload


def main() -> int:
    workload.import_riscap()
    from riscap import capacity, cli

    # The logscale_retry scenario exists to exercise the quadrature's
    # log-scale retry; confirm that it does, on every variant.
    retries = []
    logscale = capacity._survival_integral_logscale

    def spy(a, c):
        retries.append((a, c))
        return logscale(a, c)

    capacity._survival_integral_logscale = spy

    reference = {}
    commands = [(("preset", name, "--no-mc"), f"preset/{name}", "csv") for name in workload.PRESETS]
    with tempfile.TemporaryDirectory(dir=workload.HERE) as tmp:
        for key in workload.GENERATED:
            for variant in range(workload.VARIANTS):
                path, _ = workload.write_scenario(key, variant, Path(tmp))
                commands.append((("analyze", path, "--no-mc"), f"{key}/v{variant}", "report"))
        for argv, ref_key, kind in commands:
            retries.clear()
            text, error, _ = workload.run_op(cli, argv)
            if error is not None:
                raise SystemExit(f"{ref_key}: {error}")
            if ref_key.startswith("logscale_retry/") and not retries:
                raise SystemExit(f"{ref_key}: the log-scale retry did not run")
            rows = workload.parse_output(kind, text)
            reference[ref_key] = [workload.analytic_row(row) for row in rows]
    workload.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} entries to {workload.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
