"""Smoke check: every workload at a tiny size reports every named metric.

    python3 perfbench/smoke.py

Runs ``run.py`` on each workload of ``BENCHMARK.json`` with a 6-example
split, untraced and traced, and fails unless each run exits 0, checks out
correct, and its last line carries exactly the metrics (with their units)
that ``BENCHMARK.json`` names for that mode. A traced run fails when one
of its shim targets is gone from mathgrid, so a renamed function shows
here too. It also checks that ``metric_map.json`` maps every per-layer
metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapped = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))["per_layer"]
    failures = [
        f"metric_map.json does not map {m['name']}"
        for m in bench["per_layer"]
        if m["name"] not in mapped
    ]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--examples", "6",
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {result}")
            if units != expected[trace]:
                failures.append(f"{label}: metrics {units}, expected {expected[trace]}")
            print(f"ok {label}" if not failures else f"FAIL {label}", flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
