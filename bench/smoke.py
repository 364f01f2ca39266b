"""Smoke check: every workload, plain and traced, at tiny sizes.

Usage: python3 bench/smoke.py

Runs ``bench/run.py --scale smoke`` for each workload in BENCHMARK.json
with ``--trace 0`` and ``--trace 1`` at the default seed, so the recorded
outputs are checked too, and verifies that each run exits 0 with no
failed op and that its last line reports exactly the metrics
BENCHMARK.json lists, with their units.  Takes well under a minute; it is not part of the test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            command = [sys.executable, "bench/run.py", "--workload", workload["name"], "--scale", "smoke",
                       "--seconds", "0.5", "--trace", str(trace)]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                problems.append(f"{label}: exit {completed.returncode}\n{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"] or result["failed"]:
                problems.append(f"{label}: bad result line {lines[-1][:300]}")
            if units != {entry["name"]: entry["unit"] for entry in listed}:
                problems.append(f"{label}: metrics {sorted(units.items())} differ from BENCHMARK.json")
            print(f"ok {label}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
