"""Self-check of the benchmark at tiny size.

Runs every workload of ``BENCHMARK.json`` in both modes with
``--size tiny`` and checks that each run exits 0, reports correct
outputs, and prints exactly the metric names ``BENCHMARK.json`` lists
(``end_to_end`` untraced, ``per_layer`` traced), each with its unit.
Run from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=170
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: outputs not all correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{where}: metrics differ from BENCHMARK.json"
                                f" (missing {missing}, extra {extra}) "
                                "or units differ")
            print(f"ok {where}" if not problems else f"checked {where}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
