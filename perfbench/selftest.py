"""Self-test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload in ``run.py`` it runs
``run.py --tiny`` with ``--trace 0`` and ``--trace 1`` and asserts that the
run exits 0, that its correctness checks ran and passed, and that the last
line names every metric ``BENCHMARK.json`` declares for that mode, with its
unit. Takes about a minute and a half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"correct={result['correct']} failed={result['failed']}")
            if not any(line.startswith("checks passed:") for line in lines):
                problems.append("no correctness checks reported")
            for name, unit in expected[trace].items():
                if got.get(name) != unit:
                    problems.append(f"{name}: expected unit {unit}, got {got.get(name)}")
            print(f"{label}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}")
            if problems:
                failures.append(label)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
