#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Every workload in tiny mode, with --trace 0 and --trace 1, must print
   a last line carrying every end-to-end and every per-layer metric that
   BENCHMARK.json names, with no failed op.
2. A copy of the exact_scaled golden file with one corrupted entry must
   make that op fail: fail_ratio above 0 and "correct" false.

Exits 0 when both hold, 1 otherwise. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            result = run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny")
            missing = names - set(result["metrics"])
            extra = set(result["metrics"]) - names
            if missing or extra:
                problems.append(f"{workload} --trace {trace}: missing {sorted(missing)}, extra {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} failed ops in tiny mode")
            print(f"{workload} --trace {trace}: {len(result['metrics'])} metrics, {result['attempted']} ops", flush=True)

    with open(os.path.join(HERE, "golden", "exact_scaled.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["rounds"]["timed-1"][0][1] = "0" * 16
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    corrupted = os.path.join(HERE, ".work", "corrupted-golden.json")
    with open(corrupted, "w", encoding="utf-8") as handle:
        json.dump(golden, handle)
    try:
        result = run("--workload", "exact_scaled", "--seed", "0", "--seconds", "1", "--golden", corrupted)
    finally:
        os.remove(corrupted)
    ratio = result["failed"] / result["attempted"]
    print(f"corrupted golden entry: fail_ratio {ratio:.4f} ({result['failed']} of {result['attempted']})")
    if not ratio > 0 or result["correct"]:
        problems.append("a corrupted golden entry did not raise fail_ratio above 0")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
