#!/usr/bin/env python3
"""Build the golden files of the default seed.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs the warm-up round, the first N timed rounds and the traced round of
each workload in this process, cross-checks every output against the
independent oracles in tests/oracles.py (the costly ones included), and
writes golden/<workload>.json with the exit code and a hash of the --json
bytes of every op. Any oracle disagreement aborts without writing. Run
it only on a commit whose outputs are to be pinned.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from child import run_op  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

# about three times the timed rounds a 15-second window held when the
# files were built; later rounds fall back to the oracles
ROUNDS = {"exact_scaled": 36, "belief_scaled": 24, "synth_stream": 15, "montecarlo": 12}


def build(workload, cli, checker, workdir) -> dict:
    streams = [("warm", 1)] + [("timed", r) for r in range(1, ROUNDS[workload] + 1)] + [("traced", 1)]
    pinned = {}
    for stream, rnd in streams:
        entries = []
        for op in workloads.round_ops(workload, DEFAULT_SEED, stream, rnd, workdir):
            record = run_op(cli, op)
            problems = checker.problems(op, record)
            if problems:
                raise SystemExit(f"{workload} {stream}-{rnd}.{op['index']} {op['slot']}: {problems}")
            entries.append([record["code"], record["sha"]])
        pinned[f"{stream}-{rnd}"] = entries
        print(f"{workload} {stream}-{rnd}: {len(entries)} ops checked", flush=True)
    return pinned


def write(path, workload, rounds) -> None:
    """One line per round: [exit code, hash] for each op in order."""
    lines = [f"  {json.dumps(key)}: {json.dumps(entries)}" for key, entries in rounds.items()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"workload": "{workload}", "seed": {DEFAULT_SEED}, "rounds": {{\n')
        handle.write(",\n".join(lines) + "\n}}\n")


def main() -> int:
    os.chdir(ROOT)
    from loopverify import cli

    checker = Checker(costly=True)
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        rounds = build(workload, cli, checker, os.path.join("perfbench", ".work", f"golden-{workload}"))
        write(os.path.join(HERE, "golden", f"{workload}.json"), workload, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
