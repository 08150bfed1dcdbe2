#!/usr/bin/env python3
"""The loopverify benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
The steps:

1. Generate the first timed round's inputs from the seed and time
   set-up (import loopverify, load and validate every input once) in
   several fresh interpreters; `setup_s` is their median.
2. Start the workload child (child.py) in a fresh interpreter under an
   address-space cap and a wall-clock limit. It warms up on inputs of
   its own, then runs whole rounds of ops as a closed loop with one
   client until S seconds have passed, and with --trace 1 one more round
   under the tracer (tracer.py).
3. Check every op's output (checks.py): the golden file for the default
   seed, the independent oracles in tests/oracles.py for other seeds.
4. Print each metric with its unit and sample count, then, as the last
   line, one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
# set-ups timed before and after the workload child, after one untimed
# set-up that fills the bytecode cache; spreading them over the run keeps
# a short burst of machine noise from moving their median
SETUP_REPEATS = (4, 5)
# the child is killed this long after the start, which leaves time for
# the checks: every run ends within 180 s
CHILD_DEADLINE_S = 120.0
MIN_TAIL_SAMPLES = 100  # a p90 needs ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
RATES = {
    "synth.synthesize.candidates_per_s": ("synthesize", "searched", "candidates"),
    "montecarlo.simulate.runs_per_s": ("simulate", "runs", "runs"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")]
    )
    # one BLAS thread: the loop has one client, and the address-space cap
    # must not be spent on thread stacks
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def write_setup_inputs(ops, workdir) -> str:
    listing = os.path.join(workdir, "setup-inputs.json")
    with open(listing, "w", encoding="utf-8") as handle:
        json.dump(
            {"ops": [[op["domain"], op.get("controller"), op.get("scenario")] for op in ops]},
            handle,
        )
    return listing


def measure_setup(listing, repeats) -> list:
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), ROOT, listing],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_child(args, workdir, records, deadline) -> tuple:
    """Run the workload child; returns (records, summary or None, note)."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--root", ROOT,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--records", records,
    ] + (["--tiny"] if args.tiny else [])
    note = ""
    with open(os.path.join(workdir, "child.log"), "w", encoding="utf-8") as log:
        child = subprocess.Popen(command, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            child.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            note = "workload child killed at the wall-clock limit"
    if child.returncode and not note:
        note = f"workload child exited {child.returncode}"
    rows, summary = [], None
    if os.path.exists(records):
        with open(records, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if row.get("summary"):
                    summary = row
                else:
                    rows.append(row)
    return rows, summary, note


def percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--golden", help="golden file to check against instead of golden/")
    args = parser.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "loopverify", "cli.py")):
        return fail(f"no loopverify sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        return fail("tests/oracles.py is missing; outputs cannot be checked")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import workloads
    from checks import Checker

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    os.chdir(ROOT)
    # the inputs stay on disk after the run: on a file system that discards
    # freed blocks synchronously, deleting them costs tens of ms a file
    workdir = os.path.join("perfbench", ".work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    first = workloads.round_ops(args.workload, args.seed, "timed", 1, workdir, args.tiny)
    listing = write_setup_inputs(first, workdir)
    before, after = (0, 1) if args.tiny else SETUP_REPEATS
    setup = measure_setup(listing, before + 1)[1:]
    records = os.path.join(workdir, "records.jsonl")
    rows, summary, note = run_child(args, workdir, records, started + CHILD_DEADLINE_S)
    setup += measure_setup(listing, after)
    return report(args, Checker, setup, rows, summary, note)


def load_golden(args):
    if args.tiny:
        return None
    path = args.golden or os.path.join(HERE, "golden", f"{args.workload}.json")
    if args.seed != DEFAULT_SEED and not args.golden:
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["rounds"]


def report(args, Checker, setup, rows, summary, note) -> int:
    checker = Checker(load_golden(args))
    failures = []
    check_start = perf_counter()
    for row in rows:
        problems = checker.problems(row["op"], row)
        if problems:
            failures.append((row, problems))
    check_s = perf_counter() - check_start

    timed = [row for row in rows if row["stream"] == "timed"]
    rounds = summary["timed_rounds"] if summary else max([r["round"] for r in timed], default=0)
    if summary is None:
        # the op in flight when the child died counts as failed
        timed.append({"stream": "timed", "seconds": float("nan"), "kind": "?", "doc": None})
        failures.append((timed[-1], [note or "workload child ended without a summary"]))
    else:
        # only whole rounds are measured
        timed = [row for row in timed if row["round"] <= rounds]
    failed_timed = sum(1 for row, _ in failures if row["stream"] == "timed")
    attempted = len(timed)
    seconds = [row["seconds"] for row in timed if math.isfinite(row["seconds"])]
    busy = sum(seconds)
    # a typical round: each slot's median over the rounds, so a burst of
    # machine noise during one op does not move the throughput
    slots = {}
    for row in timed:
        if math.isfinite(row["seconds"]):
            slots.setdefault(row["index"], []).append(row["seconds"])
    typical = [statistics.median(times) for times in slots.values()]
    typical_round = sum(typical)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{rounds} whole rounds of {attempted // max(rounds, 1)} ops, {attempted} timed ops, "
          f"{busy:.2f} s busy; checks took {check_s:.1f} s")
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(slots) / typical_round if typical_round else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(typical) if typical else 0.0,
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0 if summary else 0.0,
    }
    bases = {
        "setup_s": f"median of {len(setup)} set-ups in fresh interpreters, before and after the child",
        "ops_per_s": f"{len(slots)} ops per round / {typical_round:.3f} s, the sum of each op slot's median over {rounds} rounds",
        "op_p50_ms": f"median op of that typical round; n={len(seconds)} ops",
        "peak_rss_mb": "workload child, warm-up and timed rounds",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:>12.4f} {unit:<5} {bases[name]}")
    if len(seconds) >= MIN_TAIL_SAMPLES:
        print(f"  {'op_p90_ms':<14} {1000.0 * percentile(seconds, 90):>12.4f} {'ms':<5} n={len(seconds)}")
    else:
        print(f"  {'op_p90_ms':<14} {'n/a':>12} {'ms':<5} n={len(seconds)} < {MIN_TAIL_SAMPLES}")
    print(f"  {'fail_ratio':<14} {failed_timed / max(attempted, 1):>12.4f} {'ratio':<5} "
          f"{failed_timed} failed of {attempted} attempted")
    rates = {}
    for name, (kind, field, what) in RATES.items():
        picked = [row for row in timed if row["kind"] == kind and row["doc"]]
        spent = sum(row["seconds"] for row in picked)
        count = sum(row["doc"][field] for row in picked)
        rates[name] = count / spent if spent else 0.0
        if picked:
            print(f"  {name.split('.')[-1]:<14} {rates[name]:>12.1f} {'1/s':<5} {count} {what} / {spent:.3f} s in {len(picked)} {kind} ops")
    for row, problems in failures[:20]:
        where = f"{row.get('stream')}-{row.get('round')}.{row.get('index')} {row.get('slot')}"
        stderr = row.get("stderr", "").strip()
        print(f"  FAILED {where}: {'; '.join(problems)}" + (f" (stderr: {stderr})" if stderr else ""))
    if note:
        print(f"  note: {note}")

    if args.trace:
        traced = [row["seconds"] for row in rows if row["stream"] == "traced"]
        traced_ops_per_s = len(traced) / sum(traced) if traced else 0.0
        metrics, units = layer_metrics(summary, rates, metrics["ops_per_s"], traced_ops_per_s)
    else:
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_timed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(summary, rates, untraced_ops_per_s, traced):
    """Per-layer values from the traced round, plus the untraced rates
    and the tracing overhead. Absent metrics print as absent and carry 0."""
    layers = (summary or {}).get("layers", {})
    values, units = {}, {}
    print(f"  per-layer, one traced round; trace written to {(summary or {}).get('trace_file')}")
    for name, (value, unit, base) in layers.items():
        values[name], units[name] = (value if value is not None else 0.0), unit
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"    {name:<40} {shown:>14} {unit:<6} {base}")
    for name, value in rates.items():
        values[name], units[name] = value, "1/s"
    overhead = untraced_ops_per_s / traced if traced else 0.0
    values["tracing.overhead_ratio"], units["tracing.overhead_ratio"] = overhead, "ratio"
    print(f"    {'tracing.overhead_ratio':<40} {overhead:>14.4f} {'ratio':<6} "
          f"untraced {untraced_ops_per_s:.3f} ops/s over traced {traced:.3f} ops/s")
    if summary and summary.get("absent"):
        print(f"    absent names: {', '.join(summary['absent'])}")
    return values, units


if __name__ == "__main__":
    sys.exit(main())
