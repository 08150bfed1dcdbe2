#!/usr/bin/env python3
"""Compare the CLI output of the working tree with that of a revision.

    python3 scripts/differential.py --base REV --pairs N

Writes N (domain, controller) pairs once, at seed 0, from the working
tree's tests/generators.py: the domains alternate `random_domain` and
`noisy_sensing_domain`, each with a `random_controller(max_states=4)`.
For each pair it also writes three scenarios, at seed 1, that walk the
controller from its initial state for 1-8 steps: a physical step names
one of its declared outcomes or none, a sensing step one of its
declared reading tokens, and about 5% of the steps name a random
declared action instead or drop their reading. The walks read only the
controller and the declarations, so both sides replay the same files.
Unpacks `git archive REV` into a temporary directory outside the
checkout. On every pair, both sides run `verify --json` for each
criterion in the working tree's `loopverify.synth.CRITERIA` (K = 0.5,
at `--depth-bound 8`), `synthesize --json` on the pair's domain for each
of those criteria at `--max-states 2`, and `simulate --json`, with and
without `--track-belief`. Each scenario is replayed by `trace --json`
from an initial world of the pair drawn as `--real`, under a random
combination of `--poss-at-real` and `--real-intended`, with and without
`--trace-particles`. Each side runs all its commands in one worker
interpreter that calls `loopverify.cli.main` in process, and the two
workers get different PYTHONHASHSEEDs, so output that depends on hash
order shows up as a difference.

Prints every difference in exit code, stdout or stderr, and exits 1 if
there is any, else 0. A command that raises is recorded as its exception
type and message, not its traceback, whose line numbers differ between
revisions. `export` is not covered.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from generators import noisy_sensing_domain, random_controller, random_domain  # noqa: E402

from loopverify import NULL_OBSERVATION, parse_domain, to_json_dict  # noqa: E402
from loopverify.synth import CRITERIA  # noqa: E402

DEPTH_BOUND = "8"
RUNS = "20"
SCENARIOS = 3  # per pair
NOISE = 0.05  # share of scenario steps that name a wrong action or drop the reading

# reads one JSON argv list per line of stdin and writes one JSON line
# [exit code, stdout, stderr] per command; argv[1] is the side's root
WORKER = r"""
import contextlib, io, json, os, sys
import loopverify
from loopverify import cli
root = os.path.realpath(sys.argv[1])
if not os.path.realpath(loopverify.__file__).startswith(root + os.sep):
    sys.exit(f"loopverify imported from {loopverify.__file__}, not from {root}")
reply = sys.stdout
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised " + type(exc).__name__ + ": " + str(exc)
    reply.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\n")
    reply.flush()
"""


def walk(rng: random.Random, domain, controller) -> list:
    """A scenario that walks `controller` from its initial state for 1-8
    steps, reading only the controller and the domain's declarations."""
    steps = []
    control = controller.initial
    for _ in range(rng.randint(1, 8)):
        action = controller.advice.get(control)
        if action is None:
            break
        step = {"advised_action": action}
        if domain.actions[action].kind == "physical":
            model = domain.outcome_models.get(action)
            outcomes = [o.action for o in model.outcomes] if model else [action]
            step["actual_outcome"] = rng.choice(outcomes + [None])
            obs = NULL_OBSERVATION
        else:
            reading = rng.choice(domain.sensing_models[action].readings)
            step["reading"] = reading.token
            obs = reading.observation
        if rng.random() < NOISE:
            if "reading" in step and rng.random() < 0.5:
                del step["reading"]
            else:
                step["advised_action"] = rng.choice(list(domain.actions))
        steps.append(step)
        control = controller.transitions.get((control, obs))
    return steps


def write_pairs(directory: str, count: int) -> list:
    """(domain path, controller path, traces) for `count` pairs written
    into `directory` from the working tree's generators; each trace is a
    (scenario path, --real world, flags) for one scenario walk."""
    rng, walk_rng = random.Random(0), random.Random(1)
    pairs = []
    for i in range(count):
        data = (random_domain if i % 2 == 0 else noisy_sensing_domain)(rng)
        domain = parse_domain(data)
        controller = random_controller(rng, domain, max_states=4)
        documents = {"d": data, "c": to_json_dict(controller)}
        traces = []
        for k in range(SCENARIOS):
            documents[f"s{k}"] = walk(walk_rng, domain, controller)
            real = walk_rng.choice(domain.initial_worlds)[0].as_dict()
            flags = [f for f in ("--poss-at-real", "--real-intended") if walk_rng.random() < 0.5]
            traces.append((os.path.join(directory, f"{i}-s{k}.json"), json.dumps(real), flags))
        for kind, document in documents.items():
            with open(os.path.join(directory, f"{i}-{kind}.json"), "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        pairs.append((*(os.path.join(directory, f"{i}-{kind}.json") for kind in "dc"), traces))
    return pairs


def commands(pairs: list) -> list:
    argvs = []
    for i, (domain, controller, traces) in enumerate(pairs):
        for criterion in CRITERIA:
            criterion = criterion.replace("K", "0.5")
            argvs.append(["verify", domain, controller, "--criterion", criterion,
                          "--depth-bound", DEPTH_BOUND, "--json"])
            argvs.append(["synthesize", domain, "--criterion", criterion,
                          "--max-states", "2", "--json"])
        for extra in ([], ["--track-belief"]):
            argvs.append(["simulate", domain, controller, "--runs", RUNS,
                          "--seed", str(i), "--json", *extra])
        for scenario, real, flags in traces:
            for extra in ([], ["--trace-particles"]):
                argvs.append(["trace", domain, controller, "--scenario", scenario,
                              "--real", real, "--json", *flags, *extra])
    return argvs


def start_worker(root: str, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=hash_seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, root],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
    )


def unpack(rev: str, directory: str) -> None:
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    unpacked = subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or unpacked.returncode:
        sys.exit(f"cannot unpack revision {rev!r}")


def report(argv: list, base: list, head: list) -> None:
    shown = (os.path.basename(a) if a.endswith(".json") else a for a in argv)
    print("difference: loopverify " + " ".join(shown))
    for name, old, new in zip(("exit code", "stdout", "stderr"), base, head):
        if old == new:
            continue
        if not (isinstance(old, str) and isinstance(new, str)):
            print(f"  {name}: {old!r} (base) != {new!r} (working tree)")
            continue
        lines = difflib.unified_diff(
            old.splitlines(), new.splitlines(), "base", "working tree", lineterm=""
        )
        print(f"  {name}:")
        for line in list(lines)[:40]:
            print("    " + line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare with")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as base:
        unpack(args.base, base)
        argvs = commands(write_pairs(inputs, args.pairs))
        workers = [start_worker(base, "1"), start_worker(ROOT, "2")]
        differences = 0
        try:
            for argv in argvs:
                results = []
                for worker in workers:
                    worker.stdin.write(json.dumps(argv) + "\n")
                    worker.stdin.flush()
                for worker in workers:
                    line = worker.stdout.readline()
                    if not line:
                        sys.exit("a worker stopped early")
                    results.append(json.loads(line))
                if results[0] != results[1]:
                    differences += 1
                    report(argv, *results)
        finally:
            for worker in workers:
                worker.stdin.close()
                worker.wait()
    print(f"{len(argvs)} commands on {args.pairs} pairs against {args.base}: "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
