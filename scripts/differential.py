#!/usr/bin/env python3
"""Compare the CLI output of the working tree with that of a revision.

    python3 scripts/differential.py --base REV --pairs N

Writes N (domain, controller) pairs once, at seed 0, from the working
tree's tests/generators.py: the domains alternate `random_domain` and
`noisy_sensing_domain`, each with a `random_controller(max_states=4)`.
Unpacks `git archive REV` into a temporary directory outside the
checkout. On every pair, both sides run `verify --json` for each
criterion in the working tree's `loopverify.synth.CRITERIA` (K = 0.5,
at `--depth-bound 8`) and `simulate --json`, with and without
`--track-belief`. Each side runs all its commands in one worker
interpreter that calls `loopverify.cli.main` in process, and the two
workers get different PYTHONHASHSEEDs, so output that depends on hash
order shows up as a difference.

Prints every difference in exit code, stdout or stderr, and exits 1 if
there is any, else 0. A command that raises is recorded as its exception
type and message, not its traceback, whose line numbers differ between
revisions. `trace` is not covered, because the generators write no
scenarios; neither are `synthesize` and `export`.
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

from loopverify import parse_domain, to_json_dict  # noqa: E402
from loopverify.synth import CRITERIA  # noqa: E402

DEPTH_BOUND = "8"
RUNS = "20"

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


def write_pairs(directory: str, count: int) -> list:
    """The paths of `count` (domain, controller) files written into
    `directory` from the working tree's generators."""
    rng = random.Random(0)
    pairs = []
    for i in range(count):
        data = (random_domain if i % 2 == 0 else noisy_sensing_domain)(rng)
        controller = random_controller(rng, parse_domain(data), max_states=4)
        paths = tuple(os.path.join(directory, f"{i}-{kind}.json") for kind in ("d", "c"))
        for path, document in zip(paths, (data, to_json_dict(controller))):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
        pairs.append(paths)
    return pairs


def commands(pairs: list) -> list:
    argvs = []
    for i, (domain, controller) in enumerate(pairs):
        for criterion in CRITERIA:
            argvs.append(["verify", domain, controller, "--criterion",
                          criterion.replace("K", "0.5"), "--depth-bound", DEPTH_BOUND, "--json"])
        for extra in ([], ["--track-belief"]):
            argvs.append(["simulate", domain, controller, "--runs", RUNS,
                          "--seed", str(i), "--json", *extra])
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
