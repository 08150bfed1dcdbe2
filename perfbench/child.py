"""Workload child: runs the ops of one workload in one process.

Started by run.py in a fresh interpreter. It caps its own address space,
runs one warm-up round on inputs of its own, then whole timed rounds as a
closed loop with one client until the time budget is spent, and, when
asked, one traced round. Every op is an in-process call of
`loopverify.cli.main` with stdout captured; the record of each op (exit
code, output digest, seconds, error) is appended to a JSON-lines file as
soon as the op ends, so the parent keeps every finished op if it has to
kill this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter

ADDRESS_SPACE_BYTES = 2560 * 2**20
OP_TIMEOUT_S = 60.0


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that ran too long."""


def _alarm(_signum, _frame):
    raise OpTimeout()


def digest(kind, document) -> dict:
    """The parts of a --json document the checks read; witness traces and
    step lists are dropped because only their hash is compared."""
    if kind == "verify":
        document["witnesses"] = len(document.get("witnesses", ()))
        document.pop("witness", None)
    elif kind == "trace":
        document["steps"] = len(document["steps"])
    return document


def run_op(cli, op, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    if tracer is not None:
        tracer.begin_op(f"{op['stream']}-{op['round']}.{op['index']}")
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except SystemExit as exc:
        code = exc.code
    except OpTimeout:
        error = f"timeout after {OP_TIMEOUT_S:.0f} s"
    except MemoryError:
        error = "MemoryError"
    except Exception:  # an engine bug must count as a failed op, not end the run
        error = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = out.getvalue()
    record = {
        "op": op,
        "stream": op["stream"],
        "round": op["round"],
        "index": op["index"],
        "slot": op["slot"],
        "kind": op["kind"],
        "seconds": seconds,
        "code": code,
        "error": error,
        "sha": hashlib.sha256(text.encode()).hexdigest()[:16],
        "stderr": err.getvalue()[-300:],
        "doc": None,
    }
    if error is None:
        try:
            record["doc"] = digest(op["kind"], json.loads(text))
        except (ValueError, KeyError, TypeError):
            record["error"] = "stdout is not the expected JSON document"
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    sys.setrecursionlimit(10_000)
    os.chdir(args.root)

    from loopverify import cli

    import workloads

    rounds = {"warm": 0, "timed": 0, "traced": 0}
    with open(args.records, "w", encoding="utf-8") as sink:

        def run_round(stream, tracer=None):
            rounds[stream] += 1
            ops = workloads.round_ops(
                args.workload, args.seed, stream, rounds[stream], args.workdir, args.tiny
            )
            for op in ops:
                sink.write(json.dumps(run_op(cli, op, tracer)) + "\n")
                sink.flush()

        run_round("warm")
        start = perf_counter()
        while True:
            run_round("timed")
            if perf_counter() - start >= args.seconds:
                break
        summary = {
            "summary": True,
            "timed_rounds": rounds["timed"],
            "window_s": perf_counter() - start,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                run_round("traced", tracer)
            finally:
                tracer.uninstall()
            trace_path = os.path.join(args.workdir, "..", f"trace-{args.workload}-s{args.seed}.json")
            tracer.dump(trace_path)
            summary["trace_file"] = os.path.relpath(trace_path, args.root)
            summary["layers"] = tracer.metrics()
            summary["absent"] = sorted(tracer.absent)
            summary["dropped_spans"] = tracer.dropped
        sink.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
