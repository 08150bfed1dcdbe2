"""Command-line front end.

Subcommands: verify, trace, simulate, synthesize, export. Exit codes:
0 the criterion holds (or the command produced its output), 1 it fails,
2 the checker could not decide within its bounds, 3 bad input. With
--json all results go to stdout as a single JSON document with no timing
fields, written exactly as `json.dumps(doc, sort_keys=True, indent=2)`
writes it: sorted keys, two-space indent, non-ASCII characters as
`\\uXXXX` escapes, one trailing newline. Equal inputs give byte-equal
output. The `--trace` file, the `--out-dir` files and `export --format
json` are written the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .belief import BeliefState
from .controller import (
    ControllerError,
    export_dot,
    load_controller,
    to_json_dict,
    validate,
)
from .exec_epistemic import (
    DEFAULT_DEPTH_BOUND,
    ScenarioError,
    load_scenario,
    run_scenario,
)
from .exec_exact import Verdict, VerifierInputError
from .montecarlo import simulate
from .synth import CriterionError, parse_criterion, synthesize
from .theory import DomainError, load_domain, read_json, world_from_dict

_EXIT = {"Holds": 0, "Fails": 1, "Unknown": 2}
_INPUT_ERROR = 3
_INFINITY = float("inf")


def _dumps(document) -> str:
    """`json.dumps(document, sort_keys=True, indent=2)`, byte for byte.

    That call cannot use CPython's C encoder, and a verdict repeats the
    same step in many witnesses. So the text of each list and dict is
    kept, keyed by its id and nesting level, and a container met again
    at the same level is written by one lookup. Ids are stable here
    because every container stays reachable from `document` until the
    call returns.
    """
    return _write(document, 0, {})


def _write(value, level: int, texts: dict) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    key = (id(value), level)
    text = texts.get(key)
    if text is not None:
        return text
    if isinstance(value, (list, tuple)):
        parts = [_write(item, level + 1, texts) for item in value]
        brackets = "[]"
    elif isinstance(value, dict):
        parts = [
            _quote(_key_text(k)) + ": " + _write(v, level + 1, texts)
            for k, v in sorted(value.items())
        ]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    text = brackets
    if parts:
        inner = "\n" + "  " * (level + 1)
        text = (
            brackets[0] + inner + ("," + inner).join(parts)
            + "\n" + "  " * level + brackets[1]
        )
    texts[key] = text
    return text


def _key_text(key) -> str:
    """A dict key as `json` turns it into a string before quoting it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _write(key, 0, {})
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _emit(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _trace_steps(trace, steps: dict, worlds: dict) -> list:
    """The steps of one witness trace. `steps` and `worlds` hold the
    dicts already built for this payload, so a step shared by several
    witnesses is one object, written once by `_dumps`."""
    out = []
    for cfg, action, obs in trace:
        # states 1, 1.0 and True are equal keys with different JSON text
        key = (type(cfg.control), cfg, action, obs)
        step = steps.get(key)
        if step is None:
            step = steps[key] = {
                "control": cfg.control,
                "action": action,
                "observation": obs,
                "world": _world_json(cfg.world, worlds),
            }
        out.append(step)
    return out


def _world_json(world, worlds: dict) -> dict:
    found = worlds.get(world)
    if found is None:
        found = worlds[world] = world.as_dict()
    return found


def _belief_json(belief: BeliefState, particles: bool) -> list:
    if not particles:
        return belief.as_dicts()
    dump = [
        {"state": world.as_dict(), "tag": tag, "weight": weight}
        for (world, tag), weight in belief.particles.items()
    ]
    dump.sort(key=lambda e: (sorted(e["state"].items()), e["tag"]))
    return dump


def _verdict_json(criterion: str, verdict: Verdict) -> dict:
    payload = {"criterion": criterion, "status": verdict.status, "note": verdict.note}
    steps, worlds = {}, {}
    if verdict.counterexample_world is not None:
        payload["counterexample_world"] = verdict.counterexample_world.as_dict()
    if verdict.witness is not None:
        payload["witness"] = _trace_steps(verdict.witness, steps, worlds)
    if verdict.witnesses:
        payload["witnesses"] = [
            {
                "world": _world_json(world, worlds),
                "trace": _trace_steps(trace, steps, worlds),
            }
            for world, trace in verdict.witnesses
        ]
    return payload


def _print_verdict(criterion: str, verdict: Verdict) -> None:
    print(f"{criterion}: {verdict.status}")
    if verdict.note:
        print(f"  note: {verdict.note}")
    if verdict.counterexample_world is not None:
        print(f"  counterexample world: {verdict.counterexample_world.as_dict()}")
    if verdict.witness is not None:
        for cfg, action, obs in verdict.witness:
            print(
                f"  step: control={cfg.control} action={action} "
                f"obs={obs} world={cfg.world.as_dict()}"
            )


def _modes(args) -> dict:
    """The belief-level mode arguments that --poss-at-real and
    --real-intended select."""
    return {
        "poss_mode": "real" if args.poss_at_real else "belief",
        "real_mode": "intended" if args.real_intended else "outcome",
    }


def _cmd_verify(args) -> int:
    domain = load_domain(args.domain)
    controller = load_controller(args.controller)
    defects = validate(controller, domain, strict=args.strict)
    if defects:
        raise ControllerError("; ".join(defects))
    name, checker = parse_criterion(args.criterion, args.depth_bound, **_modes(args))
    verdict = checker(controller, domain)
    if args.json:
        payload = _verdict_json(name, verdict)
        payload["command"] = "verify"
        payload["domain"] = domain.name
        _emit(payload)
    else:
        _print_verdict(name, verdict)
    return _EXIT[verdict.status]


def _cmd_trace(args) -> int:
    domain = load_domain(args.domain)
    controller = load_controller(args.controller)
    real = world_from_dict(domain, read_json(args.real, DomainError, "--real"))
    scenario = load_scenario(args.scenario)
    collect = []
    verdict, final_cfg = run_scenario(
        controller,
        domain,
        real,
        scenario,
        **_modes(args),
        tracing=args.trace_particles,
        collect=collect,
    )
    steps = [
        {
            "control": control,
            "action": action,
            "observation": obs,
            "real": world.as_dict(),
            "belief": _belief_json(belief, args.trace_particles),
        }
        for control, action, obs, belief, world in collect
    ]
    document = {
        "command": "trace",
        "status": verdict.status,
        "note": verdict.note,
        "steps": steps,
        "final": {
            "control": final_cfg.control,
            "real": final_cfg.real.as_dict(),
            "belief": _belief_json(final_cfg.belief, args.trace_particles),
        },
    }
    if args.trace or args.json:
        text = _dumps(document) + "\n"
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        for step in steps:
            print(
                f"control={step['control']} action={step['action']} "
                f"obs={step['observation']} real={step['real']}"
            )
        print(f"final control={final_cfg.control} real={final_cfg.real.as_dict()}")
        print(f"verdict: {verdict.status}")
        if verdict.note:
            print(f"  note: {verdict.note}")
    return _EXIT[verdict.status]


def _cmd_simulate(args) -> int:
    domain = load_domain(args.domain)
    controller = load_controller(args.controller)
    report = simulate(
        controller,
        domain,
        runs=args.runs,
        step_cap=args.step_cap,
        seed=args.seed,
        track_belief=args.track_belief,
    )
    if args.json:
        _emit({"command": "simulate", **dataclasses.asdict(report)})
    else:
        print(f"runs: {report.runs} (seed {report.seed}, step cap {report.step_cap})")
        print(f"success rate: {report.success_rate:.6f} +- {report.std_error:.6f}")
        print(f"termination rate: {report.termination_rate:.6f}")
        print(f"truncated rate: {report.truncated_rate:.6f}")
        if report.mean_final_bel is not None:
            print(f"mean final belief: {report.mean_final_bel:.6f}")
    return 0


def _cmd_synthesize(args) -> int:
    domain = load_domain(args.domain)
    result = synthesize(
        domain,
        args.criterion,
        args.max_states,
        limit=args.limit,
        depth_bound=args.depth_bound,
        **_modes(args),
    )
    documents = [to_json_dict(solution) for solution in result.solutions]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for i, document in enumerate(documents):
            path = os.path.join(args.out_dir, f"controller_{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_dumps(document) + "\n")
    if args.json:
        _emit(
            {
                "command": "synthesize",
                "criterion": result.criterion,
                "max_states": result.max_states,
                "searched": result.searched,
                "found": len(result.solutions),
                "solutions": documents,
            }
        )
    else:
        print(
            f"{result.criterion}: searched {result.searched} candidates, "
            f"found {len(result.solutions)}"
        )
        for i, document in enumerate(documents):
            print(f"solution {i}: {json.dumps(document, sort_keys=True)}")
    return 0 if result.solutions else 1


def _cmd_export(args) -> int:
    controller = load_controller(args.controller)
    if args.format == "dot":
        text = export_dot(controller)
    else:
        text = _dumps(to_json_dict(controller)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, keeping 2 for Unknown verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopverify",
        description="Verify, trace, simulate, and synthesize finite-state plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_modes(p):
        p.add_argument(
            "--poss-at-real",
            action="store_true",
            help="gate action executability at the real world instead of the belief",
        )
        p.add_argument(
            "--real-intended",
            action="store_true",
            help="advance the real world by the intended action instead of the outcome",
        )

    verify = sub.add_parser("verify", help="check one controller against a criterion")
    verify.add_argument("domain")
    verify.add_argument("controller")
    verify.add_argument("--criterion", required=True)
    verify.add_argument("--depth-bound", type=int, default=DEFAULT_DEPTH_BOUND)
    verify.add_argument(
        "--strict", action="store_true", help="require a total transition function"
    )
    common_modes(verify)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    trace = sub.add_parser("trace", help="replay one scenario at the belief level")
    trace.add_argument("domain")
    trace.add_argument("controller")
    trace.add_argument("--scenario", required=True)
    trace.add_argument(
        "--real", required=True, help="initial real world as an inline JSON object"
    )
    trace.add_argument("--trace", help="write the step record to this file")
    trace.add_argument(
        "--trace-particles",
        action="store_true",
        help="keep per-history belief particles separate in the output",
    )
    common_modes(trace)
    trace.add_argument("--json", action="store_true")
    trace.set_defaults(func=_cmd_trace)

    sim = sub.add_parser("simulate", help="estimate success rates by sampling")
    sim.add_argument("domain")
    sim.add_argument("controller")
    sim.add_argument("--runs", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--step-cap", type=int, default=None)
    sim.add_argument("--track-belief", action="store_true")
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    synth = sub.add_parser("synthesize", help="search for satisfying controllers")
    synth.add_argument("domain")
    synth.add_argument("--criterion", required=True)
    synth.add_argument("--max-states", type=int, required=True)
    synth.add_argument("--limit", type=int, default=1)
    synth.add_argument("--depth-bound", type=int, default=DEFAULT_DEPTH_BOUND)
    synth.add_argument("--out-dir", help="write each solution as JSON into this directory")
    common_modes(synth)
    synth.add_argument("--json", action="store_true")
    synth.set_defaults(func=_cmd_synthesize)

    export = sub.add_parser("export", help="render a controller file")
    export.add_argument("controller")
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--out")
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        # input errors and the errors of opening a file; JSON errors
        # arrive as the input error of their document, formula errors
        # wrapped in DomainError, and belief errors never leave the
        # engines, so anything else is a fault of the program and keeps
        # its traceback
        DomainError,
        ControllerError,
        ScenarioError,
        CriterionError,
        VerifierInputError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
