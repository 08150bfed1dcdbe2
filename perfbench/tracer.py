"""Per-layer tracing installed from outside the package.

The tracer replaces public functions and methods of loopverify with
wrappers for the length of a traced run, then restores them:

- methods of `Domain`, `SensingModel.likelihood` and `BeliefState.key`
  are wrapped on their classes;
- module functions are wrapped in every loopverify module that binds
  the same function object, because `from .x import f` copies the
  reference into each importing module.

Spans (name, start, end, parent span, op id) are kept for the cli,
engine, belief, synth and montecarlo boundaries, up to a fixed cap.
The world kernel, the formula interpreter, `BeliefState.key` and the
controller enumerator are only counted, with inclusive and self time,
which keeps memory bounded however many calls an op makes. A name that
no longer exists is recorded as absent and every metric that needs it
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPAN_CAP = 200_000

# (module, function, keeps spans); wrapped in every module that binds it
FUNCTIONS = [
    ("theory", "load_domain", True),
    ("controller", "load_controller", True),
    ("controller", "validate", True),
    ("formulas", "eval_condition", False),
    ("belief", "progress", True),
    ("belief", "condition", True),
    ("belief", "eval_goal", True),
    ("exec_epistemic", "verify_epistemic", True),
    ("exec_epistemic", "run_scenario", True),
    ("synth", "synthesize", True),
    ("montecarlo", "simulate", True),
    ("montecarlo", "build_chain", True),
    ("cli", "main", True),
]
# (module, class): every public method defined on the class, counted only
CLASSES = [("theory", "Domain")]
# (module, class, method), counted only
METHODS = [("theory", "SensingModel", "likelihood"), ("belief", "BeliefState", "key")]


def _module(name):
    try:
        return importlib.import_module("loopverify." + name)
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, child seconds, span index, nearest span]
        self.agg = {}  # name -> [calls, inclusive s, self s]
        self.spans = []
        self.dropped = 0
        self.op = None
        self.seen = {}  # name -> hashes seen in the current op
        self.distinct = {}  # name -> sum over ops of distinct hashes
        self.counters = {}
        self.found = set()
        self.absent = set()
        self._restore = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op_id):
        self._fold_distinct()
        self.op = op_id

    def _fold_distinct(self):
        for name, seen in self.seen.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(seen)
        self.seen = {}

    def note(self, name, value=None, count=1.0):
        if value is not None:
            self.seen.setdefault(name, set()).add(value)
        else:
            self.counters[name] = self.counters.get(name, 0.0) + count

    def call(self, name, span, fn, args, kwargs):
        stack = self.stack
        start = perf_counter()
        parent = stack[-1][4] if stack else -1
        index = -1
        if span:
            if len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append([name, start, None, parent, self.op])
            else:
                self.dropped += 1
        frame = [name, start, 0.0, index, index if index >= 0 else parent]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if index >= 0:
                self.spans[index][2] = end

    # -- installation ----------------------------------------------------
    def _wrap(self, name, fn, span, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = tracer.call(name, span, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name):
        """Extra counts a few names record around the call."""
        note = self.note
        if name == "theory.apply":
            return (lambda a, k: note(name, hash((a[1], a[2])))), None
        if name == "theory.likelihood":
            return (lambda a, k: note(name, hash((a[0].action, a[1], a[2])))), None
        if name == "belief.key":
            return None, (lambda a, k, result: note(name, hash(result)))
        if name in ("belief.progress", "belief.condition"):

            def particles(a, k):
                note("belief.particles.sum", count=len(a[0].particles))
                note("belief.particles.n")

            return particles, None
        if name == "synth.synthesize":
            return None, (lambda a, k, result: note("synth.searched", count=result.searched))
        if name == "montecarlo.simulate":

            def drawn(a, k, report):
                domain = a[1] if len(a) > 1 else k["domain"]
                streams = 1 + any(
                    getattr(m, "is_gaussian", False) for m in domain.sensing_models.values()
                )
                note("montecarlo.draw_bytes", count=report.runs * (report.step_cap + 1) * 8 * streams)

            return None, drawn
        return None, None

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "loopverify" or name.startswith("loopverify.")
        }
        for mod_name, fn_name, span in FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            home = _module(mod_name)
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                self.absent.add(name)
                continue
            self.found.add(name)
            before, after = self._hooks(name)
            wrapper = self._wrap(name, original, span, before, after)
            for module in modules.values():
                # recursion inside the interpreter stays unwrapped: only
                # calls from outside it count as top-level evaluations
                if module is home and fn_name == "eval_condition":
                    continue
                if module.__dict__.get(fn_name) is original:
                    self._patch(module, fn_name, wrapper)
        self._install_exact_verifiers(modules)
        self._install_synth(modules)
        for mod_name, cls_name in CLASSES:
            cls = getattr(_module(mod_name), cls_name, None)
            if cls is None:
                self.absent.add(f"{mod_name}.{cls_name}")
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                self._method(mod_name, cls, attr)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(_module(mod_name), cls_name, None)
            if cls is None or not callable(vars(cls).get(attr)):
                self.absent.add(f"{mod_name}.{attr}")
                continue
            self._method(mod_name, cls, attr)

    def _method(self, mod_name, cls, attr):
        name = f"{mod_name}.{attr}"
        self.found.add(name)
        before, after = self._hooks(name)
        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], False, before, after))

    def _install_exact_verifiers(self, modules):
        """Every verify_* of exec_exact, whatever their number."""
        home = _module("exec_exact")
        names = [n for n in vars(home) if n.startswith("verify_")] if home else []
        for fn_name in names:
            original = getattr(home, fn_name)
            if not callable(original):
                continue
            name = f"exec_exact.{fn_name}"
            self.found.add(name)
            wrapper = self._wrap(name, original, True)
            for module in modules.values():
                if module.__dict__.get(fn_name) is original:
                    self._patch(module, fn_name, wrapper)
        if not names:
            self.absent.add("exec_exact.verify_*")

    def _install_synth(self, modules):
        """Candidate checks go through the checker parse_criterion returns;
        the enumerator is a generator, timed per item it yields."""
        synth = _module("synth")
        parse = getattr(synth, "parse_criterion", None) if synth else None
        if parse is None:
            self.absent.add("synth.check")
        else:
            self.found.add("synth.check")

            def traced_parse(*args, **kwargs):
                label, checker = parse(*args, **kwargs)
                return label, self._wrap("synth.check", checker, True)

            self._patch(synth, "parse_criterion", traced_parse)
        enumerate_fn = getattr(synth, "enumerate_controllers", None) if synth else None
        if enumerate_fn is None:
            self.absent.add("controller.enumerate")
            return
        self.found.add("controller.enumerate")
        tracer = self

        def traced_enumerate(*args, **kwargs):
            inner = iter(enumerate_fn(*args, **kwargs))
            while True:
                try:
                    item = tracer.call("controller.enumerate", False, next, (inner,), {})
                except StopIteration:
                    return
                tracer.note("controller.enumerate.yielded")
                yield item

        self._patch(synth, "enumerate_controllers", traced_enumerate)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._fold_distinct()

    # -- reporting -------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "dropped_spans": self.dropped,
                    "aggregates": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.agg.items()},
                    "counters": self.counters,
                    "distinct": self.distinct,
                    "absent": sorted(self.absent),
                },
                handle,
            )

    def metrics(self) -> dict:
        """Every per-layer metric: name -> (value or None if absent,
        unit, base note)."""
        agg, found = self.agg, self.found
        out = {}

        def total(names, field):
            return sum(agg[n][field] for n in names if n in agg)

        def put(metric, needs, value, unit, base=""):
            present = all(n in found for n in needs)
            out[metric] = (value() if present else None, unit, base if present else "")

        def ratio(num, den):
            return num / den if den else 0.0

        def calls(n):
            return agg.get(n, [0, 0.0, 0.0])[0]

        for name in ("theory.load_domain", "controller.validate"):
            put(f"{name}.s", [name], lambda n=name: total([n], 1), "s")
            put(f"{name}.calls", [name], lambda n=name: calls(n), "count")
        for method in ("apply", "poss", "outcomes_of", "exact_observation", "likelihood"):
            name = f"theory.{method}"
            put(f"{name}.calls", [name], lambda n=name: calls(n), "count")
        for name in ("theory.apply", "theory.likelihood"):
            distinct = self.distinct.get(name, 0)
            put(
                f"{name}.distinct_ratio",
                [name],
                lambda n=name, d=distinct: ratio(d, calls(n)),
                "ratio",
                f"{distinct} distinct (action, world) of {calls(name)} calls, per op"
                if name == "theory.apply"
                else f"{distinct} distinct (sensor, world, value) of {calls(name)} calls, per op",
            )
        kernel = [n for n in found if n.startswith("theory.") and n not in ("theory.load_domain",)]
        kernel.append("formulas.eval_condition")
        put("theory.kernel.self_s", ["theory.apply"], lambda: total(kernel, 2), "s")
        put("formulas.eval_condition.calls", ["formulas.eval_condition"], lambda: calls("formulas.eval_condition"), "count")
        exact = [n for n in found if n.startswith("exec_exact.verify_")]
        needs = exact or ["exec_exact.verify_*"]
        put("exec_exact.verify.s", needs, lambda: total(exact, 1), "s")
        put("exec_exact.verify.self_s", needs, lambda: total(exact, 2), "s")
        for fn in ("progress", "condition", "eval_goal"):
            name = f"belief.{fn}"
            put(f"{name}.calls", [name], lambda n=name: calls(n), "count")
            put(f"{name}.self_s", [name], lambda n=name: total([n], 2), "s")
        key_distinct = self.distinct.get("belief.key", 0)
        put("belief.key.calls", ["belief.key"], lambda: calls("belief.key"), "count")
        put("belief.key.self_s", ["belief.key"], lambda: total(["belief.key"], 2), "s")
        put(
            "belief.key.distinct_ratio",
            ["belief.key"],
            lambda: ratio(key_distinct, calls("belief.key")),
            "ratio",
            f"{key_distinct} distinct keys of {calls('belief.key')} calls, per op",
        )
        particles = self.counters.get("belief.particles.sum", 0.0)
        beliefs = self.counters.get("belief.particles.n", 0.0)
        put(
            "belief.particles.mean",
            ["belief.progress", "belief.condition"],
            lambda: ratio(particles, beliefs),
            "count",
            f"{int(particles)} particles over {int(beliefs)} progress/condition inputs",
        )
        put("exec_epistemic.verify_epistemic.s", ["exec_epistemic.verify_epistemic"], lambda: total(["exec_epistemic.verify_epistemic"], 1), "s")
        put("exec_epistemic.verify_epistemic.self_s", ["exec_epistemic.verify_epistemic"], lambda: total(["exec_epistemic.verify_epistemic"], 2), "s")
        put("exec_epistemic.run_scenario.s", ["exec_epistemic.run_scenario"], lambda: total(["exec_epistemic.run_scenario"], 1), "s")
        searched = self.counters.get("synth.searched", 0.0)
        put("synth.synthesize.s", ["synth.synthesize"], lambda: total(["synth.synthesize"], 1), "s")
        put("synth.checks", ["synth.check"], lambda: calls("synth.check"), "count")
        put("synth.check.s", ["synth.check"], lambda: total(["synth.check"], 1), "s")
        put(
            "synth.checks_per_candidate",
            ["synth.check", "synth.synthesize"],
            lambda: ratio(calls("synth.check"), searched),
            "ratio",
            f"{calls('synth.check')} checks of {int(searched)} candidates searched",
        )
        put("controller.enumerate.s", ["controller.enumerate"], lambda: total(["controller.enumerate"], 1), "s")
        yielded = self.counters.get("controller.enumerate.yielded", 0.0)
        put("controller.enumerate.yielded", ["controller.enumerate"], lambda: yielded, "count")
        put("montecarlo.simulate.s", ["montecarlo.simulate"], lambda: total(["montecarlo.simulate"], 1), "s")
        put("montecarlo.simulate.self_s", ["montecarlo.simulate"], lambda: total(["montecarlo.simulate"], 2), "s")
        put("montecarlo.build_chain.s", ["montecarlo.build_chain"], lambda: total(["montecarlo.build_chain"], 1), "s")
        drawn = self.counters.get("montecarlo.draw_bytes", 0.0)
        put(
            "montecarlo.draw_mb",
            ["montecarlo.simulate"],
            lambda: drawn / 1e6,
            "MB",
            "computed as runs x (step_cap+1) x 8 B x streams, not measured",
        )
        put("cli.main.self_s", ["cli.main"], lambda: total(["cli.main"], 2), "s")
        return out
