"""Correctness checks on op records; they never ask the engine under test.

Three layers, applied in order:

1. Shape: no error, the exit code agrees with the document's status,
   and facts the benchmark knows on its own (requested runs and seed,
   the default step cap, the exit code the inputs were built to give).
2. Golden: for rounds the default seed's golden file covers, exit code
   and a hash of the exact --json bytes must match the seed commit.
3. Oracles from tests/oracles.py, for every op the golden file does not
   cover: `weak_from` for def4/def6/weight/mass, `absorption_by_dicts`
   within 3 standard errors for chain-backed simulate, `all_controllers`
   with `canonical_shape_of` and `weak_from` for synthesis, and
   `posterior_paths` for the final belief of trace replays. def9 and
   termination have no oracle here; their bytes are pinned by the golden
   file only. Oracles marked costly (seconds per op) run only when the
   golden file is built.
"""

from __future__ import annotations

import math
import sys

EXIT = {"Holds": 0, "Fails": 1, "Unknown": 2}


class Checker:
    def __init__(self, golden=None, costly=False):
        import oracles
        from loopverify import (
            Controller,
            from_json_dict,
            load_controller,
            load_domain,
            load_scenario,
        )

        sys.setrecursionlimit(10_000)  # weak_from recurses once per step
        self.oracles = oracles
        self.Controller = Controller
        self.from_json_dict = from_json_dict
        self.load_controller = load_controller
        self.load_domain = load_domain
        self.load_scenario = load_scenario
        self.golden = golden or {}
        self.costly = costly
        self.shapes = {}

    def problems(self, op, record) -> list:
        """Everything wrong with one op's record; empty means correct."""
        if record["error"]:
            return [record["error"]]
        found = self._shape(op, record)
        if found:
            return found
        entry = self.golden.get(f"{op['stream']}-{op['round']}")
        if entry is not None:
            code, sha = entry[op["index"]]
            if (record["code"], record["sha"]) != (code, sha):
                return [f"golden mismatch: exit {record['code']} sha {record['sha']}, pinned exit {code} sha {sha}"]
            return []
        oracle = op.get("oracle")
        if not oracle or (op.get("costly") and not self.costly):
            return []
        return getattr(self, f"_oracle_{oracle}")(op, record["doc"])

    # -- shape -----------------------------------------------------------
    def _shape(self, op, record) -> list:
        doc, code = record["doc"], record["code"]
        out = []
        if doc.get("command") != op["kind"]:
            out.append(f"document is for command {doc.get('command')!r}")
        elif op["kind"] in ("verify", "trace"):
            if EXIT.get(doc["status"]) != code:
                out.append(f"exit {code} disagrees with status {doc['status']}")
        elif op["kind"] == "synthesize":
            if code != (0 if doc["found"] else 1) or doc["found"] != len(doc["solutions"]):
                out.append(f"exit {code} disagrees with {doc['found']} solutions")
        elif op["kind"] == "simulate":
            rates = [doc["success_rate"], doc["termination_rate"], doc["truncated_rate"]]
            if (doc["runs"], doc["seed"], doc["step_cap"]) != (op["runs"], op["seed"], op["step_cap"]):
                out.append("runs, seed or default step cap differ from the request")
            if not all(0.0 <= r <= 1.0 for r in rates) or rates[0] > rates[1] + 1e-12:
                out.append(f"inconsistent rates {rates}")
        if op.get("expect") is not None and code != op["expect"]:
            out.append(f"exit {code}, the inputs were built to give {op['expect']}")
        return out

    # -- oracles ---------------------------------------------------------
    def _inputs(self, op):
        domain = self.load_domain(op["domain"])
        controller = self.load_controller(op["controller"]) if op.get("controller") else None
        return domain, controller

    def _weak_verdict(self, controller, domain, criterion):
        """(status, first failing world) by weak_from, per criterion."""
        weak = self.oracles.weak_from
        if criterion.startswith("weight:"):
            kappa = float(criterion.partition(":")[2])
            for world, weight in domain.initial_worlds:
                if weight > kappa and not weak(controller, domain, world):
                    return "Fails", world
            return "Holds", None
        positive = [(w, wt) for w, wt in domain.initial_worlds if wt > 0.0]
        results = [(w, wt, weak(controller, domain, w)) for w, wt in positive]
        failing = [w for w, _wt, ok in results if not ok]
        if criterion.startswith("mass:"):
            kappa = float(criterion.partition(":")[2])
            total = sum(wt for _w, wt in domain.initial_worlds)
            mass = sum(wt for _w, wt, ok in results if ok) / total
            held = not failing if kappa >= 1.0 else mass >= kappa
            return ("Holds" if held else "Fails"), (failing[0] if failing else None)
        return ("Fails", failing[0]) if failing else ("Holds", None)

    def _oracle_weak(self, op, doc) -> list:
        domain, controller = self._inputs(op)
        criterion = op["criterion"]
        status, world = self._weak_verdict(controller, domain, criterion.replace("+termination", ""))
        if criterion.endswith("+termination") and status == "Holds":
            # termination may still fail; only the def6 half has an oracle
            return [] if doc["status"] in ("Holds", "Fails") else [f"status {doc['status']}"]
        if doc["status"] != status:
            return [f"status {doc['status']}, weak_from gives {status}"]
        if status == "Fails" and doc.get("counterexample_world") != world.as_dict():
            return [f"counterexample {doc.get('counterexample_world')}, weak_from gives {world.as_dict()}"]
        return []

    def _oracle_absorption(self, op, doc) -> list:
        domain, controller = self._inputs(op)
        exact = self.oracles.absorption_by_dicts(controller, domain, doc["step_cap"])
        runs = doc["runs"]
        out = []
        for key, rate in (("success", "success_rate"), ("terminated", "termination_rate")):
            p, estimate = exact[key], doc[rate]
            spread = max(p * (1 - p), estimate * (1 - estimate))
            if abs(estimate - p) > 3.0 * math.sqrt(spread / runs) + 1e-9:
                out.append(f"{rate} {estimate} is over 3 standard errors from {p}")
        return out

    def _all_shapes(self, domain, max_states):
        key = (tuple(domain.actions), domain.observations(), max_states)
        if key not in self.shapes:
            self.shapes[key] = self.oracles.all_controllers(
                list(domain.actions), list(domain.observations()), max_states
            )
        return self.shapes[key]

    def _oracle_synth(self, op, doc) -> list:
        domain, _ = self._inputs(op)
        shapes = self._all_shapes(domain, op["max_states"])
        criterion = op["criterion"]
        weak_checkable = not criterion.startswith("def9")
        out = []
        if doc["searched"] > len(shapes):
            out.append(f"searched {doc['searched']} of only {len(shapes)} controllers")
        if doc["found"]:
            solution = self.from_json_dict(doc["solutions"][0])
            if self.oracles.canonical_shape_of(solution, list(domain.observations())) not in shapes:
                out.append("solution is not a canonical controller shape")
            elif weak_checkable and self._weak_verdict(solution, domain, criterion)[0] != "Holds":
                out.append("solution fails the criterion under weak_from")
            return out
        if doc["searched"] != len(shapes):
            out.append(f"empty search covered {doc['searched']} of {len(shapes)} controllers")
        if weak_checkable:
            for count, final, advice, delta in shapes:
                candidate = self.Controller(
                    list(range(count)), 0, final, dict(advice), {(q, o): t for q, o, t in delta}
                )
                if self._weak_verdict(candidate, domain, criterion)[0] == "Holds":
                    out.append(f"weak_from finds a solution the search missed: {delta}")
                    break
        return out

    def _oracle_posterior(self, op, doc) -> list:
        domain, _ = self._inputs(op)
        steps = []
        for step in self.load_scenario(op["scenario"])[: doc["steps"]]:
            if step.reading is None:
                steps.append(("act", step.action))
            else:
                model = domain.sensing_models[step.action]
                steps.append(("sense", step.action, model.reading_by_token(step.reading).value))
        paths = self.oracles.posterior_paths(domain, steps)
        total = sum(wt for _hist, wt in paths)
        expected = {}
        for hist, wt in paths:
            key = tuple(sorted(hist[-1].as_dict().items()))
            expected[key] = expected.get(key, 0.0) + wt / total
        final = doc["final"]["belief"]
        mass = sum(entry["weight"] for entry in final)
        got = {tuple(sorted(e["state"].items())): e["weight"] / mass for e in final}
        if set(got) != set(expected):
            return [f"final belief covers {len(got)} worlds, path summation {len(expected)}"]
        worst = max(abs(got[k] - expected[k]) for k in got)
        return [f"final belief is {worst:.3g} off path summation"] if worst > 1e-9 else []
