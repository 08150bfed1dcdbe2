"""Independent reference computations the test suite checks the engine
against. Everything here recomputes results from first principles using
only the parsed domain data plus poss/apply; no belief, execution, or
search code from the package is reused.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

from loopverify.formulas import eval_condition
from loopverify.theory import Domain, WorldState


def sensor_likelihood(model, world: WorldState, value: float) -> float:
    # deliberate re-derivation: first matching table row, else a normal
    # density with the model's variance around the mean fluent
    if model.mean_fluent:
        spread = 2.0 * model.variance
        return math.exp(-((value - float(world[model.mean_fluent])) ** 2) / spread) / (
            math.pi * spread
        ) ** 0.5
    for condition, row in model.table:
        if eval_condition(condition, world):
            for reading in model.readings:
                if reading.value == value:
                    return row.get(reading.token, 0.0)
            return 0.0
    return 0.0


def posterior_paths(domain: Domain, steps: list) -> list:
    """Unnormalized execution paths after a fixed step list.

    Steps are ("act", intended) or ("sense", action, value). Returns
    [(world history, weight)] with positive weights only; weights carry
    prior x outcome likelihoods x sensing likelihoods. They are kept as
    sums of logarithms, so a long run of small likelihoods cannot
    underflow, and returned shifted by the largest: the heaviest path
    weighs 1.0, and a path below about 2**-1074 of it rounds to 0.0 and is
    left out. No merging, so the result is a plain sum over every way the
    run can happen, up to that common factor.
    """
    paths = [([w], math.log(wt)) for w, wt in domain.initial_worlds if wt > 0.0]
    for step in steps:
        new = []
        if step[0] == "act":
            intended = step[1]
            model = domain.outcome_models.get(intended)
            for hist, log_wt in paths:
                world = hist[-1]
                if model is None:
                    options = (
                        [(intended, 1.0)] if domain.poss(intended, world) else []
                    )
                else:
                    options = [
                        (o.action, o.likelihood)
                        for o in model.outcomes
                        if o.likelihood > 0.0 and domain.poss(o.action, world)
                    ]
                for actual, likelihood in options:
                    new.append(
                        (hist + [domain.apply(actual, world)], log_wt + math.log(likelihood))
                    )
        else:
            action, value = step[1], step[2]
            model = domain.sensing_models[action]
            for hist, log_wt in paths:
                world = hist[-1]
                if not domain.poss(action, world):
                    continue
                likelihood = sensor_likelihood(model, world, value)
                if likelihood > 0.0:
                    new.append((hist, log_wt + math.log(likelihood)))
        paths = new
    top = max((log_wt for _hist, log_wt in paths), default=0.0)
    shifted = [(hist, math.exp(log_wt - top)) for hist, log_wt in paths]
    return [(hist, wt) for hist, wt in shifted if wt > 0.0]


def posterior_bel(domain: Domain, steps: list, condition) -> float:
    """Degree of belief in `condition` after `steps`, by path summation."""
    paths = posterior_paths(domain, steps)
    if not paths:
        raise ValueError("no surviving path")
    total = math.fsum(wt for _hist, wt in paths)
    matching = math.fsum(wt for hist, wt in paths if eval_condition(condition, hist[-1]))
    return matching / total


def _goal_at_paths(domain: Domain, paths: list) -> bool:
    """The goal at the belief the paths make up: objective parts at every
    possible world, belief atoms by path summation."""
    total = math.fsum(wt for _hist, wt in paths)

    def bel_fn(inner) -> float:
        return math.fsum(wt for hist, wt in paths if eval_condition(inner, hist[-1])) / total

    return all(eval_condition(domain.goal, hist[-1], bel_fn) for hist, _wt in paths)


def _run_fates(controller, domain: Domain, control, real, steps, depth, poss_mode):
    """"success", "failure" or "cut" for every run that extends the run
    which took `steps` to (control, real), up to `depth` steps."""
    paths = posterior_paths(domain, steps)
    if control == controller.final:
        yield "success" if _goal_at_paths(domain, paths) else "failure"
        return
    if len(steps) == depth:
        yield "cut"
        return
    advised = controller.advice.get(control)
    gated = [hist[-1] for hist, _wt in paths] if poss_mode == "belief" else [real]
    if advised is None or not all(domain.poss(advised, w) for w in gated):
        yield "failure"
        return
    if domain.actions[advised].kind == "physical":
        after = steps + [("act", advised)]
        target = controller.transitions.get((control, "0"))
        model = domain.outcome_models.get(advised)
        options = [advised] if model is None else [
            o.action for o in model.outcomes if o.likelihood > 0.0
        ]
        options = [a for a in options if domain.poss(a, real)]
        if target is None or not options or not posterior_paths(domain, after):
            yield "failure"  # no transition, no outcome, or no possible world left
            return
        for actual in options:
            yield from _run_fates(
                controller, domain, target, domain.apply(actual, real), after, depth,
                poss_mode,
            )
        return
    model = domain.sensing_models[advised]
    live = [r for r in model.readings if sensor_likelihood(model, real, r.value) > 0.0]
    if not domain.poss(advised, real) or not live:
        yield "failure"
        return
    for reading in live:
        after = steps + [("sense", advised, reading.value)]
        if not posterior_paths(domain, after):
            continue  # the belief rules this reading out: no run takes it
        target = controller.transitions.get((control, reading.observation))
        if target is None:
            yield "failure"  # a live reading the controller cannot follow
        else:
            yield from _run_fates(controller, domain, target, real, after, depth, poss_mode)


def def9_by_runs(controller, domain: Domain, mode: str, depth: int, poss_mode: str) -> str:
    """def9 by enumerating every run of at most `depth` steps from each
    positive-weight initial world taken as the real one. A run's belief is
    `posterior_paths` of its steps, with no merging. A run fails at the
    final state with the goal false, or where it stops short of it: no
    advice, a failed poss gate (every possible world, or the real one), no
    possible world left, no transition. Existential def9 holds at a world
    when some run succeeds, adversarial when every run does; a run cut at
    `depth` leaves a world undecided unless another run decides it."""
    statuses = []
    for real0, weight in domain.initial_worlds:
        if weight <= 0.0:
            continue
        fates = set(
            _run_fates(controller, domain, controller.initial, real0, [], depth, poss_mode)
        )
        undecided = "Unknown" if "cut" in fates else None
        if mode == "existential":
            statuses.append("Holds" if "success" in fates else undecided or "Fails")
        else:
            statuses.append("Fails" if "failure" in fates else undecided or "Holds")
    for status in ("Fails", "Unknown"):
        if status in statuses:
            return status
    return "Holds"


def weak_from(controller, domain: Domain, world: WorldState) -> bool:
    """Whether some nature choice leads from `world` to the final state
    with the goal true. Recursive and memoized on (control, world)."""
    seen = set()

    def walk(control, world) -> bool:
        if control == controller.final:
            return eval_condition(domain.goal, world)
        if (control, world) in seen:
            return False
        seen.add((control, world))
        advised = controller.advice.get(control)
        if advised is None:
            return False
        action = domain.actions[advised]
        if action.kind == "physical":
            target = controller.transitions.get((control, "0"))
            if target is None:
                return False
            model = domain.outcome_models.get(advised)
            if model is None:
                options = [advised] if domain.poss(advised, world) else []
            else:
                options = [
                    o.action
                    for o in model.outcomes
                    if o.likelihood > 0.0 and domain.poss(o.action, world)
                ]
            return any(walk(target, domain.apply(a, world)) for a in options)
        if not domain.poss(advised, world):
            return False
        model = domain.sensing_models[advised]
        results = []
        for reading in model.readings:
            if sensor_likelihood(model, world, reading.value) <= 0.0:
                continue
            target = controller.transitions.get((control, reading.observation))
            if target is not None:
                results.append(walk(target, world))
        return any(results)

    return walk(controller.initial, world)


def branches(controller, domain: Domain, control, world: WorldState) -> list:
    """Every (action, observation, next control, next world) edge one
    controller step can take from (control, world)."""
    if control == controller.final:
        return []
    advised = controller.advice.get(control)
    if advised is None:
        return []
    action = domain.actions[advised]
    if action.kind == "physical":
        target = controller.transitions.get((control, "0"))
        if target is None:
            return []
        model = domain.outcome_models.get(advised)
        if model is None:
            options = [advised] if domain.poss(advised, world) else []
        else:
            options = [
                o.action
                for o in model.outcomes
                if o.likelihood > 0.0 and domain.poss(o.action, world)
            ]
        return [(a, "0", target, domain.apply(a, world)) for a in options]
    if not domain.poss(advised, world):
        return []
    model = domain.sensing_models[advised]
    edges = []
    for reading in model.readings:
        if sensor_likelihood(model, world, reading.value) <= 0.0:
            continue
        target = controller.transitions.get((control, reading.observation))
        if target is not None:
            edges.append((advised, reading.observation, target, world))
    return edges


def termination_holds(controller, domain: Domain) -> bool:
    """Whether every (control, world) reachable from a positive-weight
    initial world can still reach the final control state: a forward
    closure over `branches`, then a backward fixed point."""
    reachable = set()
    todo = [(controller.initial, w) for w, wt in domain.initial_worlds if wt > 0.0]
    while todo:
        node = todo.pop()
        if node not in reachable:
            reachable.add(node)
            todo.extend((t, w) for _a, _o, t, w in branches(controller, domain, *node))
    finishing = {node for node in reachable if node[0] == controller.final}
    grown = True
    while grown:
        grown = False
        for node in reachable - finishing:
            if any(
                (t, w) in finishing for _a, _o, t, w in branches(controller, domain, *node)
            ):
                finishing.add(node)
                grown = True
    return finishing == reachable


def absorption_by_dicts(controller, domain: Domain, step_cap: int) -> dict:
    """Success and termination mass within step_cap, propagating a
    distribution stored as a plain dict over (control, world)."""
    dist = {}
    total = sum(wt for _w, wt in domain.initial_worlds)
    for world, weight in domain.initial_worlds:
        if weight > 0.0:
            key = (controller.initial, world)
            dist[key] = dist.get(key, 0.0) + weight / total
    stuck = 0.0
    for _step in range(step_cap):
        new = {}

        def put(key, amount):
            new[key] = new.get(key, 0.0) + amount

        for (control, world), mass in dist.items():
            if control == controller.final:
                put((control, world), mass)
                continue
            advised = controller.advice.get(control)
            if advised is None:
                stuck += mass
                continue
            action = domain.actions[advised]
            if action.kind == "physical":
                target = controller.transitions.get((control, "0"))
                model = domain.outcome_models.get(advised)
                if model is None:
                    options = (
                        [(advised, 1.0)] if domain.poss(advised, world) else []
                    )
                else:
                    options = [
                        (o.action, o.likelihood)
                        for o in model.outcomes
                        if o.likelihood > 0.0 and domain.poss(o.action, world)
                    ]
                if target is None or not options:
                    stuck += mass
                    continue
                norm = sum(p for _a, p in options)
                for actual, p in options:
                    put((target, domain.apply(actual, world)), mass * p / norm)
                continue
            if not domain.poss(advised, world):
                stuck += mass
                continue
            model = domain.sensing_models[advised]
            live = [
                (r, sensor_likelihood(model, world, r.value))
                for r in model.readings
            ]
            live = [(r, p) for r, p in live if p > 0.0]
            norm = sum(p for _r, p in live)
            for reading, p in live:
                target = controller.transitions.get((control, reading.observation))
                if target is None:
                    stuck += mass * p / norm
                else:
                    put((target, world), mass * p / norm)
        dist = new
    success = sum(
        mass
        for (control, world), mass in dist.items()
        if control == controller.final and eval_condition(domain.goal, world)
    )
    terminated = sum(
        mass
        for (control, _world), mass in dist.items()
        if control == controller.final
    )
    return {"success": success, "terminated": terminated, "stuck": stuck}


def all_controllers(actions: list, observations: list, max_states: int):
    """Every distinct reachable controller shape up to max_states, by
    exhaustive generation plus canonical relabeling. The single final
    state carries no advice and no outgoing transitions."""
    shapes = set()
    for count in range(1, max_states + 1):
        states = list(range(count))
        for final in states:
            plan_states = [q for q in states if q != final]
            for advice_tuple in product(actions, repeat=len(plan_states)):
                advice = dict(zip(plan_states, advice_tuple))
                cells = [(q, obs) for q in plan_states for obs in observations]
                for targets in product([None] + states, repeat=len(cells)):
                    transitions = {
                        cell: target
                        for cell, target in zip(cells, targets)
                        if target is not None
                    }
                    shape = _canonical_shape(
                        count, 0, final, advice, transitions, observations
                    )
                    if shape is not None:
                        shapes.add(shape)
    return shapes


def _canonical_shape(count, initial, final, advice, transitions, observations):
    """BFS relabeling from the initial state; None when some state is
    unreachable (those duplicate a smaller controller)."""
    label = {initial: 0}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for obs in observations:
            target = transitions.get((state, obs))
            if target is not None and target not in label:
                label[target] = len(label)
                queue.append(target)
    if len(label) != count:
        return None
    if final not in label:
        return None
    advice_part = tuple(
        sorted((label[q], a) for q, a in advice.items())
    )
    delta_part = tuple(
        sorted(
            (label[q], obs, label[t]) for (q, obs), t in transitions.items()
        )
    )
    return (count, label[final], advice_part, delta_part)


def canonical_shape_of(controller, observations) -> tuple:
    """The same canonical form for an engine-produced controller."""
    advice = dict(controller.advice)
    transitions = dict(controller.transitions)
    return _canonical_shape(
        len(controller.states),
        controller.initial,
        controller.final,
        advice,
        transitions,
        observations,
    )
