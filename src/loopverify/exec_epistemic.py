"""Belief-level execution: scenario replay and epistemic verification.

Here the controller runs against a designated real world while the agent
tracks a belief state. Physical steps spread the belief over the outcome
model and move the real world by the outcome that actually occurred;
sensing steps condition the belief on the reading the real world
produced. The controller branches on observation tokens as usual.

One private step, `_step`, does this for scenario replay and for both
searches: scenario replay (`_replay_step`) takes the branch its scenario
names, the searches every branch whose reading the belief allows. A
live reading without a transition ends a run short of the final state.

A plan is epistemically correct when, from every positive-weight initial
world taken as the real one, execution reaches the final control state
with the goal formula true at the resulting belief state. Two search
modes quantify over the runtime choices: `existential` asks for some
positive-likelihood run per world, `adversarial` for all of them.
Scenario files replay one designated run instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .belief import (
    BeliefAnnihilated,
    BeliefState,
    ObservationImpossible,
    _poss_everywhere,
    condition,
    eval_goal,
    initial_belief,
    progress,
)
from .controller import Controller
from .exec_exact import (
    Config,
    Verdict,
    VerifierInputError,
    _checked,
    _Search,
    successors,
)
from .theory import NULL_OBSERVATION, Domain, WorldState, read_json, read_name

# steps a def9 search explores before it cuts a run off, unless told otherwise
DEFAULT_DEPTH_BOUND = 64


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent with the domain."""


class ExecutionStuck(RuntimeError):
    """A belief-level step cannot proceed (dead end, not an input error)."""


@dataclass(frozen=True)
class _ScenarioStep:
    action: object  # the advised action this step expects, as declared
    outcome: object = None  # actual outcome, physical steps
    reading: Optional[str] = None  # declared reading token, sensing steps


@dataclass
class _BeliefConfig:
    control: object
    belief: BeliefState
    real: WorldState


def load_scenario(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(read_json(handle, ScenarioError, "scenario file"))


def parse_scenario(data) -> list:
    if not isinstance(data, list):
        raise ScenarioError("scenario must be a JSON list of steps")
    steps = []
    for entry in data:
        if not isinstance(entry, dict) or "advised_action" not in entry:
            raise ScenarioError(f"bad scenario step: {entry!r}")
        action, outcome, reading = (
            read_name(entry[key], ScenarioError, f"{key} of scenario step {len(steps)}")
            if key == "advised_action" or entry.get(key) is not None
            else None
            for key in ("advised_action", "actual_outcome", "reading")
        )
        steps.append(
            _ScenarioStep(action, outcome, None if reading is None else str(reading))
        )
    return steps


def _check_modes(poss_mode: str, real_mode: str) -> None:
    if poss_mode not in ("belief", "real"):
        raise VerifierInputError(f"unknown poss mode {poss_mode!r}")
    if real_mode not in ("outcome", "intended"):
        raise VerifierInputError(f"unknown real mode {real_mode!r}")


def _step(controller, domain, control, real, belief, poss_mode, real_mode):
    """The belief-level step from (control, real, belief). Returns the
    branches of `successors` that `real_mode` allows and a function from
    a branch to the next belief, which progresses once per physical step
    and raises ObservationImpossible on a reading the belief rules out.
    No advice, a failed `poss_mode` gate or an annihilated belief raises
    ExecutionStuck."""
    advised = controller.advice.get(control)
    if advised is None:
        raise ExecutionStuck(f"state {control!r} has no advice")
    if poss_mode == "belief":
        if not _poss_everywhere(domain, advised, belief):
            raise ExecutionStuck(f"{advised!r} is inexecutable in some possible world")
    elif not domain.poss(advised, real):
        raise ExecutionStuck(f"{advised!r} is inexecutable at the real world")
    branches = successors(controller, domain, control, real)
    if real_mode == "intended":  # a sensing branch's action is the advised one
        branches = [b for b in branches if b.action == advised]
    if domain.actions[advised].kind != "physical":
        return branches, lambda b: condition(belief, advised, b.reading, domain)
    try:
        progressed = progress(belief, advised, domain)
    except BeliefAnnihilated as exc:
        raise ExecutionStuck(str(exc)) from exc
    return branches, lambda _b: progressed


def _same_name(scenario_name, declared) -> bool:
    """Whether a scenario names a declared action: by type and value, so
    7.0 does not name the action 7."""
    return type(scenario_name) is type(declared) and scenario_name == declared


def _replay_step(controller, domain, cfg, step, poss_mode, real_mode):
    """One scenario step from a non-final config; returns (next config,
    action, observation).

    Dead ends (inexecutable advice, undefined transition) raise
    ExecutionStuck; contradictions between the scenario and the domain
    raise ScenarioError.
    """
    advised = controller.advice.get(cfg.control, step.action)  # none: _step is stuck
    if not _same_name(step.action, advised):
        raise ScenarioError(
            f"scenario advises {step.action!r} but the controller advises "
            f"{advised!r} at {cfg.control!r}"
        )
    branches, next_belief = _step(
        controller, domain, cfg.control, cfg.real, cfg.belief, poss_mode, real_mode
    )
    if domain.actions[advised].kind == "physical":
        if step.reading is not None:
            raise ScenarioError(f"physical step {advised!r} cannot carry a reading")
        actual = step.outcome if step.outcome is not None else advised
        model = domain.outcome_models.get(advised)
        if model is None:
            if not _same_name(actual, advised):
                raise ScenarioError(
                    f"{advised!r} has no outcome model; outcome {actual!r} is impossible"
                )
        elif not any(_same_name(actual, o.action) for o in model.outcomes):
            raise ScenarioError(
                f"{actual!r} is not a positive-likelihood outcome of {advised!r}"
            )
        if real_mode == "intended":
            actual = advised
        branch = next((b for b in branches if b.action == actual), None)
        if branch is None and not domain.poss(actual, cfg.real):
            raise ScenarioError(f"outcome {actual!r} is inexecutable at the real world")
        obs = NULL_OBSERVATION
    else:
        if step.outcome is not None:
            raise ScenarioError(f"sensing step {advised!r} cannot carry an outcome")
        if step.reading is None:
            raise ScenarioError(f"sensing step {advised!r} needs a reading")
        model = domain.sensing_models[advised]
        try:
            reading = model.reading_by_token(step.reading)
        except KeyError as exc:
            raise ScenarioError(
                f"{step.reading!r} is not a declared reading of {advised!r}"
            ) from exc
        branch = next((b for b in branches if b.reading == reading), None)
        if branch is None:
            raise ScenarioError(
                f"reading {step.reading!r} has zero likelihood at the real world"
            )
        obs = reading.observation

    if branch is not None:
        try:
            belief = next_belief(branch)
        except ObservationImpossible as exc:
            raise ScenarioError(str(exc)) from exc
    if branch is None or branch.target is None:
        raise ExecutionStuck(
            f"no transition from {cfg.control!r} on observation {obs!r}"
        )
    return _BeliefConfig(branch.target, belief, branch.world), advised, obs


def run_scenario(
    controller: Controller,
    domain: Domain,
    real0: WorldState,
    scenario: list,
    poss_mode: str = "belief",
    real_mode: str = "outcome",
    tracing: bool = False,
    collect: Optional[list] = None,
):
    """Replay a scenario from a designated real world.

    Returns (Verdict, final config with fields control, belief and real).
    Holds iff the final control state is reached within the scenario and
    the goal holds at the final belief; running out of scenario steps is
    Unknown; dead ends are Fails. `collect`, when given, receives
    per-step records (control, action, observation, belief, real) for
    tracing output.

    `poss_mode` picks where the advised action's precondition must hold:
    "belief" requires it at every possible world, "real" only at the
    designated real world. `real_mode` picks how the real world moves on
    physical steps: "outcome" applies the scenario's actual outcome,
    "intended" applies the advised action itself.
    """
    _check_modes(poss_mode, real_mode)
    _checked(controller, domain)
    weight = dict((w, wt) for w, wt in domain.initial_worlds).get(real0)
    if weight is None or weight <= 0.0:
        raise VerifierInputError(
            f"designated real world {real0!r} has no positive prior weight"
        )
    cfg = _BeliefConfig(controller.initial, initial_belief(domain, tracing), real0)
    trace = []
    consumed = 0
    for step in scenario:
        if cfg.control == controller.final:
            break
        try:
            nxt, action, obs = _replay_step(
                controller, domain, cfg, step, poss_mode, real_mode
            )
        except ExecutionStuck as exc:
            return (
                Verdict(
                    "Fails",
                    witness=trace,
                    counterexample_world=real0,
                    note=str(exc),
                ),
                cfg,
            )
        trace.append((Config(cfg.control, cfg.real), action, obs))
        if collect is not None:
            collect.append((cfg.control, action, obs, nxt.belief, nxt.real))
        cfg = nxt
        consumed += 1
    if cfg.control != controller.final:
        return (
            Verdict(
                "Unknown",
                witness=trace,
                counterexample_world=real0,
                note="scenario exhausted before the final state",
            ),
            cfg,
        )
    note = ""
    if consumed < len(scenario):
        note = f"{len(scenario) - consumed} scenario steps unused"
    if eval_goal(cfg.belief, domain.goal):
        return Verdict("Holds", witnesses=[(real0, trace)], note=note), cfg
    return (
        Verdict(
            "Fails",
            witness=trace,
            counterexample_world=real0,
            note=(note + "; " if note else "") + "goal false at the final belief",
        ),
        cfg,
    )


def _successors(controller, domain, node: tuple, poss_mode: str, real_mode: str):
    """Successor nodes of (control, real, belief key, belief), none at the
    final state or where the step is stuck. A reading the belief rules out
    has none; a live one without a transition leads to a dead-end node
    with control None. Successors sharing a belief share its key."""
    control, real, _belief_key, belief = node
    if control == controller.final:
        return []
    try:
        branches, next_belief = _step(
            controller, domain, control, real, belief, poss_mode, real_mode
        )
    except ExecutionStuck:
        return []
    nodes = []
    for b in branches:
        try:
            after = next_belief(b)
        except ObservationImpossible:
            continue
        nxt = (b.target, b.world, after.key(), after)
        reading = b.reading
        if reading is None:
            nodes.append((nxt, b.action, NULL_OBSERVATION))
        else:
            nodes.append((nxt, reading.token, reading.observation))
    return nodes


def _node_key(node: tuple) -> tuple:
    """(control, real, belief key): beliefs merge under the key rounding,
    and a trace step at this key is Config(key[0], key[1])."""
    return node[:3]


def _search_existential(search: _Search, controller: Controller, domain: Domain):
    """One goal-reaching run; returns (status, trace or None)."""
    truncated = False
    for (control, _real, _belief_key, belief), key, successor_keys in search:
        if control == controller.final:
            if eval_goal(belief, domain.goal):
                return "Holds", [
                    (Config(prev[0], prev[1]), action, obs)
                    for prev, action, obs in search.trace(key)
                ]
        elif successor_keys is None and control is not None:
            truncated = True  # a dead end (control None) has no run to extend
    return ("Unknown" if truncated else "Fails"), None


def _search_adversarial(search: _Search, controller: Controller, domain: Domain) -> str:
    """Check that every positive-likelihood run reaches the final state
    with the goal true.

    Nodes within the depth bound are explored once each (beliefs merge
    under the key rounding), giving a finite graph. A final node with the
    goal false or a non-final node with no successors is a failing run; a
    cycle is a run that never terminates, hence Fails. Otherwise the
    graph is a DAG of goal-reaching runs and the verdict is Holds, or
    Unknown when the bound cut off an unexplored node."""
    edges = {}  # key -> successor keys, or None where the bound cut off
    truncated = False
    for (control, _real, _belief_key, belief), key, successor_keys in search:
        if control == controller.final:
            if not eval_goal(belief, domain.goal):
                return "Fails"
        elif successor_keys is None and control is not None:
            truncated = True  # a dead end (control None) fails even at the bound
        elif not successor_keys:
            return "Fails"
        edges[key] = successor_keys

    # breadth-first interning means edges can still point at a node that
    # was cut off; that node carries None and acts as a leaf below
    white, gray, black = 0, 1, 2
    color = {key: white for key in edges}
    start_key = next(iter(edges))  # the start node is yielded first
    stack = [(start_key, iter(edges[start_key] or ()))]
    color[start_key] = gray
    while stack:
        key, children = stack[-1]
        pushed = False
        for child in children:
            if color[child] == gray:
                return "Fails"
            if color[child] == white:
                color[child] = gray
                stack.append((child, iter(edges[child] or ())))
                pushed = True
                break
        if not pushed:
            color[key] = black
            stack.pop()
    return "Unknown" if truncated else "Holds"


def verify_epistemic(
    controller: Controller,
    domain: Domain,
    mode: str = "existential",
    depth_bound: int = DEFAULT_DEPTH_BOUND,
    poss_mode: str = "belief",
    real_mode: str = "outcome",
) -> Verdict:
    """Epistemic correctness over every positive-weight initial world
    taken as the designated real world.

    existential: some positive-likelihood run per world reaches the final
    state with the goal true at the belief. adversarial: every such run
    must. Search deeper than `depth_bound` steps returns Unknown rather
    than guessing.
    """
    if mode not in ("existential", "adversarial"):
        raise VerifierInputError(f"unknown epistemic mode {mode!r}")
    if depth_bound < 0:
        raise VerifierInputError(f"depth bound must be at least 0, got {depth_bound}")
    _check_modes(poss_mode, real_mode)
    _checked(controller, domain)
    expand = functools.partial(
        _successors, controller, domain, poss_mode=poss_mode, real_mode=real_mode
    )
    belief = initial_belief(domain)
    witnesses = []
    unknown_world = None
    for world, weight in domain.initial_worlds:
        if weight <= 0.0:
            continue
        start = (controller.initial, world, belief.key(), belief)
        search = _Search([start], expand, _node_key, depth_bound)
        if mode == "existential":
            status, trace = _search_existential(search, controller, domain)
        else:
            status, trace = _search_adversarial(search, controller, domain), None
        if status == "Fails":
            return Verdict(
                "Fails",
                counterexample_world=world,
                note=f"no qualifying run from real world {world!r}"
                if mode == "existential"
                else f"some run from real world {world!r} fails",
            )
        if status == "Unknown" and unknown_world is None:
            unknown_world = world
        if trace is not None:
            witnesses.append((world, trace))
    if unknown_world is not None:
        return Verdict(
            "Unknown",
            counterexample_world=unknown_world,
            note=f"depth bound {depth_bound} reached",
        )
    return Verdict("Holds", witnesses=witnesses)
