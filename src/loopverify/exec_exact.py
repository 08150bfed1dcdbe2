"""Deterministic and outcome-branching execution over the config graph.

A config pairs a control state with a world. `successors` is the one
controller step every engine in the package walks: advice, then
executability, then outcomes or readings, then the transition lookup.
Only the last part reads the controller. The rest, the outcomes and
their successor worlds or the live readings and their likelihoods,
comes from the domain's memo (`Domain._moves`), so each (advised
action, world) pair is computed once per domain, whatever the number of
checks, candidates or runs that step it. Whether the sensing is
noise-free is decided once, when the domain is parsed.
`_Search` is the one breadth-first search: the weak, threshold and
termination checks here, both belief-level searches in exec_epistemic
and the Monte Carlo chain build iterate it. With noise-free acting the
controller induces one run per initial world; with a nontrivial
outcome model each step branches over the executable alternatives, and
correctness criteria become reachability questions over the finite
config graph:

- verify_exact: every initial world's unique run ends at the final
  control state with the goal true. This is the weak check on a
  deterministic domain, where each world has one run and the weak
  search walks exactly it.
- verify_weak: from every initial world some branch does.
- verify_termination: every reachable config can still reach the final
  control state.
- verify_weight_threshold: the weak check restricted to initial worlds
  heavier than a cutoff (strictly).
- verify_goal_mass: the prior mass of initial worlds passing the weak
  check must reach a threshold.

All checks here need noise-free sensing; noisy sensors belong to the
belief-level checker.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .controller import Controller, validate
from .formulas import eval_condition, has_belief_atoms
from .theory import NULL_OBSERVATION, Domain, Reading, WorldState


class VerifierInputError(ValueError):
    """Raised when inputs violate a checker's applicability conditions."""


class Config(NamedTuple):
    control: object
    world: WorldState


@dataclass
class Verdict:
    status: str  # "Holds" | "Fails" | "Unknown"
    witness: Optional[list] = None  # one trace: list of (Config, action, obs)
    counterexample_world: Optional[WorldState] = None
    witnesses: list = field(default_factory=list)  # [(initial world, trace)]
    note: str = ""


def _checked(controller: Controller, domain: Domain) -> None:
    if controller._valid_for is domain:
        return
    defects = validate(controller, domain)
    if defects:
        raise VerifierInputError("controller is invalid: " + "; ".join(defects))


def _require_objective_goal(domain: Domain) -> None:
    if has_belief_atoms(domain.goal):
        raise VerifierInputError(
            "goal contains belief atoms; use the belief-level checker"
        )


def _require_exact_sensing(domain: Domain) -> None:
    """Noise-free sensing: exactly one live reading everywhere.

    Checked statically, when the domain is parsed, where the relevant
    state space is small; larger spaces fall back to erroring at the
    first noisy expansion.
    """
    if domain._sensing_defect:
        raise VerifierInputError(domain._sensing_defect)


class Branch(NamedTuple):
    """One way a controller step can go from a config.

    `action` is the action that occurs (an outcome of the advised action
    on physical steps, the sensing action itself otherwise), `reading`
    the sensor reading (None on physical steps), `world` the world after
    the step, and `target` the next control state (None when a reading's
    observation has no transition).
    """

    action: str
    reading: Optional[Reading]
    likelihood: float
    world: WorldState
    target: object

    @property
    def observation(self) -> str:
        return NULL_OBSERVATION if self.reading is None else self.reading.observation


def successors(controller: Controller, domain: Domain, control, world: WorldState) -> list:
    """The branches of one controller step from (control, world).

    Physical steps branch over the executable positive-likelihood
    outcomes in outcome-model order, sensing steps over the
    positive-likelihood readings in declared order. Empty at the final
    state, without advice, for a physical step without a null-observation
    transition, and when no alternative is executable.
    """
    if control == controller.final:
        return []
    advised = controller.advice.get(control)
    if advised is None:
        return []
    transitions = controller.transitions
    if domain.actions[advised].kind == "physical":
        # looked up before the moves, so an effect that leaves its domain
        # errors only where the controller can take the step
        target = transitions.get((control, NULL_OBSERVATION))
        if target is None:
            return []
        return [
            Branch(action, None, likelihood, successor, target)
            for action, likelihood, successor in domain._moves(advised, world)
        ]
    branches = []
    for reading, likelihood in domain._moves(advised, world):
        target = transitions.get((control, reading.observation))
        branches.append(Branch(advised, reading, likelihood, world, target))
    return branches


def _steps(controller: Controller, domain: Domain, cfg: Config) -> list:
    """(next config, action, observation) for every branch of `cfg` that
    has a target, sorted by (action, observation), numeric action names
    before string ones. Sensing must be noise-free."""
    branches = successors(controller, domain, cfg.control, cfg.world)
    if len(branches) > 1 and branches[0].reading is not None:
        raise VerifierInputError(
            f"sensor of {branches[0].action} is not noise-free at {cfg.world!r} "
            f"({len(branches)} live readings); use the belief-level semantics"
        )
    steps = [
        (Config(b.target, b.world), b.action, b.observation)
        for b in branches
        if b.target is not None
    ]
    steps.sort(key=lambda entry: (isinstance(entry[1], str), entry[1], entry[2]))
    return steps


class _Search:
    """Breadth-first search over the graph `expand` spans from `starts`.

    `expand(node)` lists the node's (next node, action, observation)
    edges. Nodes are identified by `key(node)`, the node itself by
    default, and each key is visited once, in discovery order. Iterating
    yields (node, key, successor keys); the successor keys are None for
    a node `depth_bound` steps from a start, which is not expanded.
    `parent` maps every discovered key, in discovery order, to (previous
    key, action, observation), or to None at a start node.
    """

    __slots__ = ("parent", "_queue", "_expand", "_key", "_depth_bound")

    def __init__(self, starts, expand, key=None, depth_bound=None):
        self.parent = {}
        self._queue = deque()
        self._expand = expand
        self._key = key
        self._depth_bound = depth_bound
        for node in starts:
            node_key = node if key is None else key(node)
            if node_key not in self.parent:
                self.parent[node_key] = None
                self._queue.append((node, node_key, 0))

    def __iter__(self):
        parent, queue, expand, key = self.parent, self._queue, self._expand, self._key
        depth_bound = self._depth_bound
        while queue:
            node, node_key, depth = queue.popleft()
            if depth == depth_bound:
                yield node, node_key, None
                continue
            successor_keys = []
            for nxt, action, obs in expand(node):
                nxt_key = nxt if key is None else key(nxt)
                successor_keys.append(nxt_key)
                if nxt_key not in parent:
                    parent[nxt_key] = (node_key, action, obs)
                    queue.append((nxt, nxt_key, depth + 1))
            yield node, node_key, successor_keys

    def trace(self, key) -> list:
        """The (previous key, action, observation) steps from a start
        node to `key`."""
        steps = []
        while self.parent[key] is not None:
            steps.append(self.parent[key])
            key = steps[-1][0]
        steps.reverse()
        return steps


def _expander(controller: Controller, domain: Domain):
    """`_steps` for one check, computed once per config.

    Runs and searches from different initial worlds meet the same
    configs; a dict, because synthesis runs thousands of checks and an
    lru_cache takes longer to build than most of their searches take to
    run."""
    expanded = {}

    def expand(cfg: Config) -> list:
        steps = expanded.get(cfg)
        if steps is None:
            steps = expanded[cfg] = _steps(controller, domain, cfg)
        return steps

    return expand


def _weak_trace(controller: Controller, domain: Domain, expand, world: WorldState):
    """Breadth-first search for one goal-reaching branch from `world`;
    its trace, or None when there is none, and the search."""
    search = _Search([Config(controller.initial, world)], expand)
    for cfg, _key, _successor_keys in search:
        if cfg.control == controller.final and eval_condition(domain.goal, cfg.world):
            return search.trace(cfg), search
    return None, search


def _weak_per_world(controller: Controller, domain: Domain, cutoff: float):
    """(world, weight, trace or None, search) for each initial world weighing
    more than `cutoff`, in declared order and computed lazily, so a
    caller can stop at the first failure."""
    _checked(controller, domain)
    _require_objective_goal(domain)
    _require_exact_sensing(domain)
    expand = _expander(controller, domain)
    return (
        (world, weight, *_weak_trace(controller, domain, expand, world))
        for world, weight in domain.initial_worlds
        if weight > cutoff
    )


def _weak_all(controller, domain, cutoff: float, note: str, failure: str) -> Verdict:
    """Holds when every initial world above `cutoff` has a goal-reaching
    branch; Fails at the first that has none."""
    witnesses = []
    for world, _weight, trace, _search in _weak_per_world(controller, domain, cutoff):
        if trace is None:
            return Verdict("Fails", counterexample_world=world, note=failure)
        witnesses.append((world, trace))
    return Verdict("Holds", witnesses=witnesses, note=note)


def verify_exact(controller: Controller, domain: Domain) -> Verdict:
    """Every positive-weight initial world's unique run must reach the
    final state with the goal true there.

    The weak search on a deterministic domain: with exact sensing each
    config has at most one step, so a search walks exactly the one run,
    and its goal trace is the run. A run that misses the goal ends at
    the config the search discovered last."""
    runs = _weak_per_world(controller, domain, 0.0)
    if not domain.is_deterministic():
        raise VerifierInputError(
            "outcome models are nontrivial; use the outcome-branching criteria"
        )
    witnesses = []
    for world, _weight, trace, search in runs:
        if trace is not None:
            witnesses.append((world, trace))
            continue
        last = next(reversed(search.parent))
        trace = search.trace(last)
        if last.control == controller.final:
            note = "goal false at the final state"
        elif not (steps := _steps(controller, domain, last)):
            note = "run is stuck before the final state"
        else:
            trace.append((last, *steps[0][1:]))
            note = "run revisits a configuration and diverges"
        return Verdict("Fails", witness=trace, counterexample_world=world, note=note)
    return Verdict("Holds", witnesses=witnesses)


def verify_weak(controller: Controller, domain: Domain) -> Verdict:
    """Some outcome branch must reach the goal from every initial world."""
    return _weak_all(controller, domain, 0.0, "", "no outcome branch reaches the goal")


def verify_termination(controller: Controller, domain: Domain) -> Verdict:
    """Every config reachable under outcome branching must still be able
    to reach the final control state."""
    _checked(controller, domain)
    _require_exact_sensing(domain)
    search = _Search(
        [Config(controller.initial, w) for w, weight in domain.initial_worlds if weight > 0.0],
        functools.partial(_steps, controller, domain),  # one visit per config
    )
    reverse = {}
    for cfg, _key, successor_keys in search:
        for nxt in successor_keys:
            reverse.setdefault(nxt, []).append(cfg)
    stack = [cfg for cfg in search.parent if cfg.control == controller.final]
    can_finish = set(stack)
    while stack:
        for prev in reverse.get(stack.pop(), ()):
            if prev not in can_finish:
                can_finish.add(prev)
                stack.append(prev)

    for cfg in search.parent:
        if cfg not in can_finish:
            trace = search.trace(cfg)
            return Verdict(
                "Fails",
                witness=trace,
                counterexample_world=(trace[0][0] if trace else cfg).world,
                note=f"config (control={cfg.control!r}, world={cfg.world!r}) "
                "cannot reach the final state",
            )
    return Verdict("Holds")


def verify_weight_threshold(controller: Controller, domain: Domain, kappa: float) -> Verdict:
    """Weak-plan check for every initial world of weight strictly above
    `kappa`. The comparison is strict: a world weighing exactly `kappa`
    is exempt."""
    note = ""
    total = sum(weight for _w, weight in domain.initial_worlds)
    if kappa < 0.0 or kappa >= total:
        note = f"threshold {kappa} lies outside [0, total weight {total})"
    return _weak_all(
        controller,
        domain,
        kappa,
        note,
        (note + "; " if note else "")
        + f"world above weight threshold {kappa} has no goal-reaching branch",
    )


def verify_goal_mass(controller: Controller, domain: Domain, kappa: float) -> Verdict:
    """The prior mass of initial worlds admitting a goal-reaching branch,
    normalized by the total prior, must be at least `kappa`. At kappa >= 1
    the check requires literally every positive-weight world to pass, so
    the verdict cannot drift across float rounding."""
    passing = 0.0
    witnesses = []
    first_failure = None
    for world, weight, trace, _search in _weak_per_world(controller, domain, 0.0):
        if trace is not None:
            passing += weight
            witnesses.append((world, trace))
        elif first_failure is None:
            first_failure = world
    mass = passing / sum(weight for _w, weight in domain.initial_worlds)
    note = f"goal-reaching mass {mass:.9f} of threshold {kappa}"
    if kappa >= 1.0:
        achieved = first_failure is None
    else:
        achieved = mass >= kappa
    if achieved:
        return Verdict("Holds", witnesses=witnesses, note=note)
    return Verdict("Fails", counterexample_world=first_failure, note=note)
