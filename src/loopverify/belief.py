"""Weighted-world belief states: progression, conditioning, queries.

A belief state is a finite map from possible worlds to nonnegative
unnormalized weights. Performing a noisy physical action spreads each
world over the action's executable alternatives, scaled by their
likelihoods; worlds where no alternative is executable contribute
nothing. Sensor readings rescale each world by the reading's likelihood
there. Normalization happens only inside queries, so weights stay exact
products of the declared likelihoods, up to one power of two: products
that sum below `_RESCALE_BELOW` are computed again by `_rescaled`, so a
long run of small likelihoods cannot underflow every weight to 0.0.

`progress` and `condition` on a declared reading depend only on the
action, the reading and the belief's exact contents: its particles with
their weights, in order, and its tracing flag. They go through the
domain's memo on that key, so searches, synthesis candidates and
simulated runs that meet an equal belief share one result object, and
an annihilated belief or an impossible reading is remembered as such.
The rounded `key()` never keys the memo, because beliefs it merges can
progress differently; it is cached on the belief object instead. A
belief conditioned on a raw sampled value (a Gaussian sensor in
`simulate`) and everything progressed from it are computed without the
memo: almost every such belief is new, and storing them would grow the
memo with the number of runs. Whether an action is executable at every
possible world of a belief is memoized the same way.
"""

from __future__ import annotations

import math

from .formulas import Comparison, eval_condition, walk
from .theory import Domain, Reading, WorldState

# decimal places key() rounds to; the key is cached per belief
_KEY_PLACES = 9

# sum of a belief's products below which `_rescaled` computes them again
_RESCALE_BELOW = 2.0**-256


class BeliefAnnihilated(ValueError):
    """The intended action was inexecutable in every possible world."""


class ObservationImpossible(ValueError):
    """The reading has zero likelihood in every possible world."""


class BeliefState:
    """Immutable map from (world, history tag) to weight > 0.

    With tracing off (the default) the tag is always "" and particles
    with equal worlds merge by weight addition, which is sound for every
    supported query since likelihoods depend only on the current world.
    With tracing on, tags record the outcome history so per-history
    weights stay visible for debugging.
    """

    __slots__ = ("particles", "tracing", "_sampled", "_contents", "_key", "_total")

    def __init__(self, particles: dict, tracing: bool = False):
        self.particles = {k: w for k, w in particles.items() if w > 0.0}
        self.tracing = tracing
        self._sampled = False  # conditioned on a raw value, here or upstream
        self._contents = None  # memo key of the exact contents, on first use
        self._key = None  # key() at the default precision, on first use
        self._total = None  # total(), on first use or from _progress/_condition

    def _memo_contents(self):
        """The exact contents as a domain-memo key, or None for a sampled
        belief, which stays out of the memo."""
        if self._sampled:
            return None
        if self._contents is None:
            self._contents = (self.tracing, tuple(self.particles.items()))
        return self._contents

    def total(self) -> float:
        if self._total is None:
            self._total = sum(self.particles.values())
        return self._total

    def worlds(self) -> list:
        """Positive-weight worlds, deduplicated, in sorted key order."""
        return sorted(self.merged(), key=WorldState.key)

    def merged(self) -> dict:
        """World -> total weight, ignoring history tags."""
        out = {}
        for (world, _tag), weight in self.particles.items():
            out[world] = out.get(world, 0.0) + weight
        return out

    def as_dicts(self) -> list:
        """JSON-ready dump: sorted list of {state, weight} (tags merged)."""
        merged = self.merged()
        return [
            {"state": world.as_dict(), "weight": weight}
            for world, weight in sorted(merged.items(), key=lambda kv: kv[0].key())
        ]

    def key(self) -> tuple:
        """Hashable summary: worlds with normalized weights rounded to
        `_KEY_PLACES` decimals; rounding merges numerically equal beliefs."""
        if self._key is None:
            total = self.total()
            entries = []
            for world, weight in sorted(self.merged().items(), key=lambda kv: kv[0].key()):
                rounded = round(weight / total, _KEY_PLACES)
                if rounded > 0.0:
                    entries.append((world.key(), rounded))
            self._key = tuple(entries)
        return self._key


def initial_belief(domain: Domain, tracing: bool = False) -> BeliefState:
    """Belief matching the prior; zero-weight worlds are not possible."""
    particles = {}
    for world, weight in domain.initial_worlds:
        if weight > 0.0:
            particles[(world, "")] = particles.get((world, ""), 0.0) + weight
    return BeliefState(particles, tracing)


def _memoized(domain: Domain, op: tuple, b: BeliefState, compute, *args):
    """compute(b, *args) through the domain's memo, keyed by `op` and the
    exact contents of `b`. An annihilated belief or an impossible reading
    is stored as the exception and raised anew on every hit; any other
    error propagates and is not stored."""
    contents = b._memo_contents()
    if contents is None:
        return compute(b, *args)
    key = (op, contents)
    memo = domain._memo
    result = memo.get(key)
    if result is None:
        try:
            result = compute(b, *args)
        except (BeliefAnnihilated, ObservationImpossible) as exc:
            result = exc.with_traceback(None)
        memo[key] = result
    if isinstance(result, (BeliefAnnihilated, ObservationImpossible)):
        raise type(result)(*result.args)
    return result


def _poss_everywhere(domain: Domain, action: str, b: BeliefState) -> bool:
    """`action` is executable at every possible world of `b`."""
    op = ("poss_everywhere", action)
    return _memoized(domain, op, b, _executable_everywhere, action, domain)


def _executable_everywhere(b: BeliefState, action: str, domain: Domain) -> bool:
    return all(domain.poss(action, world) for world in b.worlds())


def progress(b: BeliefState, intended: str, domain: Domain) -> BeliefState:
    """Belief after intending a physical action under the outcome model."""
    action = domain.actions[intended]
    if action.kind != "physical":
        raise ValueError(f"progress needs a physical action, got {intended!r}")
    return _memoized(domain, ("progress", intended), b, _progress, intended, domain)


def _progress(b: BeliefState, intended: str, domain: Domain) -> BeliefState:
    particles = {}
    for (world, tag), weight in b.particles.items():
        for action, likelihood, successor in domain._moves(intended, world):
            key = (successor, tag + "." + action if b.tracing else "")
            particles[key] = particles.get(key, 0.0) + weight * likelihood
    total = sum(particles.values())
    if total < _RESCALE_BELOW:
        total = None
        particles = _rescaled(
            ((successor, tag + "." + action if b.tracing else ""), weight, likelihood)
            for (world, tag), weight in b.particles.items()
            for action, likelihood, successor in domain._moves(intended, world)
        )
    state = BeliefState(particles, b.tracing)
    if not state.particles:
        raise BeliefAnnihilated(
            f"belief annihilated: {intended!r} is inexecutable in every possible world"
        )
    state._sampled = b._sampled
    state._total = total
    return state


def _rescaled(terms) -> dict:
    """Key -> sum of weight * likelihood over `terms` of (key, weight,
    likelihood), each product taken from its factors' `frexp` halves and
    scaled by the power of two that puts the largest in [0.25, 1). That
    is exact wherever the plain product is a normal float, so normalized
    weights, keys and queries keep their bits, and a reading is ruled
    out only where its likelihood is 0.0 at every world."""
    split = [(key, *math.frexp(w), *math.frexp(likelihood)) for key, w, likelihood in terms]
    top = max((e + f for _key, m, e, n, f in split if m * n), default=0)
    particles = {}
    for key, m, e, n, f in split:
        particles[key] = particles.get(key, 0.0) + math.ldexp(m * n, e + f - top)
    return particles


def condition(b: BeliefState, action: str, reading, domain: Domain) -> BeliefState:
    """Belief after the sensing action reports `reading`.

    `reading` may be a Reading, a declared reading token, or a bare
    number (a raw sampled sensor value for density models). Only the
    first two go through the domain's memo.
    """
    model = domain.sensing_models.get(action)
    if model is None:
        raise ValueError(f"{action!r} has no sensing model")
    if isinstance(reading, (Reading, str)):
        op = ("condition", action, reading)
        return _memoized(domain, op, b, _condition, model, reading)
    state = _condition(b, model, reading)
    state._sampled = True
    return state


def _condition(b: BeliefState, model, reading) -> BeliefState:
    if isinstance(reading, Reading):
        value = reading.value
    elif isinstance(reading, str):
        value = model.reading_by_token(reading).value
    else:
        value = float(reading)
    particles = {}
    for (world, tag), weight in b.particles.items():
        scaled = weight * model.likelihood(world, value)
        if scaled > 0.0:
            particles[(world, tag)] = scaled
    total = sum(particles.values())
    if total < _RESCALE_BELOW:
        total = None
        particles = _rescaled(
            (key, weight, model.likelihood(key[0], value)) for key, weight in b.particles.items()
        )
    state = BeliefState(particles, b.tracing)
    if not state.particles:
        raise ObservationImpossible(
            f"observation impossible under current belief: {model.action!r} "
            f"reading {reading!r}"
        )
    state._sampled = b._sampled
    state._total = total
    return state


def bel(b: BeliefState, formula) -> float:
    """Normalized weight of the worlds satisfying an objective formula."""
    total = 0.0
    matching = 0.0
    for (world, _tag), weight in b.particles.items():
        total += weight
        if eval_condition(formula, world):
            matching += weight
    if total <= 0.0:
        raise ValueError("belief state has no weight")
    return matching / total


def eval_goal(b: BeliefState, goal) -> bool:
    """Evaluate a goal formula at a belief state.

    Belief/knowledge atoms are answered by bel(); everything objective
    must hold at every positive-weight world. A goal that reads no
    fluent outside its atoms has the same value at every world, so it is
    evaluated once.
    """
    cache = {}

    def bel_fn(inner):
        if inner not in cache:
            cache[inner] = bel(b, inner)
        return cache[inner]

    if not any(isinstance(n, Comparison) for n in walk(goal, into_atoms=False)):
        return not b.particles or eval_condition(goal, None, bel_fn)
    return all(eval_condition(goal, world, bel_fn) for world in b.worlds())
