"""Finite-domain action theories: worlds, actions, noise models, parsing.

A domain fixes a finite set of fluents with finite value domains, a set of
ground actions (physical or sensing), outcome models attaching likelihoods
to the alternatives a physical action may produce when intended, sensing
models attaching likelihoods to the readings a sensing action may report,
a weighted set of initial worlds, and a goal formula.

Everything is immutable after parsing, except one private memo per
domain. It holds what a step computes without looking at a controller,
keyed on exact inputs, so every check, synthesis candidate and
simulated run on the domain shares it:

- the kernel moves of `Domain._moves`, by (advised action, world);
- belief progression and conditioning (`belief.py`), by (action,
  reading, exact belief contents), including the annihilated and
  impossible results, and whether an action is executable in every
  world of a belief, by (action, exact belief contents);
- the prior belief, one per tracing flag (`belief.initial_belief`);
- the def9 searches' step (`exec_epistemic._kept_step`), which reads
  no controller, kept on each belief object the memo returns, by
  (advised action, real world, poss mode, real mode). The object is a
  safe key, because the memo returns one object for equal contents and
  searches start from the one prior;
- a small int for each distinct rounded `BeliefState.key()`, which
  keys the def9 search nodes in its place.

No result is keyed on the rounded key, and errors from the domain are
never stored. A belief conditioned on a raw sampled sensor value, and
every belief progressed from it, stays out of the memo: each sampled
run makes new ones, so storing them would grow the memo with the number
of runs. The memo only grows and has no size
limit; it lives as long as its domain. Threads may share a domain: two
threads filling one entry store equal values.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

from .formulas import (
    FormulaError,
    eval_condition,
    eval_value,
    mentioned_fluents,
    parse_condition,
    parse_objective,
    parse_value_expr,
)

# observation token emitted by every physical action
NULL_OBSERVATION = "0"

# static validation enumerates at most this many assignments per check
_STATIC_CHECK_LIMIT = 4096


class DomainError(ValueError):
    """Raised for structurally invalid domain descriptions."""


def read_json(source, error, what: str):
    """The JSON document in a string or an open text file; text that is
    not JSON, bytes that are not UTF-8, an int literal longer than
    `sys.get_int_max_str_digits()` and nesting too deep to decode raise
    `error`, the input error class of the document."""
    try:
        return json.loads(source) if isinstance(source, str) else json.load(source)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def read_name(value, error, what: str):
    """`value` itself when it can be a name: a string or a finite number.
    Names are hashed and compared, so a bool, null, list or object cannot
    be one; those raise `error`, the input error class of the document."""
    if not isinstance(value, str) and not _finite(value):
        raise error(f"{what} must be a string or a number, not {value!r}")
    return value


def _finite(value) -> bool:
    """True for a JSON number that is finite as a float; bools, NaN,
    infinities and ints past the largest float are rejected."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _object(entry, what: str) -> dict:
    """`entry` itself when it is a JSON object."""
    if not isinstance(entry, dict):
        raise DomainError(f"bad {what} entry: {entry!r}")
    return entry


def _list(value, what: str) -> list:
    """`value` itself when it is a JSON list."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list, not {value!r}")
    return value


@dataclass(frozen=True)
class FluentDecl:
    """A fluent and its values: the declared `range`, which holds only its
    bounds however wide, or the declared list as a tuple, sorted if ints."""

    name: str
    kind: str  # "int" or "enum"
    values: object  # range or tuple

    def coerce(self, raw, clamp: bool = False):
        """`raw` as a value of this fluent, or None when it is not one. An
        integral float reads as its int and a bool is never a value;
        `clamp` moves an integer past either end of the range onto it."""
        if type(raw) is float and raw.is_integer():
            raw = int(raw)
        # the type test keeps out bools, the lists and objects of a JSON
        # document and, for a range, any value that would scan it
        if type(raw) is not (int if self.kind == "int" else str):
            return None
        if clamp:
            raw = min(max(raw, self.values[0]), self.values[-1])
        return raw if raw in self.values else None


class WorldState:
    """Immutable total assignment of values to fluents."""

    __slots__ = ("_values", "_key", "_hash")

    def __init__(self, values: dict):
        self._values = dict(values)
        self._key = tuple(sorted(self._values.items()))
        self._hash = hash(self._key)

    def __getitem__(self, fluent: str):
        return self._values[fluent]

    def __eq__(self, other) -> bool:
        return isinstance(other, WorldState) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._key)
        return f"WorldState({inner})"

    def key(self) -> tuple:
        return self._key

    def as_dict(self) -> dict:
        return dict(self._values)

    def updated(self, changes: dict) -> "WorldState":
        merged = dict(self._values)
        merged.update(changes)
        return WorldState(merged)


@dataclass(frozen=True)
class Effect:
    fluent: str
    expr: object  # value-expression AST
    clamp: bool = False  # clamp integer endpoint overflow instead of erroring


@dataclass(frozen=True)
class GroundAction:
    name: str
    kind: str  # "physical" or "sensing"
    precondition: object  # condition AST
    effects: tuple  # tuple[Effect, ...], at most one per fluent


@dataclass(frozen=True)
class Outcome:
    action: str  # the action that actually occurs
    likelihood: float


@dataclass(frozen=True)
class OutcomeModel:
    """Distribution over which action occurs when `intended` is performed.

    Likelihoods are normalized at parse time; only positive ones are kept.
    """

    intended: str
    outcomes: tuple  # tuple[Outcome, ...], declared order


@dataclass(frozen=True)
class Reading:
    token: str
    value: float  # the number the sensor reports (identifier for tables)
    observation: str  # controller-visible observation token


@dataclass(frozen=True)
class SensingModel:
    """Likelihood of sensor readings for one sensing action.

    Exactly one of `table` (state-conditioned rows of discrete likelihoods,
    first matching row wins) or a Gaussian model (mean taken from a fluent,
    fixed variance) is present. Every model declares the finite reading
    list the controller can branch on.
    """

    action: str
    readings: tuple  # tuple[Reading, ...]
    table: tuple = ()  # tuple[(condition AST, {token: likelihood})]
    mean_fluent: str = ""
    variance: float = 0.0

    @property
    def is_gaussian(self) -> bool:
        return bool(self.mean_fluent)

    def likelihood(self, world: "WorldState", value: float) -> float:
        """Relative weight of the sensor reporting `value` in `world`."""
        if self.is_gaussian:
            return gaussian_density(value, float(world[self.mean_fluent]), self.variance)
        for condition, row in self.table:
            if eval_condition(condition, world):
                for reading in self.readings:
                    if reading.value == value:
                        return row.get(reading.token, 0.0)
                return 0.0
        return 0.0

    def reading_by_token(self, token: str) -> Reading:
        for reading in self.readings:
            if reading.token == token:
                return reading
        raise KeyError(token)


def gaussian_density(value: float, mean: float, variance: float) -> float:
    """Normal density with the third argument a variance, not a deviation."""
    return math.exp(-((value - mean) ** 2) / (2.0 * variance)) / math.sqrt(
        2.0 * math.pi * variance
    )


@dataclass
class Domain:
    name: str
    fluents: dict  # name -> FluentDecl, declaration order
    actions: dict  # name -> GroundAction, declaration order
    outcome_models: dict  # intended action name -> OutcomeModel
    sensing_models: dict  # sensing action name -> SensingModel
    initial_worlds: tuple  # tuple[(WorldState, float)], declared order
    goal: object  # goal formula AST (may contain belief atoms)
    notes: str = ""
    _observation_order: tuple = field(default=(), repr=False)
    _sensing_defect: str = field(default="", repr=False)  # why sensing is not noise-free
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def observations(self) -> tuple:
        """All observation tokens: the null token first, then sensing
        tokens in declaration order (first occurrence wins)."""
        return self._observation_order

    def poss(self, action: str, world: WorldState) -> bool:
        return eval_condition(self.actions[action].precondition, world)

    def apply(self, action: str, world: WorldState) -> WorldState:
        """Successor world of executing `action`; precondition must hold."""
        act = self.actions[action]
        if not eval_condition(act.precondition, world):
            raise DomainError(f"{action} is not executable at {world!r}")
        changes = _effect_changes(self.fluents, act, world)
        return world.updated(changes) if changes else world

    def outcomes_of(self, action: str, world: WorldState) -> list:
        """Executable positive-likelihood alternatives of intending `action`.

        An action without an outcome model is its own single outcome.
        Order follows the model declaration; an empty list means no
        alternative is executable (a dead end for the caller).
        """
        model = self.outcome_models.get(action)
        if model is None:
            if self.poss(action, world):
                return [Outcome(action, 1.0)]
            return []
        return [o for o in model.outcomes if self.poss(o.action, world)]

    def _moves(self, advised: str, world: WorldState) -> tuple:
        """The controller-free part of one step from `world`, memoized:
        (action, likelihood, next world) for each executable outcome of a
        physical action, or (reading, likelihood) for each live reading of
        a sensing action, empty where the sensing action is inexecutable."""
        key = ("moves", advised, world)
        moves = self._memo.get(key)
        if moves is None:
            moves = []
            if self.actions[advised].kind == "physical":
                for o in self.outcomes_of(advised, world):
                    moves.append((o.action, o.likelihood, self.apply(o.action, world)))
            elif self.poss(advised, world):
                model = self.sensing_models[advised]
                for reading in model.readings:
                    likelihood = model.likelihood(world, reading.value)
                    if likelihood > 0.0:
                        moves.append((reading, likelihood))
            moves = self._memo[key] = tuple(moves)
        return moves

    def is_deterministic(self) -> bool:
        """True when every outcome model is the trivial self-outcome."""
        for model in self.outcome_models.values():
            if len(model.outcomes) != 1 or model.outcomes[0].action != model.intended:
                return False
        return True


def parse_domain(data) -> Domain:
    """Build a validated Domain from a JSON document (text or parsed)."""
    if isinstance(data, str):
        data = read_json(data, DomainError, "domain file")
    if not isinstance(data, dict):
        raise DomainError("domain description must be a JSON object")

    fluents = _parse_fluents(data.get("fluents"))
    actions = _parse_actions(data.get("actions"), fluents)
    models = _parse_outcome_models(data.get("outcome_models", []), actions)
    sensing = _parse_sensing_models(data.get("sensing_models", []), fluents, actions)
    for action in actions.values():
        if action.kind == "sensing" and action.name not in sensing:
            raise DomainError(f"sensing action {action.name!r} needs a sensing model")
    worlds = _parse_initial(data.get("initial"), fluents)
    goal_src = data.get("goal")
    if not isinstance(goal_src, str):
        raise DomainError("goal must be a formula string")
    try:
        goal = parse_objective(goal_src, fluents)
    except FormulaError as exc:
        raise DomainError(f"bad goal: {exc}") from exc

    _check_effect_ranges(fluents, actions)
    sensing_defect = _check_sensors(fluents, sensing)
    observation_order = [NULL_OBSERVATION]
    for model in sensing.values():
        for reading in model.readings:
            if reading.observation not in observation_order:
                observation_order.append(reading.observation)

    notes = data.get("notes", "")
    if not isinstance(notes, str):
        raise DomainError(f"notes must be a string, not {notes!r}")
    return Domain(
        name=str(read_name(data.get("name", "domain"), DomainError, "domain name")),
        fluents=fluents,
        actions=actions,
        outcome_models=models,
        sensing_models=sensing,
        initial_worlds=worlds,
        goal=goal,
        notes=notes,
        _observation_order=tuple(observation_order),
        _sensing_defect=sensing_defect,
    )


def load_domain(path) -> Domain:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_domain(read_json(handle, DomainError, "domain file"))


def world_from_dict(domain: Domain, raw: dict) -> WorldState:
    """Validate a fluent->value mapping and intern it as a WorldState."""
    return _read_world(domain.fluents, raw, "world")


def _read_world(fluents: dict, raw, what: str) -> WorldState:
    """`raw` as a world when it is an object giving every fluent exactly
    one value of that fluent."""
    if not isinstance(raw, dict) or set(raw) != set(fluents):
        raise DomainError(f"{what} must assign every fluent exactly once: {raw!r}")
    values = {name: fluents[name].coerce(value) for name, value in raw.items()}
    for name, value in values.items():
        if value is None:
            raise DomainError(f"{what} value {raw[name]!r} not in domain of {name!r}")
    return WorldState(values)


def _parse_fluents(raw) -> dict:
    if not isinstance(raw, list) or not raw:
        raise DomainError("fluents must be a nonempty list")
    fluents = {}
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry:
            raise DomainError(f"bad fluent entry: {entry!r}")
        name = entry["name"]
        if not isinstance(name, str):
            # a world assigns fluents by JSON object key, always a string
            raise DomainError(f"fluent name must be a string, not {name!r}")
        if name in fluents:
            raise DomainError(f"duplicate fluent {name!r}")
        if "range" in entry:
            bounds = entry["range"]
            if (
                not isinstance(bounds, list)
                or len(bounds) != 2
                or not all(isinstance(b, int) and not isinstance(b, bool) for b in bounds)
                or bounds[0] > bounds[1]
            ):
                raise DomainError(f"bad range for {name!r}: {bounds!r}")
            values = range(bounds[0], bounds[1] + 1)
            kind = "int"
        elif "values" in entry:
            values = tuple(_list(entry["values"], f"values of {name!r}"))
            if not values:
                raise DomainError(f"fluent {name!r} has an empty value list")
            if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
                kind = "int"
            elif all(isinstance(v, str) for v in values):
                kind = "enum"
            else:
                raise DomainError(f"fluent {name!r} mixes value types")
            if len(set(values)) != len(values):
                raise DomainError(f"fluent {name!r} repeats a value")
            if kind == "int":
                values = tuple(sorted(values))
        else:
            raise DomainError(f"fluent {name!r} needs a range or values list")
        fluents[name] = FluentDecl(name, kind, values)
    return fluents


def _parse_actions(raw, fluents: dict) -> dict:
    if not isinstance(raw, list) or not raw:
        raise DomainError("actions must be a nonempty list")
    actions = {}
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry:
            raise DomainError(f"bad action entry: {entry!r}")
        name = read_name(entry["name"], DomainError, "action name")
        if name in actions:
            raise DomainError(f"duplicate action {name!r}")
        kind = entry.get("kind", "physical")
        if kind not in ("physical", "sensing"):
            raise DomainError(f"action {name!r} has unknown kind {kind!r}")
        try:
            precondition = parse_condition(entry.get("precondition", "true"), fluents)
        except FormulaError as exc:
            raise DomainError(f"bad precondition for {name!r}: {exc}") from exc
        effects = []
        targets = set()
        for eff in _list(entry.get("effects", []), f"effects of {name!r}"):
            target = read_name(
                _object(eff, "effect").get("fluent"), DomainError, f"effect target of {name!r}"
            )
            if target not in fluents:
                raise DomainError(f"effect of {name!r} targets unknown fluent {target!r}")
            if target in targets:
                raise DomainError(f"effect of {name!r} writes {target!r} twice")
            targets.add(target)
            try:
                expr = parse_value_expr(eff.get("value"), fluents)
            except FormulaError as exc:
                raise DomainError(f"bad effect for {name!r}: {exc}") from exc
            clamp = eff.get("clamp", False)
            if not isinstance(clamp, bool):
                raise DomainError(f"clamp of {name!r} on {target!r} must be true or false")
            if clamp and fluents[target].kind != "int":
                raise DomainError(f"clamp on non-integer fluent {target!r}")
            effects.append(Effect(target, expr, clamp))
        if kind == "sensing" and effects:
            raise DomainError(f"sensing action {name!r} must not have effects")
        actions[name] = GroundAction(name, kind, precondition, tuple(effects))
    return actions


def _parse_outcome_models(raw, actions: dict) -> dict:
    if not isinstance(raw, list):
        raise DomainError("outcome_models must be a list")
    models = {}
    for entry in raw:
        intended = read_name(
            _object(entry, "outcome model").get("intended"), DomainError, "intended action"
        )
        if intended not in actions:
            raise DomainError(f"outcome model for unknown action {intended!r}")
        if intended in models:
            raise DomainError(f"duplicate outcome model for {intended!r}")
        if actions[intended].kind != "physical":
            raise DomainError(f"outcome model on non-physical action {intended!r}")
        declared = entry.get("outcomes")
        if not isinstance(declared, list) or not declared:
            raise DomainError(f"outcome model of {intended!r} needs outcomes")
        outcomes = []
        seen = set()
        for item in declared:
            actual = read_name(
                _object(item, "outcome").get("actual"), DomainError, "outcome action"
            )
            if actual not in actions:
                raise DomainError(f"outcome of {intended!r} names unknown action {actual!r}")
            if actions[actual].kind != "physical":
                raise DomainError(f"outcome of {intended!r} names sensing action {actual!r}")
            if actual in seen:
                raise DomainError(f"outcome model of {intended!r} repeats {actual!r}")
            seen.add(actual)
            likelihood = item.get("likelihood")
            if not _finite(likelihood) or likelihood < 0:
                raise DomainError(f"bad likelihood for outcome {actual!r} of {intended!r}")
            outcomes.append(Outcome(actual, float(likelihood)))
        if intended not in seen:
            raise DomainError(f"outcome model of {intended!r} must include {intended!r}")
        total = sum(o.likelihood for o in outcomes)
        if total <= 0.0:
            raise DomainError(f"outcome model of {intended!r} has zero total weight")
        if not math.isfinite(total):
            raise DomainError(f"outcome model of {intended!r} has an infinite total weight")
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            # constant positive factors do not change the distribution
            outcomes = [Outcome(o.action, o.likelihood / total) for o in outcomes]
        models[intended] = OutcomeModel(
            intended, tuple(o for o in outcomes if o.likelihood > 0.0)
        )
    return models


def _parse_sensing_models(raw, fluents: dict, actions: dict) -> dict:
    if not isinstance(raw, list):
        raise DomainError("sensing_models must be a list")
    sensing = {}
    for entry in raw:
        name = read_name(
            _object(entry, "sensing model").get("action"), DomainError, "sensing action"
        )
        if name not in actions:
            raise DomainError(f"sensing model for unknown action {name!r}")
        if actions[name].kind != "sensing":
            raise DomainError(f"sensing model on physical action {name!r}")
        if name in sensing:
            raise DomainError(f"duplicate sensing model for {name!r}")

        readings = []
        tokens = set()
        for item in _list(entry.get("readings", []), f"readings of {name!r}"):
            if "token" not in _object(item, "reading"):
                raise DomainError(f"reading of {name!r} needs a token: {item!r}")
            token = str(read_name(item["token"], DomainError, f"reading token of {name!r}"))
            if token == NULL_OBSERVATION:
                raise DomainError(
                    f"reading token {NULL_OBSERVATION!r} is reserved for physical actions"
                )
            if token in tokens:
                raise DomainError(f"sensor of {name!r} repeats reading {token!r}")
            tokens.add(token)
            value = item.get("value")
            if value is None:
                # numeric tokens denote themselves; symbolic ones get an ordinal id
                try:
                    value = float(token)
                except ValueError:
                    value = float(len(readings))
            elif not _finite(value):
                raise DomainError(f"bad value for reading {token!r} of {name!r}")
            observation = item.get("observation", token)
            observation = str(read_name(observation, DomainError, f"observation of {token!r}"))
            if observation == NULL_OBSERVATION:
                raise DomainError(
                    f"observation {NULL_OBSERVATION!r} is reserved for physical actions"
                )
            readings.append(Reading(token, float(value), observation))
        if not readings:
            raise DomainError(f"sensor of {name!r} declares no readings")

        if "gaussian" in entry:
            if "table" in entry:
                raise DomainError(f"sensor of {name!r} mixes table and gaussian forms")
            gauss = _object(entry["gaussian"], "gaussian")
            mean_fluent = read_name(
                gauss.get("mean_fluent"), DomainError, f"mean fluent of {name!r}"
            )
            if mean_fluent not in fluents or fluents[mean_fluent].kind != "int":
                raise DomainError(f"gaussian sensor of {name!r} needs an integer mean fluent")
            variance = gauss.get("variance")
            if not _finite(variance) or variance <= 0:
                raise DomainError(f"gaussian sensor of {name!r} needs variance > 0")
            sensing[name] = SensingModel(
                name, tuple(readings), mean_fluent=mean_fluent, variance=float(variance)
            )
            continue

        rows = []
        for row in _list(entry.get("table", []), f"sensor table of {name!r}"):
            try:
                condition = parse_condition(
                    _object(row, "sensor row").get("when", "true"), fluents
                )
            except FormulaError as exc:
                raise DomainError(f"bad sensor row for {name!r}: {exc}") from exc
            weights = row.get("likelihoods")
            if not isinstance(weights, dict) or not weights:
                raise DomainError(f"sensor row for {name!r} needs likelihoods")
            for token, weight in weights.items():
                if token not in tokens:
                    raise DomainError(
                        f"sensor row for {name!r} uses undeclared reading {token!r}"
                    )
                if not _finite(weight) or weight < 0:
                    raise DomainError(f"bad sensor likelihood for {name!r}: {weight!r}")
            rows.append((condition, {t: float(w) for t, w in weights.items()}))
        if not rows:
            raise DomainError(f"sensor of {name!r} needs a table or gaussian form")
        # a table reading is looked up by its value, so values must differ
        by_value = {}
        for reading in readings:
            other = by_value.setdefault(reading.value, reading.token)
            if other != reading.token:
                raise DomainError(
                    f"readings {other!r} and {reading.token!r} of {name!r} "
                    f"share the value {reading.value!r}"
                )
        sensing[name] = SensingModel(name, tuple(readings), table=tuple(rows))
    return sensing


def _parse_initial(raw, fluents: dict) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise DomainError("initial must be a nonempty list of weighted worlds")
    worlds = []
    seen = set()
    total = 0.0
    for entry in raw:
        state = _object(entry, "initial world").get("state")
        world = _read_world(fluents, state, "initial world")
        if world in seen:
            raise DomainError(f"duplicate initial world {world!r}")
        seen.add(world)
        weight = entry.get("weight", 1.0)
        if not _finite(weight) or weight < 0:
            raise DomainError(f"bad initial weight {weight!r}")
        total += float(weight)
        worlds.append((world, float(weight)))
    if total <= 0.0:
        raise DomainError("initial worlds carry no weight")
    if not math.isfinite(total):
        raise DomainError("initial worlds carry an infinite total weight")
    return tuple(worlds)


def _value_count(values) -> int:
    """How many values a fluent has; `len` of a range past 2**63 - 1
    values overflows."""
    return values.stop - values.start if isinstance(values, range) else len(values)


def _small_assignments(fluents: dict, relevant: set):
    """Worlds varying the `relevant` fluents, others padded; None if too many."""
    names = sorted(relevant)
    size = math.prod(_value_count(fluents[name].values) for name in names)
    if size > _STATIC_CHECK_LIMIT:
        return None
    others = {n: decl.values[0] for n, decl in fluents.items() if n not in relevant}
    pools = [fluents[n].values for n in names]
    return [
        WorldState({**others, **dict(zip(names, combo))})
        for combo in itertools.product(*pools)
    ]


def _effect_changes(fluents: dict, action: GroundAction, world: WorldState) -> dict:
    """Fluent -> new value for each effect of `action` at `world`; an
    effect whose value is not a value of its fluent raises DomainError."""
    changes = {}
    for effect in action.effects:
        raw = eval_value(effect.expr, world)
        value = changes[effect.fluent] = fluents[effect.fluent].coerce(raw, effect.clamp)
        if value is None:
            raise DomainError(
                f"effect of {action.name!r} on {effect.fluent!r} leaves its domain "
                f"(value {raw!r} at {world!r})"
            )
    return changes


def _check_effect_ranges(fluents: dict, actions: dict) -> None:
    """Statically reject effects that can leave a fluent's domain.

    Enumerates assignments of the fluents each action reads or writes when
    that product is small; larger products defer to an apply-time error.
    """
    for action in actions.values():
        if not action.effects:
            continue
        relevant = set(mentioned_fluents(action.precondition))
        for effect in action.effects:
            relevant |= set(mentioned_fluents(effect.expr))
            relevant.add(effect.fluent)
        for world in _small_assignments(fluents, relevant) or ():
            if eval_condition(action.precondition, world):
                _effect_changes(fluents, action, world)


def _check_sensors(fluents: dict, sensing: dict) -> str:
    """Why the sensing is not noise-free, or "" when it is: the first
    continuous sensor or world with several live readings, in model
    order. A table sensor must give some reading positive likelihood
    everywhere. Both are checked on the worlds varying the fluents a
    sensor's rows read, when there are few enough of them."""
    defect = ""
    for model in sensing.values():
        if model.is_gaussian:  # densities are positive everywhere
            defect = defect or (
                f"sensor of {model.action!r} reports continuous readings; "
                "use the belief-level checker"
            )
            continue
        relevant = set()
        for condition, _ in model.table:
            relevant |= set(mentioned_fluents(condition))
        for world in _small_assignments(fluents, relevant) or ():
            live = sum(model.likelihood(world, r.value) > 0.0 for r in model.readings)
            if not live:
                raise DomainError(
                    f"sensor of {model.action!r} has no possible reading at {world!r}"
                )
            if live > 1 and not defect:
                defect = (
                    f"sensor of {model.action!r} is noisy at {world!r}; "
                    "use the belief-level checker"
                )
    return defect
