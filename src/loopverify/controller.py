"""Finite memoryless controllers: validation, serialization, enumeration.

A controller is a finite set of control states with one initial and one
final state, an advice function naming the action to perform at each
non-final state, and a partial transition function over observation
tokens. Controllers carry no other memory.
"""

from __future__ import annotations

from .theory import read_json, read_name


class ControllerError(ValueError):
    """Raised for controller files that are structurally unreadable."""


class Controller:
    """Immutable by convention; all fields are plain data."""

    # the domain enumerate_controllers built this controller for: it is
    # valid there by construction, so checks on that domain skip validate
    _valid_for = None

    def __init__(self, states, initial, final, advice, transitions, name=""):
        self.states = list(states)
        self.initial = initial
        self.final = final
        self.advice = dict(advice)
        self.transitions = dict(transitions)
        self.name = name

    def key(self) -> tuple:
        order = {s: i for i, s in enumerate(self.states)}
        return (
            tuple(self.states),
            self.initial,
            self.final,
            tuple(sorted(self.advice.items(), key=lambda kv: order[kv[0]])),
            tuple(
                sorted(
                    ((q, o, t) for (q, o), t in self.transitions.items()),
                    key=lambda e: (order[e[0]], e[1], order[e[2]]),
                )
            ),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Controller) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"Controller(states={self.states!r}, initial={self.initial!r}, "
            f"final={self.final!r}, advice={self.advice!r})"
        )


def validate(controller: Controller, domain, strict: bool = False) -> list:
    """Structural defects of `controller` against `domain`, as strings.

    Empty list means clean. `strict` additionally requires the transition
    function to be total on (non-final state, observation) pairs; without
    it a missing entry is a legal dead end.
    """
    defects = []
    c = controller
    if not c.states:
        return ["controller has no states"]
    if len(set(c.states)) != len(c.states):
        defects.append("state identifiers are not pairwise distinct")
    states = set(c.states)
    if c.initial not in states:
        defects.append(f"initial state {c.initial!r} is not a state")
    if c.final not in states:
        defects.append(f"final state {c.final!r} is not a state")

    observations = set(domain.observations())
    for state in c.states:
        if state == c.final:
            continue
        if state not in c.advice:
            defects.append(f"state {state!r} has no advice")
    for state, action in c.advice.items():
        if state not in states:
            defects.append(f"advice on unknown state {state!r}")
        elif state == c.final:
            defects.append(f"advice on final state {state!r}")
        if action not in domain.actions:
            defects.append(f"unknown action {action!r} advised at {state!r}")
    for (state, obs), target in c.transitions.items():
        if state not in states:
            defects.append(f"transition from unknown state {state!r}")
        elif state == c.final:
            defects.append(f"transition from final state {state!r}")
        if obs not in observations:
            defects.append(f"unknown observation {obs!r} on transition from {state!r}")
        if target not in states:
            defects.append(f"transition from {state!r} to unknown state {target!r}")
    if strict:
        for state in c.states:
            if state == c.final or state not in states:
                continue
            for obs in domain.observations():
                if (state, obs) not in c.transitions:
                    defects.append(f"missing transition for ({state!r}, {obs!r})")
    return defects


def from_json_dict(data: dict) -> Controller:
    if not isinstance(data, dict):
        raise ControllerError("controller file must be a JSON object")
    for field in ("states", "initial", "final", "advice", "transitions"):
        if field not in data:
            raise ControllerError(f"controller file is missing {field!r}")
    states = data["states"]
    if not isinstance(states, list) or not states:
        raise ControllerError("states must be a nonempty list")
    # a reference names the declared state of the same type and value, so
    # 1.0 and true do not stand for 1
    declared = {(type(s), read_name(s, ControllerError, "a state")): s for s in states}

    def state(value, what: str):
        found = declared.get((type(value), read_name(value, ControllerError, what)))
        if found is None:
            raise ControllerError(f"{what} {value!r} is not a declared state")
        return found

    initial = state(data["initial"], "initial state")
    final = state(data["final"], "final state")
    # JSON object keys are strings: an advice key names the string state
    # it spells, else the number state written that way
    spelled = {str(s): s for s in states if not isinstance(s, str)}
    spelled.update((s, s) for s in states if isinstance(s, str))
    advice = data["advice"]
    if not isinstance(advice, dict):
        raise ControllerError("advice must be an object")
    resolved = {}
    for key, action in advice.items():
        if key not in spelled:
            raise ControllerError(f"advice key {key!r} is not a declared state")
        resolved[spelled[key]] = read_name(action, ControllerError, f"the advice for {key!r}")
    transitions = {}
    raw = data["transitions"]
    if not isinstance(raw, list):
        raise ControllerError("transitions must be a list of triples")
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ControllerError(f"bad transition entry: {entry!r}")
        source = state(entry[0], "transition source")
        obs = str(read_name(entry[1], ControllerError, "a transition observation"))
        if (source, obs) in transitions:
            raise ControllerError(f"duplicate transition for ({source!r}, {obs!r})")
        transitions[(source, obs)] = state(entry[2], "transition target")
    return Controller(
        states=states,
        initial=initial,
        final=final,
        advice=resolved,
        transitions=transitions,
        name=str(read_name(data.get("name", ""), ControllerError, "controller name")),
    )


def _state_order(controller: Controller) -> dict:
    """State -> declaration index, for ordering output; every transition
    must join declared states."""
    order = {s: i for i, s in enumerate(controller.states)}
    for (source, obs), target in controller.transitions.items():
        for state in (source, target):
            if state not in order:
                raise ControllerError(
                    f"transition ({source!r}, {obs!r}) -> {target!r} names "
                    f"undeclared state {state!r}"
                )
    return order


def to_json_dict(controller: Controller) -> dict:
    c = controller
    order = _state_order(c)
    data = {}
    if c.name:
        data["name"] = c.name
    data["states"] = list(c.states)
    data["initial"] = c.initial
    data["final"] = c.final
    data["advice"] = {
        str(s): c.advice[s] for s in c.states if s in c.advice
    }
    data["transitions"] = [
        [q, o, t]
        for (q, o), t in sorted(
            c.transitions.items(), key=lambda kv: (order[kv[0][0]], kv[0][1], order[kv[1]])
        )
    ]
    return data


def load_controller(path) -> Controller:
    with open(path, "r", encoding="utf-8") as handle:
        return from_json_dict(read_json(handle, ControllerError, "controller file"))


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string: a backslash or double quote in a
    name would otherwise end the string or start an escape."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(controller: Controller) -> str:
    """Deterministic GraphViz rendering; initial bold, final double-circled."""
    c = controller
    order = _state_order(c)
    lines = ["digraph controller {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, state in enumerate(c.states):
        label = str(state)
        if state in c.advice:
            label = f"{state}: {c.advice[state]}"
        attrs = [f"label={_dot_string(label)}"]
        if state == c.final:
            attrs.append("shape=doublecircle")
        if state == c.initial:
            attrs.append("style=bold")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    edges = sorted(
        ((order[q], o, order[t]) for (q, o), t in c.transitions.items()),
    )
    for qi, obs, ti in edges:
        lines.append(f"  n{qi} -> n{ti} [label={_dot_string(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumerate_controllers(domain, max_states: int):
    """Yield every structurally valid controller over the domain's action
    and observation alphabets, up to `max_states` states, one representative
    per relabeling class, in a fixed order.

    States are integers numbered by breadth-first discovery from state 0,
    which makes the emitted form canonical: two candidates differing only
    by a renaming collapse to the same emission. Candidates with states
    unreachable through transitions have no such numbering and are not
    emitted. Order: state count ascending; final-state index descending
    within a count; then depth-first over advice (declared action order)
    and transition cells (observation order; undefined first, then existing
    targets ascending, then one fresh state).
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    actions = list(domain.actions)
    observations = list(domain.observations())
    for count in range(1, max_states + 1):
        for final in range(count - 1, -1, -1):
            for candidate in _grow(count, final, actions, observations):
                candidate._valid_for = domain
                yield candidate


def _grow(count: int, final: int, actions: list, observations: list):
    advice = {}
    delta = {}

    def states_done(q: int, frontier: int):
        if q == count:
            if frontier == count - 1:
                yield Controller(
                    states=list(range(count)),
                    initial=0,
                    final=final,
                    advice=dict(advice),
                    transitions=dict(delta),
                )
            return
        # discovery indices are sequential, so an unreferenced q is dead
        if q > frontier:
            return
        if q == final:
            yield from states_done(q + 1, frontier)
            return
        for action in actions:
            advice[q] = action
            yield from cells(q, 0, frontier)
        del advice[q]

    def cells(q: int, i: int, frontier: int):
        if i == len(observations):
            yield from states_done(q + 1, frontier)
            return
        obs = observations[i]
        yield from cells(q, i + 1, frontier)  # leave the cell undefined
        for target in range(0, min(frontier + 1, count - 1) + 1):
            delta[(q, obs)] = target
            yield from cells(q, i + 1, max(frontier, target))
        del delta[(q, obs)]

    yield from states_done(0, 0)
