"""Condition and value-expression ASTs over finite-domain fluents.

Conditions are boolean formulas whose atoms compare a fluent against a
constant or another fluent. Objective formulas may additionally contain
degree-of-belief atoms ``(bel <condition>)`` compared against a constant
bound, and knowledge atoms ``(know <condition>)``. Value expressions are
arithmetic terms used on the right-hand side of effect assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sexpr import SexprError, parse

# bel/know comparisons tolerate this much float error
BELIEF_EPS = 1e-12

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_CONNECTIVES = {"and", "or", "not", "implies"}


class FormulaError(ValueError):
    """Raised for structurally invalid formulas or value expressions."""


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class FalseFormula:
    pass


@dataclass(frozen=True)
class Comparison:
    fluent: str
    op: str
    rhs: object
    rhs_is_fluent: bool = False


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class BeliefAtom:
    inner: object
    op: str
    bound: float


@dataclass(frozen=True)
class KnowledgeAtom:
    inner: object


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class FluentRef:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str
    args: tuple


@dataclass(frozen=True)
class Conditional:
    test: object
    then: object
    orelse: object


def parse_condition(source, fluents: dict) -> object:
    """Parse a belief-free condition; `fluents` maps name -> FluentDecl."""
    tree = source if not isinstance(source, str) else _read(source)
    node = _build_condition(tree, fluents, allow_belief=False)
    return node


def parse_objective(source, fluents: dict) -> object:
    """Parse a goal formula; belief and knowledge atoms allowed."""
    tree = source if not isinstance(source, str) else _read(source)
    return _build_condition(tree, fluents, allow_belief=True)


def parse_value_expr(source, fluents: dict) -> object:
    tree = source if not isinstance(source, str) else _read(source)
    return _build_value(tree, fluents)


def _read(text: str):
    try:
        return parse(text)
    except SexprError as exc:
        raise FormulaError(f"unreadable expression {text!r}: {exc}") from exc


def _build_condition(tree, fluents: dict, allow_belief: bool):
    if tree is True or tree == "true":
        return TrueFormula()
    if tree is False or tree == "false":
        return FalseFormula()
    if not isinstance(tree, list) or not tree:
        raise FormulaError(f"expected a condition, got {tree!r}")
    head = tree[0]
    if not isinstance(head, str):
        raise FormulaError(f"unknown operator {head!r}")
    if head in _COMPARISONS:
        return _build_comparison(tree, fluents, allow_belief)
    if head == "not":
        if len(tree) != 2:
            raise FormulaError("not takes exactly one argument")
        return Not(_build_condition(tree[1], fluents, allow_belief))
    if head == "and" or head == "or":
        parts = tuple(_build_condition(t, fluents, allow_belief) for t in tree[1:])
        if not parts:
            raise FormulaError(f"{head} needs at least one argument")
        return And(parts) if head == "and" else Or(parts)
    if head == "implies":
        if len(tree) != 3:
            raise FormulaError("implies takes exactly two arguments")
        return Implies(
            _build_condition(tree[1], fluents, allow_belief),
            _build_condition(tree[2], fluents, allow_belief),
        )
    if head == "know":
        if not allow_belief:
            raise FormulaError("knowledge atoms are not allowed here")
        if len(tree) != 2:
            raise FormulaError("know takes exactly one argument")
        return KnowledgeAtom(_build_condition(tree[1], fluents, allow_belief=False))
    if head == "bel":
        raise FormulaError("bel must appear as (<cmp> (bel ...) <number>)")
    raise FormulaError(f"unknown operator {head!r}")


def _is_bel(tree) -> bool:
    return isinstance(tree, list) and len(tree) == 2 and tree[0] == "bel"


def _build_comparison(tree, fluents: dict, allow_belief: bool):
    if len(tree) != 3:
        raise FormulaError(f"comparison needs two operands: {tree!r}")
    op, lhs, rhs = tree
    if _is_bel(lhs) or _is_bel(rhs):
        if not allow_belief:
            raise FormulaError("belief atoms are not allowed here")
        if _is_bel(lhs) and _is_bel(rhs):
            raise FormulaError("cannot compare two belief atoms")
        if _is_bel(rhs):
            lhs, rhs = rhs, lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]
        if not isinstance(rhs, (int, float)) or isinstance(rhs, bool):
            raise FormulaError("belief atoms compare against a numeric constant")
        inner = _build_condition(lhs[1], fluents, allow_belief=False)
        return BeliefAtom(inner, op, float(rhs))
    if not isinstance(lhs, str):
        raise FormulaError(f"comparison left side must be a fluent: {lhs!r}")
    if lhs not in fluents:
        raise FormulaError(f"unknown fluent {lhs!r}")
    decl = fluents[lhs]
    if isinstance(rhs, str) and rhs in fluents:
        if fluents[rhs].kind != decl.kind:
            raise FormulaError(f"cannot compare {lhs} with {rhs}: domain kinds differ")
        return Comparison(lhs, op, rhs, rhs_is_fluent=True)
    if decl.kind == "int":
        if not isinstance(rhs, (int, float)) or isinstance(rhs, bool):
            raise FormulaError(f"{lhs} is numeric; cannot compare with {rhs!r}")
    else:
        if not isinstance(rhs, str):
            raise FormulaError(f"{lhs} is categorical; cannot compare with {rhs!r}")
        if rhs not in decl.values:
            raise FormulaError(f"{rhs!r} is not a value of {lhs}")
        if op not in ("=", "!="):
            raise FormulaError(f"categorical fluent {lhs} supports only = and !=")
    return Comparison(lhs, op, rhs, rhs_is_fluent=False)


def _build_value(tree, fluents: dict):
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return Const(tree)
    if isinstance(tree, str):
        if tree in fluents:
            return FluentRef(tree)
        return Const(tree)
    if not isinstance(tree, list) or not tree:
        raise FormulaError(f"expected a value expression, got {tree!r}")
    head = tree[0]
    if head == "ite":
        if len(tree) != 4:
            raise FormulaError("ite takes a condition and two branches")
        return Conditional(
            _build_condition(tree[1], fluents, allow_belief=False),
            _build_value(tree[2], fluents),
            _build_value(tree[3], fluents),
        )
    if head in ("+", "-", "*", "min", "max"):
        args = tuple(_build_value(t, fluents) for t in tree[1:])
        if head == "-" and len(args) not in (1, 2):
            raise FormulaError("- takes one or two arguments")
        if head != "-" and len(args) < 2:
            raise FormulaError(f"{head} needs at least two arguments")
        return Arith(head, args)
    raise FormulaError(f"unknown value operator {head!r}")


def eval_condition(node, world) -> bool:
    """Evaluate a belief-free condition at a total fluent assignment."""
    if isinstance(node, TrueFormula):
        return True
    if isinstance(node, FalseFormula):
        return False
    if isinstance(node, Comparison):
        lhs = world[node.fluent]
        rhs = world[node.rhs] if node.rhs_is_fluent else node.rhs
        return _compare(node.op, lhs, rhs)
    if isinstance(node, Not):
        return not eval_condition(node.inner, world)
    if isinstance(node, And):
        return all(eval_condition(p, world) for p in node.parts)
    if isinstance(node, Or):
        return any(eval_condition(p, world) for p in node.parts)
    if isinstance(node, Implies):
        return (not eval_condition(node.lhs, world)) or eval_condition(node.rhs, world)
    raise FormulaError(f"not a plain condition: {node!r}")


def eval_objective(node, world, bel_fn) -> bool:
    """Evaluate a goal formula; `bel_fn(condition) -> float` answers bel atoms.

    With bel_fn=None the formula must be belief-free.
    """
    if isinstance(node, BeliefAtom):
        if bel_fn is None:
            raise FormulaError("belief atom in a context without belief")
        return _compare_belief(node.op, bel_fn(node.inner), node.bound)
    if isinstance(node, KnowledgeAtom):
        if bel_fn is None:
            raise FormulaError("knowledge atom in a context without belief")
        return bel_fn(node.inner) >= 1.0 - BELIEF_EPS
    if isinstance(node, Not):
        return not eval_objective(node.inner, world, bel_fn)
    if isinstance(node, And):
        return all(eval_objective(p, world, bel_fn) for p in node.parts)
    if isinstance(node, Or):
        return any(eval_objective(p, world, bel_fn) for p in node.parts)
    if isinstance(node, Implies):
        return (not eval_objective(node.lhs, world, bel_fn)) or eval_objective(
            node.rhs, world, bel_fn
        )
    return eval_condition(node, world)


def eval_value(node, world):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, FluentRef):
        return world[node.name]
    if isinstance(node, Conditional):
        branch = node.then if eval_condition(node.test, world) else node.orelse
        return eval_value(branch, world)
    if isinstance(node, Arith):
        vals = [eval_value(a, world) for a in node.args]
        if node.op == "+":
            return sum(vals)
        if node.op == "-":
            if len(vals) == 1:
                return -vals[0]
            return vals[0] - vals[1]
        if node.op == "*":
            out = 1
            for v in vals:
                out *= v
            return out
        if node.op == "min":
            return min(vals)
        return max(vals)
    raise FormulaError(f"not a value expression: {node!r}")


def mentioned_fluents(node) -> frozenset:
    """All fluent names a condition or value expression reads."""
    if isinstance(node, Comparison):
        base = {node.fluent}
        if node.rhs_is_fluent:
            base.add(node.rhs)
        return frozenset(base)
    if isinstance(node, FluentRef):
        return frozenset({node.name})
    if isinstance(node, Not):
        return mentioned_fluents(node.inner)
    if isinstance(node, (And, Or)):
        out = frozenset()
        for p in node.parts:
            out |= mentioned_fluents(p)
        return out
    if isinstance(node, Implies):
        return mentioned_fluents(node.lhs) | mentioned_fluents(node.rhs)
    if isinstance(node, (BeliefAtom, KnowledgeAtom)):
        return mentioned_fluents(node.inner)
    if isinstance(node, Arith):
        out = frozenset()
        for a in node.args:
            out |= mentioned_fluents(a)
        return out
    if isinstance(node, Conditional):
        return (
            mentioned_fluents(node.test)
            | mentioned_fluents(node.then)
            | mentioned_fluents(node.orelse)
        )
    return frozenset()


def has_belief_atoms(node) -> bool:
    if isinstance(node, (BeliefAtom, KnowledgeAtom)):
        return True
    if isinstance(node, Not):
        return has_belief_atoms(node.inner)
    if isinstance(node, (And, Or)):
        return any(has_belief_atoms(p) for p in node.parts)
    if isinstance(node, Implies):
        return has_belief_atoms(node.lhs) or has_belief_atoms(node.rhs)
    return False


def _compare(op: str, lhs, rhs) -> bool:
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


def _compare_belief(op: str, value: float, bound: float) -> bool:
    # equality against a real-valued degree gets a tolerance band
    if op == "=":
        return abs(value - bound) <= BELIEF_EPS
    if op == "!=":
        return abs(value - bound) > BELIEF_EPS
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    return value >= bound
