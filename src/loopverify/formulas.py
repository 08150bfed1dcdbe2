"""Formulas: their s-expression reader, ASTs, evaluator and tree walk.

Formulas are written as s-expressions, as text or as JSON lists. The
reader here turns text into nested lists; atoms become int, float or
str. Conditions are boolean formulas whose atoms compare a fluent
against a constant or another fluent. Goal formulas may additionally
contain degree-of-belief atoms ``(bel <condition>)`` compared against a
constant bound, and knowledge atoms ``(know <condition>)``. Value
expressions are arithmetic terms used on the right-hand side of effect
assignments.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

# bel/know comparisons tolerate this much float error
BELIEF_EPS = 1e-12

# formulas nested deeper are refused: building and evaluating one take
# up to two Python frames per level, far below the default limit of 1,000
MAX_DEPTH = 200

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITH = {"+": sum, "*": math.prod, "min": min, "max": max}  # and "-"
_TOKEN = re.compile(r"[()]|[^\s()]+")


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
    return _build_condition(_tree(source), fluents, allow_belief=False)


def parse_objective(source, fluents: dict) -> object:
    """Parse a goal formula; belief and knowledge atoms allowed."""
    return _build_condition(_tree(source), fluents, allow_belief=True)


def parse_value_expr(source, fluents: dict) -> object:
    return _build_value(_tree(source), fluents)


def _tree(source):
    """The nested lists of a formula given as text or as JSON lists,
    refused when they nest deeper than MAX_DEPTH."""
    tree = read(source) if isinstance(source, str) else source
    level = [tree]
    for _ in range(MAX_DEPTH + 1):
        lists = [node for node in level if isinstance(node, list)]
        if not lists:
            return tree
        level = [child for node in lists for child in node]
    raise FormulaError(f"formula nested deeper than {MAX_DEPTH} levels")


def tokenize(text: str) -> list:
    """Split into (token, offset) pairs. Parens are their own tokens."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def read(text: str):
    """Read exactly one s-expression; atoms become int, float, or str."""

    def unreadable(message, offset):
        return FormulaError(
            f"unreadable expression {text!r}: {message} (at offset {offset})"
        )

    tokens = tokenize(text)
    if not tokens:
        raise unreadable("empty input", 0)
    open_lists = []  # (items, offset of the opening parenthesis)
    for i, (token, offset) in enumerate(tokens):
        if token == "(":
            open_lists.append(([], offset))
            continue
        if token == ")":
            if not open_lists:
                raise unreadable("unexpected closing parenthesis", offset)
            item = open_lists.pop()[0]
        else:
            item = _atom(token)
        if open_lists:
            open_lists[-1][0].append(item)
        elif i + 1 < len(tokens):
            raise unreadable("trailing content after expression", tokens[i + 1][1])
        else:
            return item
    raise unreadable("unclosed parenthesis", open_lists[-1][1])


def _atom(token: str):
    for number in (int, float):
        try:
            return number(token)
        except ValueError:
            pass
    return token


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
    if head in _COMPARE:
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


def eval_condition(node, world, bel_fn=None) -> bool:
    """Evaluate a condition or goal formula at a total fluent assignment.

    `bel_fn(condition) -> float` answers belief and knowledge atoms;
    without it the formula must be a plain, belief-free condition.
    """
    if isinstance(node, TrueFormula):
        return True
    if isinstance(node, FalseFormula):
        return False
    if isinstance(node, Comparison):
        lhs = world[node.fluent]
        rhs = world[node.rhs] if node.rhs_is_fluent else node.rhs
        return _COMPARE[node.op](lhs, rhs)
    if isinstance(node, Not):
        return not eval_condition(node.inner, world, bel_fn)
    if isinstance(node, And):
        return all(eval_condition(p, world, bel_fn) for p in node.parts)
    if isinstance(node, Or):
        return any(eval_condition(p, world, bel_fn) for p in node.parts)
    if isinstance(node, Implies):
        return (not eval_condition(node.lhs, world, bel_fn)) or eval_condition(
            node.rhs, world, bel_fn
        )
    if bel_fn is not None:
        if isinstance(node, BeliefAtom):
            value = bel_fn(node.inner)
            if node.op in ("=", "!="):
                # equality against a real-valued degree gets a tolerance band
                return (abs(value - node.bound) <= BELIEF_EPS) == (node.op == "=")
            return _COMPARE[node.op](value, node.bound)
        if isinstance(node, KnowledgeAtom):
            return bel_fn(node.inner) >= 1.0 - BELIEF_EPS
    raise FormulaError(f"not a plain condition: {node!r}")


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
        if node.op == "-":
            return vals[0] - vals[1] if len(vals) == 2 else -vals[0]
        return _ARITH[node.op](vals)
    raise FormulaError(f"not a value expression: {node!r}")


def _children(node) -> tuple:
    if isinstance(node, (Not, BeliefAtom, KnowledgeAtom)):
        return (node.inner,)
    if isinstance(node, (And, Or)):
        return node.parts
    if isinstance(node, Implies):
        return (node.lhs, node.rhs)
    if isinstance(node, Arith):
        return node.args
    if isinstance(node, Conditional):
        return (node.test, node.then, node.orelse)
    return ()


def walk(node, into_atoms: bool = True):
    """Every node of a formula or value expression, depth first: a node
    before its children, children in order. With `into_atoms` false the
    walk yields belief and knowledge atoms but not their contents."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if into_atoms or not isinstance(node, (BeliefAtom, KnowledgeAtom)):
            stack.extend(reversed(_children(node)))


def mentioned_fluents(node) -> frozenset:
    """All fluent names a condition or value expression reads."""
    names = set()
    for n in walk(node):
        if isinstance(n, Comparison):
            names.add(n.fluent)
            if n.rhs_is_fluent:
                names.add(n.rhs)
        elif isinstance(n, FluentRef):
            names.add(n.name)
    return frozenset(names)


def has_belief_atoms(node) -> bool:
    return any(isinstance(n, (BeliefAtom, KnowledgeAtom)) for n in walk(node))
