import itertools
import random

import pytest

from loopverify.formulas import (
    BELIEF_EPS,
    BeliefAtom,
    Comparison,
    FormulaError,
    KnowledgeAtom,
    MAX_DEPTH,
    eval_condition,
    eval_value,
    has_belief_atoms,
    mentioned_fluents,
    parse_condition,
    parse_objective,
    parse_value_expr,
    read,
    tokenize,
)
from loopverify.theory import FluentDecl, WorldState

FLUENTS = {
    "d": FluentDecl("d", "int", tuple(range(0, 11))),
    "x": FluentDecl("x", "int", tuple(range(0, 4))),
    "material": FluentDecl("material", "enum", ("wood", "metal")),
}


def world(**values) -> WorldState:
    base = {"d": 0, "x": 0, "material": "wood"}
    base.update(values)
    return WorldState(base)


def test_comparison_shapes():
    node = parse_condition("(<= d 5)", FLUENTS)
    assert isinstance(node, Comparison)
    assert node.fluent == "d" and node.op == "<=" and node.rhs == 5.0
    assert not node.rhs_is_fluent


def test_plain_comparisons_are_fluent_first():
    # only belief atoms may sit on either side; plain comparisons put the
    # fluent on the left
    with pytest.raises(FormulaError):
        parse_condition("(> 5 d)", FLUENTS)


def test_connectives_against_truth_tables():
    rng = random.Random(7)
    atoms = ["(<= d 5)", "(= x 1)", "(= material wood)"]
    for _ in range(200):
        a, b = rng.choice(atoms), rng.choice(atoms)
        w = world(
            d=rng.randint(0, 10),
            x=rng.randint(0, 3),
            material=rng.choice(["wood", "metal"]),
        )
        va = eval_condition(parse_condition(a, FLUENTS), w)
        vb = eval_condition(parse_condition(b, FLUENTS), w)
        assert eval_condition(parse_condition(f"(and {a} {b})", FLUENTS), w) == (va and vb)
        assert eval_condition(parse_condition(f"(or {a} {b})", FLUENTS), w) == (va or vb)
        assert eval_condition(parse_condition(f"(not {a})", FLUENTS), w) == (not va)
        assert eval_condition(parse_condition(f"(implies {a} {b})", FLUENTS), w) == (
            (not va) or vb
        )


def test_constants():
    assert eval_condition(parse_condition("true", FLUENTS), world())
    assert not eval_condition(parse_condition("false", FLUENTS), world())


def test_enum_only_equality():
    parse_condition("(!= material metal)", FLUENTS)
    with pytest.raises(FormulaError):
        parse_condition("(< material wood)", FLUENTS)


def test_fluent_vs_fluent_comparison():
    node = parse_condition("(<= x d)", FLUENTS)
    assert eval_condition(node, world(x=2, d=3))
    assert not eval_condition(node, world(x=2, d=1))
    with pytest.raises(FormulaError):
        parse_condition("(= d material)", FLUENTS)


def test_unknown_fluent_rejected():
    with pytest.raises(FormulaError):
        parse_condition("(= q 1)", FLUENTS)


def test_belief_atom_parse_and_flags():
    goal = parse_objective("(> (bel (< d 10)) 0.9)", FLUENTS)
    assert isinstance(goal, BeliefAtom)
    assert goal.op == ">" and goal.bound == 0.9
    assert has_belief_atoms(goal)
    assert not has_belief_atoms(parse_objective("(= d 0)", FLUENTS))


def test_belief_atom_swapped_sides():
    a = parse_objective("(> (bel (< d 10)) 0.9)", FLUENTS)
    b = parse_objective("(< 0.9 (bel (< d 10)))", FLUENTS)
    for v in (0.5, 0.9, 0.95):
        assert eval_condition(a, world(), lambda f: v) == eval_condition(
            b, world(), lambda f: v
        )


def test_belief_atoms_not_allowed_in_conditions():
    with pytest.raises(FormulaError):
        parse_condition("(> (bel (< d 10)) 0.9)", FLUENTS)


def test_know_is_threshold_belief():
    goal = parse_objective("(know (= d 0))", FLUENTS)
    assert isinstance(goal, KnowledgeAtom)
    assert eval_condition(goal, world(), lambda f: 1.0)
    assert eval_condition(goal, world(), lambda f: 1.0 - BELIEF_EPS / 2)
    assert not eval_condition(goal, world(), lambda f: 1.0 - 1e-6)
    with pytest.raises(FormulaError):  # know is a bare atom, with no threshold
        parse_objective("(> (know (= d 0)) 0.9)", FLUENTS)


def test_objective_mixes_belief_and_state():
    goal = parse_objective("(and (= x 1) (> (bel (< d 10)) 0.5))", FLUENTS)
    assert eval_condition(goal, world(x=1), lambda f: 0.8)
    assert not eval_condition(goal, world(x=0), lambda f: 0.8)
    assert not eval_condition(goal, world(x=1), lambda f: 0.4)


def test_value_expressions():
    w = world(d=4, x=2)
    assert eval_value(parse_value_expr("(- d 1)", FLUENTS), w) == 3.0
    assert eval_value(parse_value_expr("(+ d x)", FLUENTS), w) == 6.0
    assert eval_value(parse_value_expr("(* d 2)", FLUENTS), w) == 8.0
    assert eval_value(parse_value_expr("(min d x)", FLUENTS), w) == 2.0
    assert eval_value(parse_value_expr("(max d x)", FLUENTS), w) == 4.0
    assert eval_value(parse_value_expr("7", FLUENTS), w) == 7.0


def test_conditional_value():
    expr = parse_value_expr("(ite (= material wood) (- d 1) d)", FLUENTS)
    assert eval_value(expr, world(d=2, material="wood")) == 1.0
    assert eval_value(expr, world(d=2, material="metal")) == 2.0


def test_mentioned_fluents():
    node = parse_objective("(and (<= d 5) (> (bel (= x 1)) 0.5))", FLUENTS)
    assert mentioned_fluents(node) == frozenset({"d", "x"})


def test_exhaustive_comparison_ops():
    # every operator against every pair on a small grid
    for op in ("=", "!=", "<", "<=", ">", ">="):
        node = parse_condition(f"({op} x 2)", FLUENTS)
        for v in range(4):
            expected = {
                "=": v == 2,
                "!=": v != 2,
                "<": v < 2,
                "<=": v <= 2,
                ">": v > 2,
                ">=": v >= 2,
            }[op]
            assert eval_condition(node, world(x=v)) == expected


def test_malformed_shapes_rejected():
    for bad in ("(and)", "(not a b)", "(<= d)", "(bel (= d 0))", "(= d 0 1)"):
        with pytest.raises(FormulaError):
            parse_condition(bad, FLUENTS)


def test_belief_atoms_need_a_belief():
    # without bel_fn a goal's belief or knowledge atom is not a plain condition
    for text in ("(> (bel (< d 10)) 0.9)", "(not (know (= d 0)))"):
        goal = parse_objective(text, FLUENTS)
        with pytest.raises(FormulaError, match="not a plain condition"):
            eval_condition(goal, world())


def test_mentioned_fluents_of_value_expressions():
    expr = parse_value_expr("(ite (= material wood) (max d 1) (- x))", FLUENTS)
    assert mentioned_fluents(expr) == frozenset({"material", "d", "x"})
    assert mentioned_fluents(parse_value_expr("7", FLUENTS)) == frozenset()
    assert mentioned_fluents(parse_condition("(implies (<= x d) true)", FLUENTS)) == (
        frozenset({"x", "d"})
    )


def test_belief_atoms_found_at_any_depth():
    goal = parse_objective("(or (= x 1) (not (implies (= d 0) (know (= x 2)))))", FLUENTS)
    assert has_belief_atoms(goal)
    assert not has_belief_atoms(parse_objective("(or (= x 1) (not (= d 0)))", FLUENTS))


def nested_nots(depth):
    """A formula `depth` parentheses deep: nots around one comparison."""
    return "(not " * (depth - 1) + "(= d 0)" + ")" * (depth - 1)


def test_nesting_up_to_the_cap_is_read_and_evaluated():
    node = parse_condition(nested_nots(MAX_DEPTH), FLUENTS)
    # MAX_DEPTH - 1 nots around (= d 0): true at d = 0 iff that count is even
    assert eval_condition(node, world(d=0)) == (MAX_DEPTH % 2 == 1)
    deep_and = "(and " * (MAX_DEPTH - 1) + "(= d 0)" + ")" * (MAX_DEPTH - 1)
    assert eval_condition(parse_objective(deep_and, FLUENTS), world(d=0))


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_nesting_past_the_cap_is_refused(depth):
    with pytest.raises(FormulaError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_condition(nested_nots(depth), FLUENTS)
    # the JSON-list form of the same formula passes through the same check
    tree = ["=", "d", 0]
    for _ in range(depth - 1):
        tree = ["not", tree]
    with pytest.raises(FormulaError, match="nested deeper"):
        parse_condition(tree, FLUENTS)
    with pytest.raises(FormulaError, match="nested deeper"):
        parse_value_expr(["+", 1, tree], FLUENTS)


# the s-expression reader


def test_tokenize_offsets():
    tokens = tokenize("(and (= d 0) x)")
    assert [t for t, _ in tokens] == ["(", "and", "(", "=", "d", "0", ")", "x", ")"]
    assert tokens[0] == ("(", 0)
    assert tokens[1] == ("and", 1)
    assert tokens[4] == ("d", 8)


def test_parse_atoms():
    assert read("42") == 42.0
    assert read("-3") == -3.0
    assert read("2.5") == 2.5
    assert read("wood") == "wood"
    assert read("<=") == "<="


def test_parse_nesting():
    assert read("(and (= d 0) (> x 2))") == [
        "and",
        ["=", "d", 0.0],
        [">", "x", 2.0],
    ]
    assert read("()") == []


def test_parse_rejects_trailing_content():
    with pytest.raises(FormulaError) as info:
        read("(= d 0) extra")
    assert str(info.value) == (
        "unreadable expression '(= d 0) extra': "
        "trailing content after expression (at offset 8)"
    )


def test_parse_rejects_unclosed():
    with pytest.raises(FormulaError, match=r"unclosed parenthesis \(at offset 0\)"):
        read("(and (= d 0)")
    with pytest.raises(FormulaError, match=r"unclosed parenthesis \(at offset 5\)"):
        read("(and (= d 0")  # the innermost open parenthesis
    with pytest.raises(FormulaError, match=r"unexpected closing parenthesis \(at offset 0\)"):
        read(")")
    with pytest.raises(FormulaError, match=r"empty input \(at offset 0\)"):
        read("")


def test_error_carries_position():
    with pytest.raises(FormulaError) as info:
        parse_condition("(and (= d 0)", FLUENTS)
    assert str(info.value) == (
        "unreadable expression '(and (= d 0)': unclosed parenthesis (at offset 0)"
    )
