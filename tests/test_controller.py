import json

import pytest

from loopverify.controller import (
    Controller,
    ControllerError,
    enumerate_controllers,
    export_dot,
    from_json_dict,
    load_controller,
    to_json_dict,
    validate,
)

from oracles import all_controllers, canonical_shape_of


def test_round_trip_preserves_identity(fig1):
    again = from_json_dict(to_json_dict(fig1))
    assert again == fig1
    assert again.key() == fig1.key()


def test_json_restores_integer_state_advice_keys(fig1):
    data = to_json_dict(fig1)
    text = json.dumps(data)  # advice keys become strings on the wire
    back = from_json_dict(json.loads(text))
    assert set(back.advice) == {0, 1}


def test_missing_fields_rejected():
    with pytest.raises(ControllerError):
        from_json_dict({"states": [0], "initial": 0, "final": 0})
    with pytest.raises(ControllerError):
        from_json_dict([])


def test_duplicate_transition_cell_rejected():
    data = {
        "states": [0, 1],
        "initial": 0,
        "final": 1,
        "advice": {"0": "chop"},
        "transitions": [[0, "0", 1], [0, "0", 0]],
    }
    with pytest.raises(ControllerError):
        from_json_dict(data)


def test_validate_clean_fixture(fig1, treechop_exact):
    assert validate(fig1, treechop_exact) == []


def test_validate_reports_defects(treechop_exact):
    c = Controller(
        states=[0, 1],
        initial=0,
        final=1,
        advice={0: "dance", 1: "chop"},
        transitions={(0, "sideways"): 2, (1, "0"): 0},
    )
    defects = validate(c, treechop_exact)
    text = "\n".join(defects)
    assert "dance" in text  # unknown action
    assert "sideways" in text  # unknown observation
    assert any("final" in d for d in defects)  # advice/transitions on final


def test_validate_strict_requires_totality(fig1, treechop_exact):
    assert validate(fig1, treechop_exact, strict=False) == []
    missing = validate(fig1, treechop_exact, strict=True)
    # fig1 leaves sensing observations undefined at state 0 and "0" at state 1
    assert missing
    assert all("missing transition" in d for d in missing)


def test_export_dot(fig1):
    dot = export_dot(fig1)
    assert dot.startswith("digraph")
    assert "chop" in dot and "getd" in dot
    assert "n0 -> n1" in dot
    assert "doublecircle" in dot  # final state marked


def test_load_controller_errors(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ControllerError):
        load_controller(path)


def test_canonical_shape_ignores_state_names(fig1, treechop_exact):
    observations = treechop_exact.observations()
    renamed = Controller(
        states=["a", "b", "c"],
        initial="a",
        final="c",
        advice={"a": "chop", "b": "getd"},
        transitions={("a", "0"): "b", ("b", "down"): "c", ("b", "up"): "a"},
    )
    reference = canonical_shape_of(fig1, observations)
    assert reference is not None  # every state is reachable
    assert canonical_shape_of(renamed, observations) == reference


def test_canonical_shape_separates_behaviours(fig1, treechop_exact):
    observations = treechop_exact.observations()
    swapped = Controller(
        states=[0, 1, 2],
        initial=0,
        final=2,
        advice={0: "chop", 1: "getd"},
        transitions={(0, "0"): 1, (1, "down"): 0, (1, "up"): 2},
    )
    shape = canonical_shape_of(swapped, observations)
    assert shape is not None and shape != canonical_shape_of(fig1, observations)


def test_enumeration_counts_match_brute_force(treechop_exact):
    actions = sorted(treechop_exact.actions)
    observations = list(treechop_exact.observations())
    for bound, expected in ((1, 1), (2, 39), (3, 7459)):
        stream = list(enumerate_controllers(treechop_exact, bound))
        assert len(stream) == expected
        shapes = [canonical_shape_of(c, observations) for c in stream]
        assert len(set(shapes)) == len(shapes)  # no duplicates
        assert set(shapes) == all_controllers(actions, observations, bound)


def test_enumeration_is_deterministic(treechop_exact):
    first = [c.key() for c in enumerate_controllers(treechop_exact, 2)]
    second = [c.key() for c in enumerate_controllers(treechop_exact, 2)]
    assert first == second


def test_enumerated_controllers_are_valid(treechop_exact):
    for c in enumerate_controllers(treechop_exact, 2):
        assert validate(c, treechop_exact) == []
        assert c.final not in c.advice
        assert not any(q == c.final for (q, _o) in c.transitions)


def test_single_state_controller_is_trivial(treechop_exact):
    (only,) = list(enumerate_controllers(treechop_exact, 1))
    assert only.initial == only.final
    assert only.advice == {}
    assert only.transitions == {}
