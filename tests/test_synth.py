import json

import pytest

from loopverify import synth
from loopverify.controller import Controller, enumerate_controllers, to_json_dict
from loopverify.exec_epistemic import verify_epistemic
from loopverify.exec_exact import (
    VerifierInputError,
    verify_exact,
    verify_goal_mass,
    verify_termination,
    verify_weak,
    verify_weight_threshold,
)
from loopverify.synth import CRITERIA, CriterionError, parse_criterion, synthesize
from loopverify.theory import parse_domain

from conftest import fixture_path


def test_parse_criterion_tokens(fig1, treechop_exact, treechop_metal):
    for token in CRITERIA:
        if token.startswith(("weight", "mass")):
            continue
        name, check = parse_criterion(token)
        # bare def9 normalizes to its default mode
        expected = "def9:existential" if token == "def9" else token
        assert name == expected
    name, check = parse_criterion("weight:0.3")
    assert name == "weight:0.3"
    assert check(fig1, treechop_metal).status == "Holds"
    _name, check = parse_criterion("mass:0.81")
    assert check(fig1, treechop_metal).status == "Fails"


def test_parse_criterion_rejects_garbage():
    with pytest.raises(CriterionError):
        parse_criterion("def5")
    with pytest.raises(CriterionError):
        parse_criterion("weight:high")
    with pytest.raises(CriterionError):
        parse_criterion("mass:")
    with pytest.raises(CriterionError, match="NaN"):
        parse_criterion("weight:nan")
    with pytest.raises(CriterionError):
        parse_criterion("def9:paranoid")


def test_combined_criterion(fig1, treechop_noisyact, treechop_metal):
    _name, check = parse_criterion("def6+termination")
    assert check(fig1, treechop_noisyact).status == "Holds"
    # metal fails both halves; the combination fails
    assert check(fig1, treechop_metal).status == "Fails"


def test_combined_criterion_checks_termination_only_where_def6_holds(
    fig1, treechop_metal, monkeypatch
):
    def no_termination(_controller, _domain):
        raise AssertionError("termination checked although def6 fails")

    monkeypatch.setattr(synth, "verify_termination", no_termination)
    _name, check = parse_criterion("def6+termination")
    verdict = check(fig1, treechop_metal)
    assert verdict.status == "Fails"
    assert verdict.note == "no outcome branch reaches the goal"


def test_combined_criterion_reports_termination_where_def6_holds(fig4, fig4_pickup):
    # expected.json: def6 holds and termination fails for this pair
    _name, check = parse_criterion("def6+termination")
    verdict = check(fig4, fig4_pickup)
    assert verdict.status == "Fails"
    assert verdict.note.endswith("cannot reach the final state")


def test_synthesis_recovers_reference_controller(treechop_exact, fig1):
    result = synthesize(treechop_exact, "def4", max_states=3)
    assert result.found
    assert len(result.solutions) == 1
    assert result.verdicts[0].status == "Holds"
    solution = result.solutions[0]
    reference = to_json_dict(fig1)
    reference.pop("name")
    assert to_json_dict(solution) == reference
    assert verify_exact(solution, treechop_exact).status == "Holds"


def test_synthesis_limit_collects_more(treechop_exact):
    result = synthesize(treechop_exact, "def4", max_states=3, limit=3)
    assert len(result.solutions) == 3
    keys = {c.key() for c in result.solutions}
    assert len(keys) == 3
    for verdict in result.verdicts:
        assert verdict.status == "Holds"


def test_synthesis_no_solution_below_three_states(treechop_exact):
    result = synthesize(treechop_exact, "def4", max_states=2)
    assert not result.found
    assert result.solutions == []
    assert result.searched == 39  # every candidate with at most 2 states


def test_synthesis_with_weak_criterion(treechop_metal):
    result = synthesize(treechop_metal, "mass:0.7", max_states=3)
    assert result.found
    assert result.verdicts[0].status == "Holds"


def test_synthesis_epistemic_criterion(treechop_noisyact_bel):
    result = synthesize(
        treechop_noisyact_bel, "def9:existential", max_states=2, depth_bound=16
    )
    # a two-state controller chops blindly into the goal belief
    assert result.found
    advice = result.solutions[0].advice
    assert set(advice.values()) <= {"chop", "getd"}


def test_synth_result_reports_criterion(treechop_exact):
    result = synthesize(treechop_exact, "termination", max_states=1)
    assert result.criterion == "termination"
    assert result.max_states == 1
    # the trivial single-state controller terminates immediately
    assert result.found


def test_checks_validate_every_controller_the_enumerator_did_not_build(treechop_exact):
    # candidates enumerated for a domain skip `validate` on that domain;
    # a hand-built controller, or a candidate built for another domain,
    # is still validated by every check
    checks = [
        verify_exact,
        verify_weak,
        verify_termination,
        lambda c, d: verify_weight_threshold(c, d, 0.05),
        lambda c, d: verify_goal_mass(c, d, 0.5),
        lambda c, d: verify_epistemic(c, d, "existential"),
        lambda c, d: verify_epistemic(c, d, "adversarial"),
    ]
    with open(fixture_path("treechop_exact.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    document["actions"].append({"name": "rest", "kind": "physical"})
    larger = parse_domain(document)
    foreign = next(
        c for c in enumerate_controllers(larger, 2) if "rest" in c.advice.values()
    )
    hand_built = [
        Controller([0, 1], 0, 1, {0: "fly"}, {(0, "0"): 1}),
        Controller([0, 1], 0, 1, {0: "chop"}, {(0, "0"): 7}),
        Controller([0, 1], 0, 1, {0: "getd"}, {(0, "sideways"): 1}),
    ]
    for controller in [*hand_built, foreign]:
        for check in checks:
            with pytest.raises(VerifierInputError, match="controller is invalid"):
                check(controller, treechop_exact)
    for candidate in enumerate_controllers(treechop_exact, 2):
        for check in checks:
            check(candidate, treechop_exact)  # valid: nothing raised
