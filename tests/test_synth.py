import pytest

from loopverify.controller import to_json_dict
from loopverify.exec_exact import verify_exact
from loopverify.synth import CRITERIA, CriterionError, parse_criterion, synthesize


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
