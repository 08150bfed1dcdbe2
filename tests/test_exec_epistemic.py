import random

import pytest

from loopverify.belief import bel
from loopverify.exec_epistemic import (
    EpistemicConfig,
    ScenarioError,
    ScenarioStep,
    load_scenario,
    parse_scenario,
    run_scenario,
    step_belief,
    verify_epistemic,
)
from loopverify.exec_exact import VerifierInputError
from loopverify.formulas import parse_condition
from loopverify.theory import parse_domain, world_from_dict

from conftest import fixture_path
from generators import noisy_sensing_domain, random_controller


def alpha_scenario():
    return load_scenario(fixture_path("scenario_alpha.json"))


def test_parse_scenario_shapes():
    steps = parse_scenario(
        [
            {"advised_action": "chop", "actual_outcome": "chop_noop"},
            {"advised_action": "getd", "reading": "up"},
        ]
    )
    assert steps[0] == ScenarioStep("chop", outcome="chop_noop")
    assert steps[1] == ScenarioStep("getd", reading="up")
    with pytest.raises(ScenarioError):
        parse_scenario({"advised_action": "chop"})
    with pytest.raises(ScenarioError):
        parse_scenario([{"reading": "up"}])


def test_scenario_alpha_replay(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 1})
    collected = []
    verdict, cfg = run_scenario(fig1, domain, real0, alpha_scenario(), collect=collected)
    assert verdict.status == "Holds"
    assert cfg.control == fig1.final
    assert cfg.real == world_from_dict(domain, {"d": 0})
    thin = parse_condition("(< d 10)", domain.fluents)
    assert bel(cfg.belief, thin) == 1.0


def test_two_blind_chops_closed_form(treechop_noisyact_bel):
    # With no conditioning, d=10 survives both steps only via two noops
    from loopverify.belief import initial_belief, progress

    domain = treechop_noisyact_bel
    b = progress(progress(initial_belief(domain), "chop", domain), "chop", domain)
    thin = parse_condition("(< d 10)", domain.fluents)
    assert bel(b, thin) == pytest.approx(1.0 - 0.1**3, abs=1e-9)


def test_scenario_alpha_intermediate_beliefs(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 1})
    collected = []
    run_scenario(fig1, domain, real0, alpha_scenario(), collect=collected)
    thin = parse_condition("(< d 10)", domain.fluents)
    values = [bel(belief, thin) for _c, _a, _o, belief, _r in collected]
    # chop: only d=10 noop (mass .1 * .1) still violates d<10
    assert values[0] == pytest.approx(1.0 - 0.1**2)
    # "up" removes the .09 at d=0 and renormalizes
    assert values[1] == pytest.approx(0.90 / 0.91)
    # second chop: the .01 at d=10 noops again into .001 of .91
    assert values[2] == pytest.approx(1.0 - 0.001 / 0.91)
    assert values[3] == 1.0  # "down" reveals d=0


def test_run_scenario_rejects_bad_real_world(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    with pytest.raises(VerifierInputError):
        run_scenario(
            fig1, domain, world_from_dict(domain, {"d": 0}), alpha_scenario()
        )


def test_run_scenario_unknown_when_exhausted(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 3})
    verdict, _cfg = run_scenario(fig1, domain, real0, alpha_scenario()[:2])
    assert verdict.status == "Unknown"
    assert "exhausted" in verdict.note


def test_run_scenario_rejects_contradicting_reading(fig1, treechop_noisyact_bel):
    # from d=3 the last reading of scenario alpha is impossible at the real world
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 3})
    with pytest.raises(ScenarioError):
        run_scenario(fig1, domain, real0, alpha_scenario())


def test_run_scenario_notes_unused_steps(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 1})
    scenario = alpha_scenario() + [ScenarioStep("chop")]
    verdict, _cfg = run_scenario(fig1, domain, real0, scenario)
    assert verdict.status == "Holds"
    assert "unused" in verdict.note


def test_step_belief_scenario_contradictions(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    from loopverify.belief import initial_belief

    cfg = EpistemicConfig(0, initial_belief(domain), world_from_dict(domain, {"d": 2}))
    with pytest.raises(ScenarioError):  # advice mismatch
        step_belief(fig1, domain, cfg, ScenarioStep("getd", reading="up"))
    with pytest.raises(ScenarioError):  # not a declared outcome
        step_belief(fig1, domain, cfg, ScenarioStep("chop", outcome="dance"))
    with pytest.raises(ScenarioError):  # physical steps carry no reading
        step_belief(fig1, domain, cfg, ScenarioStep("chop", reading="up"))
    stepped, _a, _o = step_belief(fig1, domain, cfg, ScenarioStep("chop"))
    with pytest.raises(ScenarioError):  # undeclared reading token
        step_belief(fig1, domain, stepped, ScenarioStep("getd", reading="sideways"))


def test_step_belief_zero_likelihood_reading(fig1, treechop_exact):
    from loopverify.belief import initial_belief

    cfg = EpistemicConfig(
        0, initial_belief(treechop_exact), world_from_dict(treechop_exact, {"d": 2})
    )
    stepped, _a, _o = step_belief(fig1, treechop_exact, cfg, ScenarioStep("chop"))
    # real world now d=1, the exact sensor cannot report "down"
    with pytest.raises(ScenarioError):
        step_belief(fig1, treechop_exact, stepped, ScenarioStep("getd", reading="down"))


def test_poss_mode_belief_vs_real(fig1, treechop_exact):
    from loopverify.belief import condition, initial_belief

    domain = treechop_exact
    # condition on "down" is impossible at the prior; build belief at d=1
    # then chop so the belief contains d=0 while the real world is d=1
    b = initial_belief(domain)
    cfg = EpistemicConfig(0, b, world_from_dict(domain, {"d": 2}))
    cfg, _a, _o = step_belief(fig1, domain, cfg, ScenarioStep("chop"))
    assert cfg.control == 1
    cfg = EpistemicConfig(0, cfg.belief, cfg.real)  # rewind control to advice=chop
    # belief now includes d=0 where chop is inexecutable
    from loopverify.exec_epistemic import ExecutionStuck

    with pytest.raises(ExecutionStuck):
        step_belief(fig1, domain, cfg, ScenarioStep("chop"), poss_mode="belief")
    stepped, _a, _o = step_belief(
        fig1, domain, cfg, ScenarioStep("chop"), poss_mode="real"
    )
    assert stepped.real == world_from_dict(domain, {"d": 0})


def test_real_mode_intended_ignores_actual(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 1})
    from loopverify.belief import initial_belief

    cfg = EpistemicConfig(0, initial_belief(domain), real0)
    drifted, _a, _o = step_belief(
        fig1, domain, cfg, ScenarioStep("chop", outcome="chop_noop")
    )
    assert drifted.real == real0  # noop left the tree alone
    forced, _a, _o = step_belief(
        fig1, domain, cfg, ScenarioStep("chop", outcome="chop_noop"),
        real_mode="intended",
    )
    assert forced.real == world_from_dict(domain, {"d": 0})


def test_existential_fixture_verdicts(fig1, fig4, treechop_noisyact_bel, fig4_pickup):
    assert verify_epistemic(fig1, treechop_noisyact_bel).status == "Holds"
    assert verify_epistemic(fig4, fig4_pickup).status == "Holds"


def test_adversarial_fixture_verdicts(fig1, fig4, treechop_noisyact_bel, fig4_pickup):
    verdict = verify_epistemic(fig4, fig4_pickup, mode="adversarial")
    assert verdict.status == "Fails"  # the noop self-loop can repeat forever
    verdict = verify_epistemic(fig1, treechop_noisyact_bel, mode="adversarial")
    # belief keys keep moving for hundreds of steps, so the bounded search
    # cannot close a cycle and refuses to guess
    assert verdict.status == "Unknown"
    assert "depth bound" in verdict.note


def test_epistemic_mode_validation(fig1, treechop_noisyact_bel):
    with pytest.raises(VerifierInputError):
        verify_epistemic(fig1, treechop_noisyact_bel, mode="pessimistic")
    with pytest.raises(VerifierInputError):
        verify_epistemic(fig1, treechop_noisyact_bel, depth_bound=-1)


def test_existential_on_gaussian_sensing(fig3, treechop_noisy):
    verdict = verify_epistemic(fig3, treechop_noisy, depth_bound=12)
    assert verdict.status in ("Holds", "Unknown")


def test_scenario_with_gaussian_readings(fig3, treechop_noisy):
    scenario = load_scenario(fixture_path("scenario_gauss.json"))
    real0 = world_from_dict(treechop_noisy, {"d": 12})
    verdict, cfg = run_scenario(fig3, treechop_noisy, real0, scenario)
    assert verdict.status == "Holds"
    assert cfg.control == "done"
    assert cfg.real == world_from_dict(treechop_noisy, {"d": 8})


def test_decided_verdicts_survive_a_deeper_bound():
    # Unknown is the only answer a bound may change: a Holds or Fails at
    # bound d must stay the same at bound 2d
    rng = random.Random(2)  # includes Unknown at bound d that Holds at 2d
    decided = {"existential": 0, "adversarial": 0}
    for _ in range(60):
        domain = parse_domain(noisy_sensing_domain(rng))
        controller = random_controller(rng, domain, max_states=4)
        for mode in decided:
            for bound in (1, 2, 3, 5):
                status = verify_epistemic(controller, domain, mode, bound).status
                if status != "Unknown":
                    deeper = verify_epistemic(controller, domain, mode, 2 * bound)
                    assert deeper.status == status, (mode, bound)
                    decided[mode] += 1
    assert min(decided.values()) > 20
