import json
import random
from itertools import product

import pytest

from loopverify.belief import bel, condition, initial_belief, progress
from loopverify.controller import Controller, to_json_dict
from loopverify.exec_epistemic import (
    ExecutionStuck,
    ScenarioError,
    _BeliefConfig,
    _replay_step,
    _ScenarioStep,
    load_scenario,
    parse_scenario,
    run_scenario,
    verify_epistemic,
)
from loopverify.exec_exact import VerifierInputError
from loopverify.formulas import parse_condition
from loopverify.theory import parse_domain, world_from_dict

from conftest import fixture_path, look_domain_data
from generators import noisy_sensing_domain, random_controller
from oracles import absorption_by_dicts, def9_by_runs


def alpha_scenario():
    return load_scenario(fixture_path("scenario_alpha.json"))


def replay(controller, domain, cfg, step, poss_mode="belief", real_mode="outcome"):
    return _replay_step(controller, domain, cfg, step, poss_mode, real_mode)


def test_parse_scenario_shapes():
    steps = parse_scenario(
        [
            {"advised_action": "chop", "actual_outcome": "chop_noop"},
            {"advised_action": "getd", "reading": "up"},
        ]
    )
    assert steps[0] == _ScenarioStep("chop", outcome="chop_noop")
    assert steps[1] == _ScenarioStep("getd", reading="up")
    # an action keeps its JSON type; a reading token is a string
    assert parse_scenario([{"advised_action": 7, "reading": 1}]) == [_ScenarioStep(7, reading="1")]
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
    scenario = alpha_scenario() + [_ScenarioStep("chop")]
    verdict, _cfg = run_scenario(fig1, domain, real0, scenario)
    assert verdict.status == "Holds"
    assert "unused" in verdict.note


def test_replay_step_scenario_contradictions(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    from loopverify.belief import initial_belief

    cfg = _BeliefConfig(0, initial_belief(domain), world_from_dict(domain, {"d": 2}))
    with pytest.raises(ScenarioError):  # advice mismatch
        replay(fig1, domain, cfg, _ScenarioStep("getd", reading="up"))
    with pytest.raises(ScenarioError):  # not a declared outcome
        replay(fig1, domain, cfg, _ScenarioStep("chop", outcome="dance"))
    with pytest.raises(ScenarioError):  # physical steps carry no reading
        replay(fig1, domain, cfg, _ScenarioStep("chop", reading="up"))
    stepped, _a, _o = replay(fig1, domain, cfg, _ScenarioStep("chop"))
    with pytest.raises(ScenarioError):  # undeclared reading token
        replay(fig1, domain, stepped, _ScenarioStep("getd", reading="sideways"))


def test_replay_step_zero_likelihood_reading(fig1, treechop_exact):
    from loopverify.belief import initial_belief

    cfg = _BeliefConfig(
        0, initial_belief(treechop_exact), world_from_dict(treechop_exact, {"d": 2})
    )
    stepped, _a, _o = replay(fig1, treechop_exact, cfg, _ScenarioStep("chop"))
    # real world now d=1, the exact sensor cannot report "down"
    with pytest.raises(ScenarioError):
        replay(fig1, treechop_exact, stepped, _ScenarioStep("getd", reading="down"))


def test_poss_mode_belief_vs_real(fig1, treechop_exact):
    from loopverify.belief import condition, initial_belief

    domain = treechop_exact
    # condition on "down" is impossible at the prior; build belief at d=1
    # then chop so the belief contains d=0 while the real world is d=1
    b = initial_belief(domain)
    cfg = _BeliefConfig(0, b, world_from_dict(domain, {"d": 2}))
    cfg, _a, _o = replay(fig1, domain, cfg, _ScenarioStep("chop"))
    assert cfg.control == 1
    cfg = _BeliefConfig(0, cfg.belief, cfg.real)  # rewind control to advice=chop
    # belief now includes d=0 where chop is inexecutable
    from loopverify.exec_epistemic import ExecutionStuck

    with pytest.raises(ExecutionStuck):
        replay(fig1, domain, cfg, _ScenarioStep("chop"), poss_mode="belief")
    stepped, _a, _o = replay(
        fig1, domain, cfg, _ScenarioStep("chop"), poss_mode="real"
    )
    assert stepped.real == world_from_dict(domain, {"d": 0})


def test_real_mode_intended_ignores_actual(fig1, treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    real0 = world_from_dict(domain, {"d": 1})
    from loopverify.belief import initial_belief

    cfg = _BeliefConfig(0, initial_belief(domain), real0)
    drifted, _a, _o = replay(
        fig1, domain, cfg, _ScenarioStep("chop", outcome="chop_noop")
    )
    assert drifted.real == real0  # noop left the tree alone
    forced, _a, _o = replay(
        fig1, domain, cfg, _ScenarioStep("chop", outcome="chop_noop"),
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
    domain = treechop_noisyact_bel
    with pytest.raises(VerifierInputError):
        verify_epistemic(fig1, domain, mode="pessimistic")
    with pytest.raises(VerifierInputError):
        verify_epistemic(fig1, domain, depth_bound=-1)
    real0 = world_from_dict(domain, {"d": 1})
    for modes in ({"poss_mode": "bogus"}, {"real_mode": "bogus"}, {"poss_mode": "outcome"}):
        with pytest.raises(VerifierInputError, match="unknown"):
            verify_epistemic(fig1, domain, **modes)
        with pytest.raises(VerifierInputError, match="unknown"):
            run_scenario(fig1, domain, real0, alpha_scenario(), **modes)


def chop_domain(initial, goal, outcomes, extra_actions=()):
    """d in 0..2; chop needs d >= 1 and lowers d by one; chop_noop does
    nothing; `outcomes` is chop's outcome model; no sensing."""
    return parse_domain(
        {
            "fluents": [{"name": "d", "range": [0, 2]}],
            "actions": [
                {"name": "chop", "precondition": "(>= d 1)",
                 "effects": [{"fluent": "d", "value": "(- d 1)"}]},
                {"name": "chop_noop"},
                *extra_actions,
            ],
            "outcome_models": [
                {"intended": "chop",
                 "outcomes": [{"actual": a, "likelihood": p} for a, p in outcomes]}
            ],
            "initial": [{"state": {"d": d}, "weight": 1.0} for d in initial],
            "goal": goal,
        }
    )


def test_poss_at_real_gates_only_the_real_world():
    # three chops from d = 2, where a chop bites with 0.9 or does nothing.
    # After two chops the belief holds d = 0, where chop is inexecutable, so
    # gated at the belief no run gets past the third chop. Gated at the real
    # world, the run chop, noop, chop ends at d = 0 in the final state, and
    # the goal "true" holds there; the run chop, chop is stuck at d = 0.
    domain = chop_domain([2], "true", [("chop", 0.9), ("chop_noop", 0.1)])
    three_chops = Controller(
        [0, 1, 2, 3], 0, 3, {0: "chop", 1: "chop", 2: "chop"},
        {(0, "0"): 1, (1, "0"): 2, (2, "0"): 3},
    )
    d2 = world_from_dict(domain, {"d": 2})
    verdict = verify_epistemic(three_chops, domain)
    assert (verdict.status, verdict.counterexample_world) == ("Fails", d2)
    verdict = verify_epistemic(three_chops, domain, poss_mode="real")
    assert verdict.status == "Holds"
    steps = [(cfg.world["d"], action) for cfg, action, _obs in verdict.witnesses[0][1]]
    assert steps in (
        [(2, "chop"), (1, "chop_noop"), (1, "chop")],
        [(2, "chop_noop"), (2, "chop"), (1, "chop")],
    )
    verdict = verify_epistemic(three_chops, domain, mode="adversarial", poss_mode="real")
    assert (verdict.status, verdict.counterexample_world) == ("Fails", d2)


def test_replay_step_dead_ends_and_contradictions(fig1, treechop_exact):
    domain = treechop_exact
    prior = initial_belief(domain)  # d = 1..10

    def at(d):
        return world_from_dict(domain, {"d": d})

    chop, up = _ScenarioStep("chop"), _ScenarioStep("getd", reading="up")
    # chop then "down" leaves a belief holding only d = 0
    at_zero = condition(progress(prior, "chop", domain), "getd", "down", domain)

    mute = Controller([0, 1, 2], 0, 2, {0: "chop"}, {(0, "0"): 1})
    with pytest.raises(ExecutionStuck, match="has no advice"):
        replay(mute, domain, _BeliefConfig(1, prior, at(1)), up)
    with pytest.raises(ExecutionStuck, match="inexecutable at the real world"):
        replay(fig1, domain, _BeliefConfig(0, prior, at(0)), chop, poss_mode="real")
    # gated at the real world d = 2, the chop kills every world of the belief
    with pytest.raises(ExecutionStuck, match="belief annihilated"):
        replay(fig1, domain, _BeliefConfig(0, at_zero, at(2)), chop, poss_mode="real")
    with pytest.raises(ScenarioError, match="needs a reading"):
        replay(fig1, domain, _BeliefConfig(1, prior, at(2)), _ScenarioStep("getd"))
    with pytest.raises(ScenarioError, match="sensing step 'getd' cannot carry an outcome"):
        replay(fig1, domain, _BeliefConfig(1, prior, at(2)), _ScenarioStep("getd", "chop", "up"))
    # "up" is live at the real world d = 2 but impossible at the belief d = 0
    with pytest.raises(ScenarioError, match="impossible under current belief"):
        replay(fig1, domain, _BeliefConfig(1, at_zero, at(2)), up)
    # fig1 less its "up" edge
    no_up = Controller([0, 1, 2], 0, 2, {0: "chop", 1: "getd"}, {(0, "0"): 1, (1, "down"): 2})
    with pytest.raises(ExecutionStuck, match="no transition from 1 on observation 'up'"):
        replay(no_up, domain, _BeliefConfig(1, prior, at(2)), up)


def test_replay_step_outcome_inexecutable_at_the_real_world():
    # slip is an outcome of chop that needs d >= 2, so it cannot occur at d = 1
    slip = {"name": "slip", "precondition": "(>= d 2)",
            "effects": [{"fluent": "d", "value": "(- d 2)"}]}
    domain = chop_domain(
        [1, 2], "true", [("chop", 0.8), ("chop_noop", 0.1), ("slip", 0.1)], [slip]
    )
    one_chop = Controller([0, 1], 0, 1, {0: "chop"}, {(0, "0"): 1})
    cfg = _BeliefConfig(0, initial_belief(domain), world_from_dict(domain, {"d": 1}))
    with pytest.raises(ScenarioError, match="outcome 'slip' is inexecutable at the real world"):
        replay(one_chop, domain, cfg, _ScenarioStep("chop", outcome="slip"))


def test_run_scenario_fails_at_a_dead_end_and_on_a_false_goal(fig1, treechop_exact):
    # chop in a loop from d = 1: the first chop leaves d = 0 possible, so the
    # second is inexecutable in some possible world
    loop = Controller([0, 1], 0, 1, {0: "chop"}, {(0, "0"): 0})
    d1 = world_from_dict(treechop_exact, {"d": 1})
    verdict, cfg = run_scenario(loop, treechop_exact, d1, [_ScenarioStep("chop")] * 3)
    assert verdict.status == "Fails"
    assert verdict.counterexample_world == d1
    assert "inexecutable in some possible world" in verdict.note
    assert [(c.world["d"], a) for c, a, _o in verdict.witness] == [(1, "chop")]
    assert cfg.control == 0 and cfg.real["d"] == 0
    # from d = 1 scenario alpha ends after "down", where only d = 0 is possible
    with open(fixture_path("treechop_noisyact_bel.json")) as handle:
        data = json.load(handle)
    data["goal"] = "(> (bel (= d 1)) 0.5)"
    domain = parse_domain(data)
    verdict, cfg = run_scenario(
        fig1, domain, world_from_dict(domain, {"d": 1}), alpha_scenario()
    )
    assert cfg.control == fig1.final
    assert verdict.status == "Fails"
    assert verdict.note == "goal false at the final belief"


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


def test_adversarial_fails_on_a_live_reading_without_a_transition():
    # half the runs read "hi", where the controller has no transition: they
    # stop short of the final state, as `trace` and `simulate` say too
    domain = parse_domain(look_domain_data())
    only_lo = Controller([0, 1], 0, 1, {0: "look"}, {(0, "lo"): 1})
    x0 = world_from_dict(domain, {"x": 0})
    for bound in (1, 64):  # the dead end lies at the bound in the first
        verdict = verify_epistemic(only_lo, domain, "adversarial", bound)
        assert (verdict.status, verdict.counterexample_world) == ("Fails", x0)
    assert verify_epistemic(only_lo, domain, "existential").status == "Holds"
    verdict, cfg = run_scenario(only_lo, domain, x0, [_ScenarioStep("look", reading="hi")])
    assert verdict.status == "Fails"
    assert verdict.note == "no transition from 0 on observation 'hi'"
    assert cfg.control == 0


def test_existential_fails_at_a_dead_end_cut_off_by_the_bound():
    # fig1 less its "up" edge, from d = 3: chop, then "up" has no
    # transition. That dead end lies at depth 2, and a dead end has no run
    # to extend, so both modes fail at bound 2 already
    with open(fixture_path("treechop_exact.json")) as handle:
        data = json.load(handle)
    data["initial"] = [{"state": {"d": 3}, "weight": 1.0}]
    domain = parse_domain(data)
    no_up = Controller([0, 1, 2], 0, 2, {0: "chop", 1: "getd"}, {(0, "0"): 1, (1, "down"): 2})
    for mode in ("existential", "adversarial"):
        assert verify_epistemic(no_up, domain, mode, 1).status == "Unknown"
        for bound in (2, 3):
            assert verify_epistemic(no_up, domain, mode, bound).status == "Fails", mode


def test_def9_through_readings_too_unlikely_for_a_float_product():
    # one reading far from both worlds: its density is 1.1e-174 at x = 0
    # and 9.4e-158 at x = 1, so three looks multiply every unscaled weight
    # down to 0.0; every run is live and ends with the goal true
    far = {
        "fluents": [{"name": "x", "range": [0, 1]}],
        "actions": [{"name": "look", "kind": "sensing"}],
        "sensing_models": [{
            "action": "look",
            "readings": [{"token": "r", "value": 20.0, "observation": "o"}],
            "gaussian": {"mean_fluent": "x", "variance": 0.5},
        }],
        "initial": [{"state": {"x": 0}, "weight": 0.5}, {"state": {"x": 1}, "weight": 0.5}],
        "goal": "true",
    }
    domain = parse_domain(far)
    for looks, bound in ((3, 64), (64, 80)):
        states = list(range(looks + 1))
        controller = Controller(
            states, 0, looks, {i: "look" for i in states[:-1]},
            {(i, "o"): i + 1 for i in states[:-1]},
        )
        for mode in ("existential", "adversarial"):
            verdict = verify_epistemic(controller, domain, mode, bound)
            assert verdict.status == "Holds", (looks, mode)


def test_one_prior_per_check(monkeypatch, fig1, treechop_noisyact_bel):
    # every initial world starts its search from the same prior belief
    import loopverify.exec_epistemic as exec_epistemic

    calls = []

    def counted(*args):
        calls.append(args)
        return initial_belief(*args)

    monkeypatch.setattr(exec_epistemic, "initial_belief", counted)
    assert len(treechop_noisyact_bel.initial_worlds) > 1
    for mode in ("existential", "adversarial"):
        verify_epistemic(fig1, treechop_noisyact_bel, mode)
    assert len(calls) == 2


def test_zero_weight_initial_world_is_never_the_real_one():
    # `look` reads "lo" at x = 0 and "hi" at x = 1. Taken as the real
    # world, x = 1 would read "hi", which the belief (x = 0 only) rules out
    data = look_domain_data()
    data["sensing_models"][0]["table"] = [
        {"when": "(= x 0)", "likelihoods": {"lo": 1.0}},
        {"when": "true", "likelihoods": {"hi": 1.0}},
    ]
    data["initial"].append({"state": {"x": 1}, "weight": 0.0})
    domain = parse_domain(data)
    only_lo = Controller([0, 1], 0, 1, {0: "look"}, {(0, "lo"): 1})
    for mode in ("existential", "adversarial"):
        verdict = verify_epistemic(only_lo, domain, mode)
        assert verdict.status == "Holds", mode
    x0 = world_from_dict(domain, {"x": 0})
    assert [world for world, _trace in verify_epistemic(only_lo, domain).witnesses] == [x0]


def test_adversarial_holds_agrees_with_absorption():
    # every run of an adversarial Holds reaches the final state with the
    # goal true, so the oracle's success mass within the bound is all of it
    rng = random.Random(0)
    holds = 0
    for _ in range(400):
        data = noisy_sensing_domain(rng)
        domain = parse_domain(data)
        controller = random_controller(rng, domain, max_states=4)
        if "table" not in data["sensing_models"][0]:
            continue
        for poss_mode in ("belief", "real"):
            verdict = verify_epistemic(controller, domain, "adversarial", 8, poss_mode)
            if verdict.status == "Holds":
                holds += 1
                success = absorption_by_dicts(controller, domain, 8)["success"]
                assert success >= 1.0 - 1e-9, (to_json_dict(controller), data)
    assert holds > 50


def test_def9_agrees_with_run_enumeration():
    # the oracle enumerates every run up to the bound with exact beliefs:
    # where both sides decide, they must agree. Among these pairs, two to
    # four each contradict an engine that drops the poss gate at the belief
    # or reads the goal at the real world instead of the belief
    rng = random.Random(1)
    decided = 0
    for _ in range(300):
        domain = parse_domain(noisy_sensing_domain(rng))
        controller = random_controller(rng, domain, max_states=4)
        for mode, poss_mode, bound in product(
            ("existential", "adversarial"), ("belief", "real"), (1, 2, 3)
        ):
            engine = verify_epistemic(controller, domain, mode, bound, poss_mode).status
            oracle = def9_by_runs(controller, domain, mode, bound, poss_mode)
            assert {engine, oracle} != {"Holds", "Fails"}, (
                mode, poss_mode, bound, engine, to_json_dict(controller)
            )
            decided += "Unknown" not in (engine, oracle)
    assert decided > 50
