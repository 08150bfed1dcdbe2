import json
import random

import pytest

from conftest import fixture_path

from loopverify.controller import Controller
from loopverify.exec_exact import (
    Verdict,
    VerifierInputError,
    successors,
    verify_exact,
    verify_goal_mass,
    verify_termination,
    verify_weak,
    verify_weight_threshold,
)
from loopverify.formulas import eval_condition
from loopverify.theory import parse_domain, world_from_dict

from generators import random_controller, random_population
from oracles import branches, termination_holds, weak_from


def replay(controller, domain, world, trace):
    """Walk a witness trace from (initial, world) along oracle edges;
    returns the (control, world) it ends at."""
    control, current = controller.initial, world
    for cfg, action, obs in trace:
        assert (cfg.control, cfg.world) == (control, current)
        edges = {
            (a, o): (target, nxt)
            for a, o, target, nxt in branches(controller, domain, control, current)
        }
        assert (action, obs) in edges
        control, current = edges[(action, obs)]
    return control, current


def assert_witnesses_replay(controller, domain, verdict):
    assert verdict.status == "Holds"
    for world, trace in verdict.witnesses:
        control, current = replay(controller, domain, world, trace)
        assert control == controller.final
        assert eval_condition(domain.goal, current)


def assert_failure_replays(controller, domain, verdict):
    """Replay a def4 Fails witness from its counterexample world; the run
    must end where the note says: at the final state with the goal false,
    stuck at a config without a branch, or on a config it met before."""
    assert verdict.status == "Fails"
    control, current = replay(controller, domain, verdict.counterexample_world, verdict.witness)
    if verdict.note == "goal false at the final state":
        assert control == controller.final
        assert not eval_condition(domain.goal, current)
    elif verdict.note == "run is stuck before the final state":
        assert control != controller.final
        assert branches(controller, domain, control, current) == []
    else:
        assert verdict.note == "run revisits a configuration and diverges"
        earlier = [(cfg.control, cfg.world) for cfg, _action, _obs in verdict.witness]
        assert (control, current) in earlier
    return verdict.note


def test_exact_holds_on_fixture(fig1, treechop_exact):
    verdict = verify_exact(fig1, treechop_exact)
    assert verdict.status == "Holds"
    assert len(verdict.witnesses) == 10  # one run per positive-weight world
    # the d=3 run chops three times and senses in between
    by_world = {world["d"]: trace for world, trace in verdict.witnesses}
    actions = [action for _cfg, action, _obs in by_world[3]]
    assert actions == ["chop", "getd", "chop", "getd", "chop", "getd"]
    observations = [obs for _cfg, _a, obs in by_world[3]]
    assert observations == ["0", "up", "0", "up", "0", "down"]


def test_exact_requires_deterministic_domain(fig1, treechop_noisyact):
    with pytest.raises(VerifierInputError):
        verify_exact(fig1, treechop_noisyact)


def test_exact_requires_exact_sensing(fig3, treechop_noisy):
    with pytest.raises(VerifierInputError) as err:
        verify_exact(fig3, treechop_noisy)
    assert "belief-level" in str(err.value)


def test_checkers_reject_invalid_controllers(treechop_exact):
    broken = Controller([0], 0, 0, {0: "chop"}, {})
    for check in (verify_exact, verify_weak, verify_termination):
        with pytest.raises(VerifierInputError):
            check(broken, treechop_exact)


def test_exact_detects_divergence(treechop_exact):
    # never senses, so it chops forever once d hits 0... actually it gets
    # stuck at d=0; a self-loop on sensing shows the revisit instead
    spinner = Controller(
        states=[0, 1],
        initial=0,
        final=1,
        advice={0: "getd"},
        transitions={(0, "up"): 0, (0, "down"): 1},
    )
    verdict = verify_exact(spinner, treechop_exact)
    assert verdict.status == "Fails"
    assert "revisits" in verdict.note
    assert verdict.counterexample_world is not None
    assert verdict.counterexample_world["d"] >= 1
    assert_failure_replays(spinner, treechop_exact, verdict)


def test_exact_detects_stuck_runs(treechop_exact):
    # chops blindly; from d=1 the second chop is inexecutable
    blind = Controller(
        states=[0, 1, 2],
        initial=0,
        final=2,
        advice={0: "chop", 1: "chop"},
        transitions={(0, "0"): 1, (1, "0"): 2},
    )
    verdict = verify_exact(blind, treechop_exact)
    assert verdict.status == "Fails"
    assert "stuck" in verdict.note
    assert verdict.counterexample_world["d"] == 1
    assert_failure_replays(blind, treechop_exact, verdict)


def test_exact_detects_goal_failure(treechop_exact):
    # stops after one chop; goal d=0 false except from d=1
    one_shot = Controller(
        states=[0, 1],
        initial=0,
        final=1,
        advice={0: "chop"},
        transitions={(0, "0"): 1},
    )
    verdict = verify_exact(one_shot, treechop_exact)
    assert verdict.status == "Fails"
    assert "goal false" in verdict.note
    assert_failure_replays(one_shot, treechop_exact, verdict)


def test_weak_holds_under_outcome_branching(fig1, treechop_noisyact):
    verdict = verify_weak(fig1, treechop_noisyact)
    assert verdict.status == "Holds"
    assert len(verdict.witnesses) == 10
    for world, trace in verdict.witnesses:
        cfg, _a, _o = trace[0]
        assert cfg.world == world
        assert trace  # at least one step to reach the goal


def test_weak_fails_on_metal(fig1, treechop_metal):
    verdict = verify_weak(fig1, treechop_metal)
    assert verdict.status == "Fails"
    assert verdict.counterexample_world["material"] == "metal"


def test_weak_matches_oracle_per_world(fig1, treechop_metal, treechop_noisyact):
    for name, domain in (
        ("treechop_metal", treechop_metal),
        ("treechop_noisyact", treechop_noisyact),
    ):
        with open(fixture_path(name + ".json")) as handle:
            raw = json.load(handle)
        for world, weight in domain.initial_worlds:
            if weight <= 0.0:
                continue
            expected = weak_from(fig1, domain, world)
            raw["initial"] = [{"state": world.as_dict(), "weight": 1.0}]
            verdict = verify_weak(fig1, parse_domain(raw))
            assert (verdict.status == "Holds") == expected


def test_termination_holds_on_noisyact(fig1, treechop_noisyact):
    assert verify_termination(fig1, treechop_noisyact).status == "Holds"


def test_termination_fails_on_metal(fig1, treechop_metal):
    verdict = verify_termination(fig1, treechop_metal)
    assert verdict.status == "Fails"
    assert verdict.counterexample_world["material"] == "metal"
    assert "cannot reach the final state" in verdict.note


def test_termination_witness_is_replayable(fig4, fig4_pickup):
    verdict = verify_termination(fig4, fig4_pickup)
    assert verdict.status == "Fails"
    assert verdict.witness is not None
    # replay: every witness step is an edge of the independent oracle
    control, world = replay(fig4, fig4_pickup, verdict.counterexample_world, verdict.witness)
    assert f"control={control!r}, world={world!r}" in verdict.note
    # the dead end is the noop self-loop at control state 3
    last = verdict.witness[-1]
    assert last[1] == "noop"

    # state 3 has no transition: from d=1 a biting chop reads "down" into
    # it, while a missed chop still finishes, so the witness must leave
    # the counterexample world for another one
    with open(fixture_path("treechop_noisyact.json")) as handle:
        data = json.load(handle)
    data["initial"] = [{"state": {"d": 1}}]
    domain = parse_domain(data)
    controller = Controller(
        [0, 1, 2, 3], 0, 2, {0: "chop", 1: "getd", 3: "chop"},
        {(0, "0"): 1, (1, "up"): 2, (1, "down"): 3},
    )
    verdict = verify_termination(controller, domain)
    assert verdict.status == "Fails"
    assert verdict.counterexample_world == world_from_dict(domain, {"d": 1})
    control, world = replay(controller, domain, verdict.counterexample_world, verdict.witness)
    assert (control, world) == (1, world_from_dict(domain, {"d": 0}))


def test_weight_threshold_is_strict(fig1, treechop_metal):
    # metal world weighs exactly 0.2: kappa=0.2 exempts it
    assert verify_weight_threshold(fig1, treechop_metal, 0.3).status == "Holds"
    assert verify_weight_threshold(fig1, treechop_metal, 0.2).status == "Holds"
    assert verify_weight_threshold(fig1, treechop_metal, 0.1).status == "Fails"
    assert verify_weight_threshold(fig1, treechop_metal, 0.19).status == "Fails"


def test_weight_threshold_notes_suspicious_range(fig1, treechop_exact):
    verdict = verify_weight_threshold(fig1, treechop_exact, 5.0)
    assert verdict.status == "Holds"  # vacuous: no world weighs above 5
    assert "outside" in verdict.note


def test_goal_mass_thresholds(fig1, treechop_metal):
    # goal-reaching mass is exactly 0.8
    assert verify_goal_mass(fig1, treechop_metal, 0.7).status == "Holds"
    assert verify_goal_mass(fig1, treechop_metal, 0.8).status == "Holds"
    assert verify_goal_mass(fig1, treechop_metal, 0.81).status == "Fails"
    verdict = verify_goal_mass(fig1, treechop_metal, 0.81)
    assert "0.800000000" in verdict.note


def test_goal_mass_at_one_requires_every_world(fig1, treechop_metal, treechop_noisyact):
    assert verify_goal_mass(fig1, treechop_metal, 1.0).status == "Fails"
    assert verify_goal_mass(fig1, treechop_noisyact, 1.0).status == "Holds"


def test_goal_mass_normalizes_unnormalized_priors(fig1):
    data = {
        "name": "scaled",
        "fluents": [{"name": "d", "range": [0, 10]}],
        "actions": [
            {
                "name": "chop",
                "kind": "physical",
                "precondition": "(>= d 1)",
                "effects": [{"fluent": "d", "value": "(- d 1)"}],
            },
            {"name": "getd", "kind": "sensing"},
        ],
        "sensing_models": [
            {
                "action": "getd",
                "readings": [
                    {"token": "down", "observation": "down"},
                    {"token": "up", "observation": "up"},
                ],
                "table": [
                    {"when": "(= d 0)", "likelihoods": {"down": 1.0}},
                    {"when": "true", "likelihoods": {"up": 1.0}},
                ],
            }
        ],
        "initial": [
            {"state": {"d": 1}, "weight": 3.0},
            {"state": {"d": 2}, "weight": 1.0},
        ],
        "goal": "(= d 0)",
    }
    domain = parse_domain(data)
    assert verify_goal_mass(fig1, domain, 0.99).status == "Holds"


def test_step_helpers(fig1, treechop_exact):
    w = world_from_dict(treechop_exact, {"d": 1})
    [chop] = successors(fig1, treechop_exact, 0, w)
    assert (chop.target, chop.world) == (1, world_from_dict(treechop_exact, {"d": 0}))
    assert (chop.action, chop.observation, chop.likelihood) == ("chop", "0", 1.0)
    assert successors(fig1, treechop_exact, 2, w) == []  # final


def test_successors_contract(fig1, treechop_exact, treechop_noisyact):
    w0 = world_from_dict(treechop_exact, {"d": 0})
    assert successors(fig1, treechop_exact, 0, w0) == []  # chop inexecutable
    no_advice = Controller([0, 1], 0, 1, {}, {})
    assert successors(no_advice, treechop_exact, 0, w0) == []
    no_null = Controller([0, 1], 0, 1, {0: "chop"}, {(0, "up"): 1})
    assert successors(no_null, treechop_exact, 0, world_from_dict(treechop_exact, {"d": 1})) == []
    # a reading without a transition is still a branch
    half = Controller([0, 1], 0, 1, {0: "getd"}, {(0, "down"): 1})
    [up] = successors(half, treechop_exact, 0, world_from_dict(treechop_exact, {"d": 3}))
    assert (up.reading.token, up.target) == ("up", None)
    # outcome-model order, with likelihoods
    w2 = world_from_dict(treechop_noisyact, {"d": 2})
    outcomes = successors(fig1, treechop_noisyact, 0, w2)
    assert [(b.action, b.world["d"]) for b in outcomes] == [("chop", 1), ("chop_noop", 2)]
    assert sum(b.likelihood for b in outcomes) == pytest.approx(1.0)


def test_witnesses_replay_on_fixtures(
    fig1, fig4, treechop_exact, treechop_noisyact, treechop_metal, fig4_pickup
):
    assert_witnesses_replay(fig1, treechop_exact, verify_exact(fig1, treechop_exact))
    for controller, domain in (
        (fig1, treechop_exact),
        (fig1, treechop_noisyact),
        (fig4, fig4_pickup),
    ):
        assert_witnesses_replay(controller, domain, verify_weak(controller, domain))
    assert_witnesses_replay(
        fig1, treechop_metal, verify_weight_threshold(fig1, treechop_metal, 0.3)
    )
    verdict = verify_goal_mass(fig1, treechop_metal, 0.7)
    assert verdict.witnesses  # the passing worlds: every wood world
    assert all(world["material"] == "wood" for world, _trace in verdict.witnesses)
    assert_witnesses_replay(fig1, treechop_metal, verdict)


def test_witnesses_replay_on_random_pairs():
    rng = random.Random(515)
    replayed = 0
    for domain in random_population(515, 40):
        controller = random_controller(rng, domain, max_states=3)
        checks = [
            lambda: verify_weak(controller, domain),
            lambda: verify_weight_threshold(controller, domain, 0.1),
            lambda: verify_goal_mass(controller, domain, 0.5),
        ]
        if domain.is_deterministic():
            checks.append(lambda: verify_exact(controller, domain))
        for check in checks:
            try:
                verdict = check()
            except VerifierInputError:
                continue  # noisy sensing
            if verdict.status == "Holds":
                assert_witnesses_replay(controller, domain, verdict)
                replayed += len(verdict.witnesses)
    assert replayed > 0


def test_exact_failures_replay_on_random_deterministic_pairs():
    rng = random.Random(717)
    notes = []
    for domain in random_population(717, 150, allow_noise=False):
        controller = random_controller(rng, domain, max_states=4)
        try:
            verdict = verify_exact(controller, domain)
        except VerifierInputError:
            continue  # noisy sensing
        if verdict.status == "Holds":
            assert_witnesses_replay(controller, domain, verdict)
        else:
            notes.append(assert_failure_replays(controller, domain, verdict))
    assert len(set(notes)) == 3  # every way a run can fail


def test_weak_agrees_with_oracle_on_random_pairs():
    domains = random_population(515, 40)
    rng = random.Random(515)
    for domain in domains:
        controller = random_controller(rng, domain, max_states=3)
        verdict = verify_weak(controller, domain)
        expected = all(
            weak_from(controller, domain, world)
            for world, weight in domain.initial_worlds
            if weight > 0.0
        )
        assert (verdict.status == "Holds") == expected


def test_termination_agrees_with_oracle_on_random_pairs():
    rng = random.Random(616)
    seen = set()
    for domain in random_population(616, 60):
        controller = random_controller(rng, domain, max_states=3)
        verdict = verify_termination(controller, domain)
        assert (verdict.status == "Holds") == termination_holds(controller, domain)
        if verdict.status == "Fails":
            replay(controller, domain, verdict.counterexample_world, verdict.witness)
        seen.add(verdict.status)
    assert seen == {"Holds", "Fails"}
