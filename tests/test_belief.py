import math
import random

import pytest

from loopverify.belief import (
    BeliefAnnihilated,
    BeliefState,
    ObservationImpossible,
    bel,
    condition,
    eval_goal,
    initial_belief,
    progress,
)
import loopverify.belief as belief_module
from loopverify import exec_epistemic, load_controller, load_domain, montecarlo
from loopverify.exec_epistemic import verify_epistemic
from loopverify.formulas import FormulaError, eval_condition, parse_condition, parse_objective
from loopverify.montecarlo import simulate
from loopverify.theory import parse_domain, world_from_dict

from conftest import fixture_path

from generators import noisy_sensing_domain, random_domain
from oracles import posterior_bel, posterior_paths


def test_initial_matches_prior(treechop_exact):
    b = initial_belief(treechop_exact)
    assert b.total() == pytest.approx(1.0)
    assert len(b.worlds()) == 10
    zero = parse_condition("(= d 0)", treechop_exact.fluents)
    assert bel(b, zero) == 0.0


def test_progress_conserves_mass_when_always_executable(treechop_noisyact):
    b = initial_belief(treechop_noisyact)
    for _ in range(4):
        b = progress(b, "chop", treechop_noisyact)
        assert b.total() == pytest.approx(1.0)


def test_progress_drops_inexecutable_worlds(treechop_exact):
    b = initial_belief(treechop_exact)
    b = condition(b, "getd", "up", treechop_exact)  # now d in 1..10 (unchanged)
    stepped = progress(b, "chop", treechop_exact)
    assert stepped.total() == pytest.approx(1.0)
    # after nine more chops only the d=10 start still allows another
    for _ in range(9):
        stepped = progress(stepped, "chop", treechop_exact)
    assert stepped.total() == pytest.approx(0.1)


def test_progress_annihilation(treechop_exact):
    b = BeliefState({(world_from_dict(treechop_exact, {"d": 0}), ""): 1.0})
    with pytest.raises(BeliefAnnihilated):
        progress(b, "chop", treechop_exact)


def test_condition_exact_is_idempotent(treechop_exact):
    b = initial_belief(treechop_exact)
    once = condition(b, "getd", "up", treechop_exact)
    twice = condition(once, "getd", "up", treechop_exact)
    assert once.key() == twice.key()


def test_condition_impossible_observation(treechop_exact):
    b = initial_belief(treechop_exact)  # d=0 has prior weight zero
    with pytest.raises(ObservationImpossible):
        condition(b, "getd", "down", treechop_exact)


def test_condition_accepts_raw_numbers(treechop_noisy):
    b = initial_belief(treechop_noisy)
    shifted = condition(b, "getd", 13.0, treechop_noisy)
    near = parse_condition("(<= d 10)", treechop_noisy.fluents)
    assert bel(shifted, near) < bel(b, near)


def test_bel_is_scale_invariant(treechop_metal):
    cond = parse_condition("(= material wood)", treechop_metal.fluents)
    b = initial_belief(treechop_metal)
    doubled = BeliefState({k: 2.0 * w for k, w in b.particles.items()})
    assert bel(b, cond) == pytest.approx(0.8)
    assert bel(doubled, cond) == pytest.approx(bel(b, cond))
    assert b.key() == doubled.key()


def test_know_threshold(treechop_metal):
    b = initial_belief(treechop_metal)
    assert eval_goal(b, parse_objective("(know (>= d 1))", treechop_metal.fluents))
    wood = parse_objective("(know (= material wood))", treechop_metal.fluents)
    assert not eval_goal(b, wood)


def _far_look_domain():
    # x in {0, 1} read by a Gaussian look of variance 0.5, so a raw
    # reading v has density exp(-(v - x)**2) / sqrt(pi) at x
    return parse_domain({
        "fluents": [{"name": "x", "range": [0, 1]}],
        "actions": [{"name": "look", "kind": "sensing"}],
        "sensing_models": [{
            "action": "look",
            "readings": [{"token": "r", "value": 0.0, "observation": "o"}],
            "gaussian": {"mean_fluent": "x", "variance": 0.5},
        }],
        "initial": [{"state": {"x": 0}, "weight": 0.5}, {"state": {"x": 1}, "weight": 0.5}],
        "goal": "true",
    })


def test_tiny_products_are_rescaled_by_a_power_of_two():
    # products summing below 2**-256 but still normal floats come back
    # multiplied by one power of two, so the normalized weights keep
    # their bits
    domain = _far_look_domain()
    w0, w1 = (world_from_dict(domain, {"x": x}) for x in (0, 1))
    tiny = BeliefState({(w0, ""): 2.0**-300, (w1, ""): 3 * 2.0**-300})
    stepped = condition(tiny, "look", 0.25, domain)
    model = domain.sensing_models["look"]
    l0, l1 = (model.likelihood(w, 0.25) for w in (w0, w1))
    assert 0.25 <= max(stepped.particles.values()) < 1.0
    ratio = stepped.particles[(w1, "")] / stepped.particles[(w0, "")]
    assert ratio == (3 * 2.0**-300 * l1) / (2.0**-300 * l0)
    plain = condition(BeliefState({(w0, ""): 1.0, (w1, ""): 3.0}), "look", 0.25, domain)
    assert stepped.key() == plain.key()
    # a total of 2**-250 is left alone
    small = BeliefState({(w0, ""): 2.0**-250, (w1, ""): 3 * 2.0**-250})
    assert condition(small, "look", 0.25, domain).particles == {
        (w0, ""): 2.0**-250 * l0, (w1, ""): 3 * 2.0**-250 * l1,
    }


def test_a_reading_that_underflows_every_plain_product():
    # after a reading at 13.5 the belief's total is about 1e-68, above
    # the rescale threshold; a reading at 26 then has density below
    # 1e-271 at both worlds, so every plain product is 0.0
    domain = _far_look_domain()
    b = condition(initial_belief(domain), "look", 13.5, domain)
    assert 1e-70 < b.total() < 1e-66
    b = condition(b, "look", 26.0, domain)
    w0, w1 = (world_from_dict(domain, {"x": x}) for x in (0, 1))
    # the posterior odds of x = 0 are exp(-(13.5**2 + 26**2) + (12.5**2 + 25**2))
    odds = b.particles[(w0, "")] / b.particles[(w1, "")]
    assert odds == pytest.approx(math.exp(-77.25), rel=1e-9)


def test_eval_goal_objective_and_epistemic(treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    b = initial_belief(domain)
    assert not eval_goal(b, domain.goal)
    for _ in range(3):
        b = progress(b, "chop", domain)
    # Bel(d < 10) = 1 - 0.1^3 > 0.9
    assert eval_goal(b, domain.goal)


def test_eval_goal_rejects_unparsed_input(treechop_exact):
    with pytest.raises(FormulaError):
        eval_goal(initial_belief(treechop_exact), "(= d 0)")


def eval_goal_per_world(b, goal):
    """The goal evaluated at every possible world, belief atoms by bel()."""
    return all(
        eval_condition(goal, world, lambda inner: bel(b, inner)) for world in b.worlds()
    )


GOALS = [
    "(> (bel (< d 10)) 0.9)",
    "(know (= d 0))",
    "(and (know (< d 10)) (not (>= (bel (= d 0)) 0.5)))",
    "(implies (< (bel (= d 0)) 0.2) (know (< d 11)))",
    "(and (= d 0) (> (bel (= d 0)) 0.5))",
    "(or (< d 3) (know (= d 0)))",
    "true",
    "false",
]


def test_eval_goal_matches_per_world_evaluation(treechop_noisyact_bel):
    domain = treechop_noisyact_bel
    goals = [parse_objective(text, domain.fluents) for text in GOALS]
    rng = random.Random(7)
    beliefs = [initial_belief(domain)]
    for _ in range(30):
        b = beliefs[-1]
        try:
            if rng.random() < 0.6:
                b = progress(b, "chop", domain)
            else:
                b = condition(b, "getd", rng.choice(["up", "down"]), domain)
        except ObservationImpossible:
            continue
        beliefs.append(b)
    for b in beliefs:
        for goal in goals:
            assert eval_goal(b, goal) == eval_goal_per_world(b, goal)


def test_belief_only_goal_is_evaluated_once(treechop_noisyact_bel, monkeypatch):
    domain = treechop_noisyact_bel
    top_level = []

    def counting(node, world, bel_fn=None):
        if bel_fn is not None:
            top_level.append(node)
        return eval_condition(node, world, bel_fn)

    monkeypatch.setattr(belief_module, "eval_condition", counting)
    b = initial_belief(domain)
    assert len(b.worlds()) > 1
    for text in GOALS[:4]:
        top_level.clear()
        eval_goal(b, parse_objective(text, domain.fluents))
        assert len(top_level) == 1, text
    top_level.clear()
    eval_goal(b, parse_objective("(or (>= d 0) (know (= d 0)))", domain.fluents))
    assert len(top_level) == len(b.worlds())


def test_belief_only_goal_holds_at_an_empty_belief(treechop_noisyact_bel, monkeypatch):
    def no_bel(*_args):
        raise AssertionError("bel called on an empty belief")

    monkeypatch.setattr(belief_module, "bel", no_bel)
    goal = parse_objective("(> (bel (< d 10)) 0.9)", treechop_noisyact_bel.fluents)
    assert eval_goal(BeliefState({}), goal)


@pytest.mark.parametrize(
    "domain_file,controller_file",
    [("treechop_noisyact_bel.json", "fig1.json"), ("fig4_pickup.json", "fig4.json")],
)
def test_verdicts_and_mean_final_bel_match_per_world_goals(domain_file, controller_file):
    domain = load_domain(fixture_path(domain_file))
    controller = load_controller(fixture_path(controller_file))

    def outputs():
        verdicts = [
            verify_epistemic(controller, domain, mode, depth_bound=12)
            for mode in ("existential", "adversarial")
        ]
        report = simulate(controller, domain, 300, step_cap=30, seed=5, track_belief=True)
        return (
            [(v.status, v.note) for v in verdicts],
            (report.success_rate, report.mean_final_bel),
        )

    fast = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exec_epistemic, "eval_goal", eval_goal_per_world)
        patch.setattr(montecarlo, "eval_goal", eval_goal_per_world)
        assert outputs() == fast


def test_tracing_tags_record_outcomes(treechop_noisyact):
    b = initial_belief(treechop_noisyact, tracing=True)
    b = progress(b, "chop", treechop_noisyact)
    tags = {tag for (_w, tag) in b.particles}
    assert tags == {".chop", ".chop_noop"}
    merged = b.merged()
    assert sum(merged.values()) == pytest.approx(1.0)


def test_posterior_matches_oracle_on_fixture(treechop_noisy):
    steps = [
        ("act", "chop"),
        ("sense", "getd", 11.0),
        ("act", "chop"),
        ("sense", "getd", 9.0),
    ]
    cond = parse_condition("(<= d 10)", treechop_noisy.fluents)
    b = initial_belief(treechop_noisy)
    for step in steps:
        if step[0] == "act":
            b = progress(b, step[1], treechop_noisy)
        else:
            b = condition(b, step[1], step[2], treechop_noisy)
    expected = posterior_bel(treechop_noisy, steps, cond)
    assert bel(b, cond) == pytest.approx(expected, abs=1e-12)


def scenario_steps(rng, domain, length):
    """Random act/sense steps that stay possible under the prior."""
    physical = [a for a, act in domain.actions.items() if act.kind == "physical"]
    sensing = [a for a, act in domain.actions.items() if act.kind == "sensing"]
    steps = []
    for _ in range(length):
        if sensing and rng.random() < 0.5:
            action = rng.choice(sensing)
            reading = rng.choice(domain.sensing_models[action].readings)
            steps.append(("sense", action, reading.value))
        else:
            steps.append(("act", rng.choice(physical)))
    return steps


def test_random_scenarios_match_direct_enumeration():
    rng = random.Random(424242)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        domain = parse_domain(noisy_sensing_domain(rng))
        steps = scenario_steps(rng, domain, rng.randint(1, 3))
        paths = posterior_paths(domain, steps)
        b = initial_belief(domain)
        failed = None
        try:
            for step in steps:
                if step[0] == "act":
                    b = progress(b, step[1], domain)
                else:
                    b = condition(b, step[1], step[2], domain)
        except (BeliefAnnihilated, ObservationImpossible) as err:
            failed = err
        if failed is not None:
            # engine refuses exactly when the oracle has no mass left
            assert sum(w for _h, w in paths) == pytest.approx(0.0, abs=1e-15)
            continue
        fluent = next(iter(domain.fluents))
        values = domain.fluents[fluent].values
        split = (min(values) + max(values)) // 2
        cond = parse_condition(f"(<= {fluent} {split})", domain.fluents)
        expected = posterior_bel(domain, steps, cond)
        assert bel(b, cond) == pytest.approx(expected, abs=1e-9)
        checked += 1
    assert checked == 50


def test_random_noise_free_scenarios_match_oracle():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        domain = parse_domain(random_domain(rng, allow_noise=False))
        steps = scenario_steps(rng, domain, rng.randint(1, 3))
        paths = posterior_paths(domain, steps)
        if sum(w for _h, w in paths) <= 0.0:
            continue
        b = initial_belief(domain)
        try:
            for step in steps:
                if step[0] == "act":
                    b = progress(b, step[1], domain)
                else:
                    b = condition(b, step[1], step[2], domain)
        except (BeliefAnnihilated, ObservationImpossible):
            continue
        fluent = next(iter(domain.fluents))
        cond = parse_condition(f"(<= {fluent} 1)", domain.fluents)
        expected = posterior_bel(domain, steps, cond)
        assert bel(b, cond) == pytest.approx(expected, abs=1e-9)
        checked += 1


def one_reading_domain(value: float, variance: float, weights: tuple) -> dict:
    """x in 0..1 with prior `weights`; `look` is a Gaussian sensor on x
    whose one reading "r" reports `value`."""
    return {
        "fluents": [{"name": "x", "range": [0, 1]}],
        "actions": [{"name": "look", "kind": "sensing"}],
        "sensing_models": [{
            "action": "look",
            "readings": [{"token": "r", "value": value, "observation": "o"}],
            "gaussian": {"mean_fluent": "x", "variance": variance},
        }],
        "initial": [{"state": {"x": x}, "weight": w} for x, w in enumerate(weights)],
        "goal": "true",
    }


def test_oracle_follows_the_engine_through_readings_too_unlikely_for_a_float_product():
    # the `far` domain: the reading has density 1.1e-174 at x = 0 and
    # 9.4e-158 at x = 1, so plain float products reach 0.0 by the third
    # look; halfway between the means with variance 0.001, the density is
    # about 6e-54 at both worlds and the 1:3 prior survives every look
    cases = ((20.0, 0.5, (0.5, 0.5), 1.0), (0.5, 0.001, (0.25, 0.75), 0.75))
    for value, variance, weights, expected in cases:
        domain = parse_domain(one_reading_domain(value, variance, weights))
        x_is_1 = parse_condition("(= x 1)", domain.fluents)
        b = initial_belief(domain)
        for looks in range(1, 65):
            b = condition(b, "look", "r", domain)
            if looks not in (3, 64):
                continue
            steps = [("sense", "look", value)] * looks
            paths = posterior_paths(domain, steps)
            assert paths and all(wt > 0.0 for _hist, wt in paths)
            oracle = posterior_bel(domain, steps, x_is_1)
            assert bel(b, x_is_1) == pytest.approx(oracle, abs=1e-12)
            assert oracle == pytest.approx(expected, abs=1e-12)
