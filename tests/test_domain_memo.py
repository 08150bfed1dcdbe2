"""The domain memo must not change any result.

A domain keeps what a step computes without the controller (kernel
moves, belief progress and conditioning, the noise-free sensing check)
for every later check on it. Reusing one parsed domain for many
candidates, in either order, must give what a freshly parsed domain
gives each time.
"""

import random

import pytest

from loopverify.belief import (
    BeliefAnnihilated,
    BeliefState,
    ObservationImpossible,
    condition,
    initial_belief,
    progress,
)
from loopverify.controller import load_controller
from loopverify.exec_exact import VerifierInputError
from loopverify.montecarlo import simulate
from loopverify.synth import parse_criterion
from loopverify.theory import load_domain, parse_domain, world_from_dict

from conftest import fixture_path
from generators import noisy_sensing_domain, random_controller, random_domain

CRITERIA = (
    "def4",
    "def6",
    "termination",
    "weight:0.3",
    "mass:0.5",
    "def9:existential",
    "def9:adversarial",
)


def outcome(checker, controller, domain):
    """Everything a check reports, or the input error it raises."""
    try:
        verdict = checker(controller, domain)
    except VerifierInputError as exc:
        return ("error", str(exc))
    return (
        verdict.status,
        verdict.witness,
        verdict.counterexample_world,
        verdict.note,
        verdict.witnesses,
    )


def test_shared_domain_gives_the_verdicts_of_fresh_ones():
    rng = random.Random(4242)
    checkers = [parse_criterion(token, depth_bound=8)[1] for token in CRITERIA]
    for i in range(60):
        document = noisy_sensing_domain(rng) if i % 2 else random_domain(rng)
        parsed = parse_domain(document)
        controllers = [random_controller(rng, parsed, max_states=3) for _ in range(6)]
        fresh = {
            (c, k): outcome(checker, controller, parse_domain(document))
            for c, controller in enumerate(controllers)
            for k, checker in enumerate(checkers)
        }
        for order in (list(enumerate(controllers)), list(enumerate(controllers))[::-1]):
            shared = parse_domain(document)
            for c, controller in order:
                for k, checker in enumerate(checkers):
                    assert outcome(checker, controller, shared) == fresh[(c, k)], (
                        i,
                        c,
                        CRITERIA[k],
                    )


def belief_walk(domain, steps, tracing):
    """The particles after each step from the prior, ending with the name
    of the error that stops the walk, if any."""
    belief = initial_belief(domain, tracing)
    seen = []
    for action, token in steps:
        try:
            if token is None:
                belief = progress(belief, action, domain)
            else:
                belief = condition(belief, action, token, domain)
        except ValueError as exc:
            seen.append(type(exc).__name__)
            break
        seen.append(list(belief.particles.items()))
    return seen


def test_shared_domain_gives_the_beliefs_of_fresh_ones():
    rng = random.Random(77)
    for _ in range(30):
        document = noisy_sensing_domain(rng)
        shared = parse_domain(document)
        actions = sorted(shared.actions)
        for walk in range(8):
            steps = []
            for _ in range(rng.randint(1, 6)):
                action = rng.choice(actions)
                model = shared.sensing_models.get(action)
                token = None if model is None else rng.choice(model.readings).token
                steps.append((action, token))
            tracing = walk % 2 == 1
            assert belief_walk(shared, steps, tracing) == belief_walk(
                parse_domain(document), steps, tracing
            ), steps


def test_memoized_belief_operations_replay_their_results():
    domain = load_domain(fixture_path("treechop_exact.json"))
    prior = initial_belief(domain)
    up = condition(prior, "getd", "up", domain)
    assert condition(initial_belief(domain), "getd", "up", domain) is up
    stump = BeliefState({(world_from_dict(domain, {"d": 0}), ""): 1.0})
    for _ in range(2):  # computed, then answered from the memo
        with pytest.raises(ObservationImpossible, match="reading 'down'"):
            condition(prior, "getd", "down", domain)
        with pytest.raises(BeliefAnnihilated, match="'chop' is inexecutable"):
            progress(stump, "chop", domain)


def test_sampled_beliefs_stay_out_of_the_memo():
    # a Gaussian sensor conditions every tracked belief on a raw sampled
    # value; once a first batch has stepped every reachable world, more
    # runs must add nothing to the memo
    domain = load_domain(fixture_path("treechop_noisy.json"))
    controller = load_controller(fixture_path("fig3.json"))
    simulate(controller, domain, 500, seed=1, track_belief=True)
    sizes = []
    for runs in (50, 500):
        simulate(controller, domain, runs, seed=2, track_belief=True)
        sizes.append(len(domain._memo))
    assert sizes[0] == sizes[1]
