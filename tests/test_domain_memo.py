"""The domain memo must not change any result.

A domain keeps what a step computes without the controller (kernel
moves, belief progress and conditioning, the noise-free sensing check)
for every later check on it. Reusing one parsed domain for many
candidates, in either order, must give what a freshly parsed domain
gives each time.
"""

import json
import random
from itertools import product

import pytest

from loopverify.belief import (
    BeliefAnnihilated,
    BeliefState,
    ObservationImpossible,
    condition,
    initial_belief,
    progress,
)
from loopverify import synth
from loopverify.controller import Controller, load_controller
from loopverify.exec_exact import VerifierInputError
from loopverify.montecarlo import simulate
from loopverify.synth import parse_criterion, synthesize
from loopverify.theory import NULL_OBSERVATION, load_domain, parse_domain, world_from_dict

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
# (poss_mode, real_mode): --poss-at-real and --real-intended, off and on
MODES = tuple(product(("belief", "real"), ("outcome", "intended")))


def reported(verdict) -> tuple:
    """Everything a verdict reports."""
    return (
        verdict.status,
        verdict.witness,
        verdict.counterexample_world,
        verdict.note,
        verdict.witnesses,
    )


def outcome(checker, controller, domain):
    """Everything a check reports, or the input error it raises."""
    try:
        return reported(checker(controller, domain))
    except VerifierInputError as exc:
        return ("error", str(exc))


def fixture_document(name: str) -> dict:
    with open(fixture_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def test_shared_domain_gives_the_verdicts_of_fresh_ones():
    rng = random.Random(4242)
    checkers = [
        parse_criterion(token, 8, *modes)[1]
        for token in CRITERIA
        for modes in (MODES if token.startswith("def9") else MODES[:1])
    ]
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
                    assert outcome(checker, controller, shared) == fresh[(c, k)], (i, c, k)


def recorded_synthesis(monkeypatch, domain, criterion, max_states, depth_bound, modes):
    """`synthesize` on `domain` with the CLI's default limit, and each
    candidate it checked with what its verdict reports, in stream order."""
    checked = []
    parse = synth.parse_criterion

    def recording(*args):
        name, checker = parse(*args)

        def check(candidate, d):
            verdict = checker(candidate, d)
            checked.append((candidate, reported(verdict)))
            return verdict

        return name, check

    monkeypatch.setattr(synth, "parse_criterion", recording)
    result = synthesize(domain, criterion, max_states, 1, depth_bound, *modes)
    monkeypatch.undo()
    return result, checked


def synthesis_inputs():
    """(domain document, def9 criterion, depth bound, modes): the pickup
    and tree fixtures under both def9 modes and all four mode combinations
    at the default bound, and 20 generated domains, each under one
    criterion and one combination at bound 8."""
    for name in ("fig4_pickup.json", "treechop_noisyact_bel.json"):
        document = fixture_document(name)
        for criterion, modes in product(("def9:existential", "def9:adversarial"), MODES):
            yield document, criterion, 64, modes
    rng = random.Random(2024)
    for i in range(20):
        document = noisy_sensing_domain(rng) if i % 2 else random_domain(rng)
        yield document, ("def9:existential", "def9:adversarial")[i // 2 % 2], 8, MODES[i % 4]


def test_synthesis_on_a_shared_domain_gives_the_verdicts_of_fresh_ones(monkeypatch):
    # every check of a synthesis run shares one domain, so the steps kept
    # on its beliefs pass from each candidate to the next; each candidate
    # must get the outcome it gets alone on a freshly parsed domain. Long
    # streams are compared at every solution and at about 100 other
    # candidates, spread evenly.
    unread = 0  # physical steps compared at a state without a null transition
    for document, criterion, depth_bound, modes in synthesis_inputs():
        checker = parse_criterion(criterion, depth_bound, *modes)[1]
        for max_states in (2, 3):
            shared = parse_domain(document)
            result, checked = recorded_synthesis(
                monkeypatch, shared, criterion, max_states, depth_bound, modes
            )
            stride = max(1, len(checked) // 100)
            for k, (candidate, seen) in enumerate(checked):
                if k % stride and seen[0] != "Holds":
                    continue
                fresh = parse_domain(document)
                assert outcome(checker, candidate, fresh) == seen, (criterion, modes, k)
                unread += any(
                    fresh.actions[action].kind == "physical"
                    and (state, NULL_OBSERVATION) not in candidate.transitions
                    for state, action in candidate.advice.items()
                )
            holds = [(c, seen) for c, seen in checked if seen[0] == "Holds"]
            assert result.searched == len(checked)
            assert result.solutions == [c for c, _seen in holds]
            assert [reported(v) for v in result.verdicts] == [seen for _c, seen in holds]
    assert unread > 0


def test_steps_kept_on_beliefs_leak_nothing_across_transitions_or_modes():
    # on one domain, `pickup` first without and then with its null
    # transition, and the other way round, under every def9 mode and mode
    # combination in turn: each check gives its fresh verdict
    document = fixture_document("fig4_pickup.json")
    without = Controller([0, 1], 0, 1, {0: "pickup"}, {(0, "up"): 1})
    with_null = Controller([0, 1], 0, 1, {0: "pickup"}, {(0, "0"): 1})
    looping = Controller(
        [0, 1, 2], 0, 2, {0: "pickup", 1: "getd"}, {(0, "0"): 1, (1, "up"): 0, (1, "down"): 2}
    )
    seen = set()
    for order in ((without, with_null, looping), (looping, with_null, without)):
        shared = parse_domain(document)
        for token, modes in product(("def9:existential", "def9:adversarial"), MODES):
            checker = parse_criterion(token, 64, *modes)[1]
            for controller in order + order:
                fresh = outcome(checker, controller, parse_domain(document))
                assert outcome(checker, controller, shared) == fresh, (token, modes)
                seen.add((controller.key(), fresh[0]))
    # the loop's adversarial verdict turns on the real mode
    assert {(looping.key(), "Holds"), (looping.key(), "Fails")} <= seen


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
