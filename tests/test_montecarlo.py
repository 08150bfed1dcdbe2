import json
import math

import pytest

import loopverify.montecarlo as mc
from loopverify.controller import Controller
from loopverify.exec_exact import VerifierInputError
from loopverify.montecarlo import absorption_probability, default_step_cap, simulate
from loopverify.theory import parse_domain

from conftest import fixture_path
from generators import noisy_sensing_domain
from oracles import absorption_by_dicts

import random

# chops in a self-loop from d=1: the run reaches a dead end (d=0, where
# chop is inexecutable) on its first step and is stuck on its second
CHOP_LOOP = Controller([0, 1], 0, 1, {0: "chop"}, {(0, "0"): 0})


def chop_loop_domain():
    with open(fixture_path("treechop_exact.json")) as handle:
        data = json.load(handle)
    data["initial"] = [{"state": {"d": 1}, "weight": 1.0}]
    return parse_domain(data)


def test_same_seed_same_report(fig1, treechop_noisyact):
    a = simulate(fig1, treechop_noisyact, runs=5000, step_cap=25, seed=11)
    b = simulate(fig1, treechop_noisyact, runs=5000, step_cap=25, seed=11)
    assert a == b
    c = simulate(fig1, treechop_noisyact, runs=5000, step_cap=25, seed=12)
    assert c.success_rate != a.success_rate


def test_report_bookkeeping(fig1, treechop_noisyact):
    report = simulate(fig1, treechop_noisyact, runs=2000, step_cap=25, seed=3)
    assert report.runs == 2000
    assert 0.9 < report.success_rate <= 1.0
    assert report.termination_rate >= report.success_rate
    assert report.termination_rate + report.truncated_rate == pytest.approx(1.0)
    p = report.success_rate
    assert report.std_error == pytest.approx(math.sqrt(p * (1 - p) / 2000))


def test_matches_exact_absorption(fig1, treechop_noisyact):
    exact = absorption_probability(fig1, treechop_noisyact, step_cap=25)
    report = simulate(fig1, treechop_noisyact, runs=100000, step_cap=25, seed=0)
    margin = 3 * max(report.std_error, 1e-4)
    assert abs(report.success_rate - exact["success"]) <= margin
    assert report.truncated_rate == pytest.approx(exact["truncated"], abs=0.01)


def test_absorption_matches_oracle(fig1, treechop_noisyact, treechop_metal):
    for domain in (treechop_noisyact, treechop_metal):
        ours = absorption_probability(fig1, domain, step_cap=30)
        ref = absorption_by_dicts(fig1, domain, step_cap=30)
        for key in ("success", "terminated", "stuck"):
            assert ours[key] == pytest.approx(ref[key], abs=1e-12)
    domain = chop_loop_domain()
    for cap in (1, 2, 3):
        ours = absorption_probability(CHOP_LOOP, domain, step_cap=cap)
        ref = absorption_by_dicts(CHOP_LOOP, domain, step_cap=cap)
        for key in ("success", "terminated", "stuck"):
            assert ours[key] == pytest.approx(ref[key], abs=1e-12)


def test_absorption_splits_looping_mass(fig1, treechop_metal):
    # the metal world cycles chop/getd forever: truncated, never stuck
    dist = absorption_probability(fig1, treechop_metal, step_cap=50)
    assert dist["stuck"] == 0.0
    assert dist["truncated"] == pytest.approx(0.2, abs=1e-12)
    assert dist["success"] == pytest.approx(0.8, abs=1e-12)


def test_absorption_accounts_stuck_mass(treechop_exact):
    from loopverify.controller import Controller

    blind = Controller(
        states=[0, 1, 2],
        initial=0,
        final=2,
        advice={0: "chop", 1: "chop"},
        transitions={(0, "0"): 1, (1, "0"): 2},
    )
    dist = absorption_probability(blind, treechop_exact, step_cap=10)
    assert dist["stuck"] == pytest.approx(0.1, abs=1e-12)  # the d=1 world
    assert dist["success"] == pytest.approx(0.1, abs=1e-12)  # only d=2
    assert dist["terminated"] == pytest.approx(0.9, abs=1e-12)


def test_absorption_rejects_gaussian_sensing(fig3, treechop_noisy):
    with pytest.raises(VerifierInputError):
        absorption_probability(fig3, treechop_noisy, step_cap=10)


def test_scalar_and_vectorized_paths_agree(fig1, treechop_noisyact, monkeypatch):
    # the chop loop reaches a dead end on the last allowed step: truncated
    cases = [
        (fig1, treechop_noisyact, 20000, 25),
        (CHOP_LOOP, chop_loop_domain(), 100, 1),
    ]
    fast = [simulate(c, d, runs=n, step_cap=cap, seed=7) for c, d, n, cap in cases]
    monkeypatch.setattr(mc, "build_chain", lambda *_args: None)
    slow = [simulate(c, d, runs=n, step_cap=cap, seed=7) for c, d, n, cap in cases]
    for a, b in zip(fast, slow):
        assert b.success_rate == a.success_rate
        assert b.termination_rate == a.termination_rate
        assert b.truncated_rate == a.truncated_rate
    assert slow[1].truncated_rate == 1.0


def test_belief_goal_forces_tracking(fig1, treechop_noisyact_bel):
    report = simulate(fig1, treechop_noisyact_bel, runs=400, step_cap=25, seed=5)
    assert report.mean_final_bel is not None
    assert 0.0 <= report.mean_final_bel <= 1.0
    assert 0.9 < report.success_rate <= 1.0


def test_objective_goal_skips_tracking_unless_asked(fig1, treechop_noisyact):
    bare = simulate(fig1, treechop_noisyact, runs=300, step_cap=25, seed=5)
    assert bare.mean_final_bel is None
    tracked = simulate(
        fig1, treechop_noisyact, runs=300, step_cap=25, seed=5, track_belief=True
    )
    assert tracked.mean_final_bel is not None
    # the RNG stream is shared, so outcomes are identical either way
    assert tracked.success_rate == bare.success_rate


def test_gaussian_sensing_runs_scalar(fig3, treechop_noisy):
    report = simulate(fig3, treechop_noisy, runs=300, step_cap=40, seed=9)
    assert report.runs == 300
    assert report.success_rate + report.truncated_rate <= 1.0 + 1e-12
    assert report.mean_final_bel is not None  # epistemic goal


def test_random_noisy_domains_simulate_cleanly():
    rng = random.Random(31)
    from generators import random_controller

    for _ in range(10):
        domain = parse_domain(noisy_sensing_domain(rng))
        controller = random_controller(rng, domain, max_states=3)
        report = simulate(controller, domain, runs=200, step_cap=15, seed=2)
        assert report.runs == 200
        # stuck runs make up whatever the two rates leave over
        total = report.termination_rate + report.truncated_rate
        assert total <= 1.0 + 1e-12
        assert report.success_rate <= report.termination_rate


def test_step_cap_validation(fig1, treechop_noisyact):
    with pytest.raises(VerifierInputError):
        simulate(fig1, treechop_noisyact, runs=10, step_cap=0)
    with pytest.raises(VerifierInputError):
        simulate(fig1, treechop_noisyact, runs=0, step_cap=10)


def test_default_step_cap(fig1, treechop_exact):
    assert default_step_cap(fig1, treechop_exact) == 10 * 3 * 11


def test_truncation_dominates_small_caps(fig1, treechop_noisyact):
    tight = simulate(fig1, treechop_noisyact, runs=2000, step_cap=2, seed=1)
    loose = simulate(fig1, treechop_noisyact, runs=2000, step_cap=60, seed=1)
    assert tight.truncated_rate > loose.truncated_rate
    assert loose.success_rate > tight.success_rate
