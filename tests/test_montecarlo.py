import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import loopverify.montecarlo as mc
from loopverify.controller import Controller
from loopverify.exec_exact import VerifierInputError, successors
from loopverify.montecarlo import _default_step_cap, absorption_probability, simulate
from loopverify.theory import parse_domain

from conftest import fixture_path
from generators import noisy_sensing_domain, random_controller, random_population
from oracles import absorption_by_dicts

# chops in a self-loop from d=1: the run reaches a dead end (d=0, where
# chop is inexecutable) on its first step and is stuck on its second
CHOP_LOOP = Controller([0, 1], 0, 1, {0: "chop"}, {(0, "0"): 0})

# fig1 less its "up" edge: a run from d=0 is stuck at once (chop is
# inexecutable), from d=1 it succeeds, and from d=2 it is stuck on "up"
NO_UP = Controller([0, 1, 2], 0, 2, {0: "chop", 1: "getd"}, {(0, "0"): 1, (1, "down"): 2})


def chop_loop_domain(initial=(1,)):
    with open(fixture_path("treechop_exact.json")) as handle:
        data = json.load(handle)
    data["initial"] = [{"state": {"d": d}, "weight": 1.0} for d in initial]
    return parse_domain(data)


def thick_noisyact_domain(thickness):
    with open(fixture_path("treechop_noisyact.json")) as handle:
        data = json.load(handle)
    data["fluents"][0]["range"] = [0, thickness]
    data["initial"] = [
        {"state": {"d": d}, "weight": 1.0 / thickness} for d in range(1, thickness + 1)
    ]
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


def random_chain_pairs():
    """About 30 seeded (controller, domain) pairs that have a chain:
    exact-sensing domains, some with acting noise, and noisy-sensing ones."""
    rng = random.Random(47)
    pairs = [(random_controller(rng, d, max_states=3), d) for d in random_population(46, 20)]
    while len(pairs) < 30:
        domain = parse_domain(noisy_sensing_domain(rng))
        controller = random_controller(rng, domain, max_states=3)
        if mc.build_chain(controller, domain) is not None:  # Gaussian sensing has none
            pairs.append((controller, domain))
    return pairs


def test_chain_matches_the_oracle_and_the_scalar_runs_on_random_pairs(monkeypatch):
    pairs = random_chain_pairs()
    caps = (1, 2, 3, 5)
    for controller, domain in pairs:
        for cap in caps:
            ours = absorption_probability(controller, domain, step_cap=cap)
            ref = absorption_by_dicts(controller, domain, step_cap=cap)
            for key in ("success", "terminated", "stuck"):
                assert ours[key] == pytest.approx(ref[key], abs=1e-12)
    cases = [(c, d, cap) for c, d in pairs for cap in caps]
    fast = [simulate(c, d, runs=200, step_cap=cap, seed=5) for c, d, cap in cases]
    monkeypatch.setattr(mc, "build_chain", lambda *_args: None)
    for (c, d, cap), a in zip(cases, fast):
        b = simulate(c, d, runs=200, step_cap=cap, seed=5)
        assert (b.success_rate, b.termination_rate, b.truncated_rate) == (
            a.success_rate,
            a.termination_rate,
            a.truncated_rate,
        )


def test_build_chain_expands_each_config_once(fig1, treechop_noisyact, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return successors(*args)

    monkeypatch.setattr(mc, "successors", counted)
    for controller, domain in [(fig1, treechop_noisyact)] + random_chain_pairs():
        calls.clear()
        chain = mc.build_chain(controller, domain)
        assert len(calls) == len(chain.kinds) - 1  # every config but the sink


def test_absorption_stops_at_an_exact_fixed_point(fig1, treechop_noisyact):
    # the chains settle at steps 698 and 906 of 2,000
    cap = 2000
    for domain in (treechop_noisyact, thick_noisyact_domain(60)):
        chain = mc.build_chain(fig1, domain)
        n = len(chain.kinds)
        dist = np.zeros(n)
        previous = 0.0
        for idx, cum in zip(chain.init_indices, chain.prior_cum):
            dist[idx] += cum - previous
            previous = cum
        probs = np.diff(chain.cums, axis=1, prepend=0.0)
        settled = None
        for step in range(cap):
            moved = np.bincount(
                chain.targets.ravel(), weights=(dist[:, None] * probs).ravel(), minlength=n
            )
            if settled is None and np.array_equal(moved, dist):
                settled = step
            dist = moved
        assert settled is not None and settled < cap  # the early exit is taken
        kinds = chain.kinds
        full = {
            "success": float(dist[kinds == "success"].sum()),
            "terminated": float(dist[(kinds == "success") | (kinds == "failure")].sum()),
            "stuck": float(dist[kinds == "stuck"].sum()),
            "truncated": float(dist[kinds == "step"].sum()),
        }
        assert absorption_probability(fig1, domain, step_cap=cap) == full


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


def test_absorption_checks_its_inputs_like_simulate(fig1, treechop_noisyact):
    nosuch = Controller([0, 1], 0, 1, {0: "nosuch"}, {(0, "0"): 1})
    for run in (
        lambda: simulate(nosuch, treechop_noisyact, runs=10, step_cap=10),
        lambda: absorption_probability(nosuch, treechop_noisyact, step_cap=10),
    ):
        with pytest.raises(VerifierInputError, match="controller is invalid"):
            run()
    for cap in (0, -3):
        for run in (
            lambda: simulate(fig1, treechop_noisyact, runs=10, step_cap=cap),
            lambda: absorption_probability(fig1, treechop_noisyact, step_cap=cap),
        ):
            with pytest.raises(VerifierInputError, match="^step_cap must be at least 1$"):
                run()


def test_scalar_and_vectorized_paths_agree(
    fig1, treechop_noisyact, treechop_metal, monkeypatch
):
    # the chop loop reaches a dead end on the last allowed step: truncated;
    # the metal world's runs loop on through more than one window of draws;
    # only the runs from d=1 of NO_UP end, the others are stuck
    cases = [
        (fig1, treechop_noisyact, 20000, 25),
        (CHOP_LOOP, chop_loop_domain(), 100, 1),
        (fig1, treechop_metal, 300, mc.WINDOW + 100),
        (NO_UP, chop_loop_domain([0, 1, 2]), 300, 5),
    ]
    fast = [simulate(c, d, runs=n, step_cap=cap, seed=7) for c, d, n, cap in cases]
    monkeypatch.setattr(mc, "build_chain", lambda *_args: None)
    slow = [simulate(c, d, runs=n, step_cap=cap, seed=7) for c, d, n, cap in cases]
    for a, b in zip(fast, slow):
        assert b.success_rate == a.success_rate
        assert b.termination_rate == a.termination_rate
        assert b.truncated_rate == a.truncated_rate
    assert slow[1].truncated_rate == 1.0
    assert 0.0 < slow[2].truncated_rate < 1.0
    assert 0.0 < slow[3].success_rate == slow[3].termination_rate < 1.0
    assert slow[3].truncated_rate == 0.0


def test_lazy_uniform_cells_match_the_eager_matrix():
    seed, width = 13, 37  # rows start at every offset within Philox's groups of four
    runs = mc.RUN_BLOCK + 50
    eager = np.random.Generator(np.random.Philox(key=[seed, 0])).random((runs, width))
    rng = random.Random(4)
    cases = [
        (range(runs), 0, width),  # every row whole: one contiguous draw
        ([0, 1, 2], 1, 2),
        ([3, 5, 6], 2, 37),
        (range(mc.RUN_BLOCK, runs), 0, width),  # the second block alone
        ([mc.RUN_BLOCK + 1, mc.RUN_BLOCK + 3], 5, 9),
    ]
    for _ in range(100):
        rows = sorted(rng.sample(range(runs), rng.randint(1, 40)))
        start = rng.randrange(width)
        cases.append((rows, start, rng.randint(start + 1, width)))
    uniforms = mc._Uniforms(seed, width)
    for rows, start, stop in cases:  # the same reader, seeking back and forth
        rows = np.array(rows)
        assert np.array_equal(uniforms.cells(rows, start, stop), eager[rows, start:stop])


@pytest.mark.parametrize("window", [1, 3, 8])
def test_reports_do_not_depend_on_the_window(
    fig1, fig3, treechop_noisyact, treechop_metal, treechop_noisy, monkeypatch, window
):
    cases = [
        (fig1, treechop_noisyact, 500, 25, False),
        (fig1, treechop_metal, 300, 30, False),
        (fig1, treechop_noisyact, 60, 25, True),
        (fig3, treechop_noisy, 60, 20, False),  # Gaussian sensing: normal rows
    ]

    def reports():
        return [
            simulate(c, d, runs=n, step_cap=cap, seed=3, track_belief=track)
            for c, d, n, cap, track in cases
        ]

    whole_rows = reports()
    monkeypatch.setattr(mc, "WINDOW", window)
    assert reports() == whole_rows


def test_memory_does_not_grow_with_the_step_cap():
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    # one BLAS thread: each thread's buffers would count against the cap
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # eager draws would need 20 x 20,000,001 doubles, about 3 GB
    argv = [
        sys.executable, "-m", "loopverify.cli", "simulate",
        fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
        "--step-cap", "20000000", "--runs", "20", "--seed", "0", "--json",
    ]
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["termination_rate"] == 1.0


def test_belief_goal_forces_tracking(fig1, treechop_noisyact_bel):
    report = simulate(fig1, treechop_noisyact_bel, runs=400, step_cap=25, seed=5)
    assert report.mean_final_bel is not None
    assert 0.0 <= report.mean_final_bel <= 1.0
    assert 0.9 < report.success_rate <= 1.0


def test_mean_final_bel_prefers_a_bel_atom_to_a_know_atom(fig1):
    # the first bel atom's content wins, even behind a know atom
    def mean_final_bel(goal):
        with open(fixture_path("treechop_noisyact_bel.json")) as handle:
            data = json.load(handle)
        data["goal"] = goal
        return simulate(fig1, parse_domain(data), runs=200, step_cap=6, seed=4).mean_final_bel

    mixed = mean_final_bel("(or (know (= d 0)) (> (bel (< d 3)) 0.5))")
    assert mixed == mean_final_bel("(> (bel (< d 3)) 0.5)")
    assert mixed != mean_final_bel("(know (= d 0))")


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


def test_default_step_cap(fig1, treechop_exact, treechop_metal):
    # 10 x controller states x worlds; d in [0, 2] and material in
    # {wood, metal} make 6 worlds
    assert _default_step_cap(fig1, treechop_exact) == 10 * 3 * 11
    assert _default_step_cap(fig1, treechop_metal) == 10 * 3 * 6


def test_truncation_dominates_small_caps(fig1, treechop_noisyact):
    tight = simulate(fig1, treechop_noisyact, runs=2000, step_cap=2, seed=1)
    loose = simulate(fig1, treechop_noisyact, runs=2000, step_cap=60, seed=1)
    assert tight.truncated_rate > loose.truncated_rate
    assert loose.success_rate > tight.success_rate
