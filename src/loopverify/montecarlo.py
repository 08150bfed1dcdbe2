"""Seeded Monte-Carlo rollouts of a controller against a domain.

Randomness is drawn from two counter-based Philox streams per report:
key (seed, 0) yields a uniform matrix and key (seed, 1) a standard-normal
matrix, each generated in blocks of RUN_BLOCK rows and step_cap+1
columns. Run i reads row i of its block; column 0 picks the initial
world and column 1+t drives step t (uniforms for outcome and discrete
reading choices, normals for continuous sensor values). Decisions are
pure functions of those cells, so the vectorized fast path and the
scalar general path produce identical reports, and any run can be
replayed in isolation.

When the goal is objective and all sensing is discrete, the controller
and domain collapse into a finite Markov chain over configs; the same
chain gives exact absorption probabilities by forward propagation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .belief import bel, condition, eval_goal, initial_belief, progress
from .controller import Controller
from .exec_exact import (
    Config,
    VerifierInputError,
    _cached_successors,
    _checked,
    successors,
)
from .formulas import BeliefAtom, eval_condition, has_belief_atoms
from .theory import Domain

RUN_BLOCK = 8192


@dataclass
class SimReport:
    runs: int
    success_rate: float
    termination_rate: float
    truncated_rate: float
    mean_final_bel: Optional[float]
    std_error: float
    seed: int
    step_cap: int


def default_step_cap(controller: Controller, domain: Domain) -> int:
    return 10 * len(controller.states) * domain.world_space_size()


def _cumulative(weights: list) -> list:
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    cum[-1] = 1.0
    return cum


def _prior(domain: Domain):
    worlds = [w for w, wt in domain.initial_worlds if wt > 0.0]
    cum = _cumulative([wt for _w, wt in domain.initial_worlds if wt > 0.0])
    return worlds, cum


def _bel_target(domain: Domain):
    """Formula whose belief is averaged into mean_final_bel: the goal's
    first belief atom's content, or the goal itself when objective."""

    def first_atom(node):
        if isinstance(node, BeliefAtom):
            return node.inner
        for attr in ("inner", "lhs", "rhs"):
            child = getattr(node, attr, None)
            if child is not None:
                found = first_atom(child)
                if found is not None:
                    return found
        for child in getattr(node, "parts", ()):
            found = first_atom(child)
            if found is not None:
                return found
        return None

    return first_atom(domain.goal) or domain.goal


class _Chain:
    """Finite Markov chain over reachable configs, plus one stuck sink.

    A run steps into the sink from a non-final config with no branch or
    on a reading without a transition, so a dead end reached on the last
    allowed step still counts as truncated, as in scalar runs."""

    def __init__(self, configs, kinds, cums, targets, init_indices, prior_cum):
        self.configs = configs
        self.kinds = kinds  # per config: "success" | "failure" | "stuck" | "step"
        self.cums = cums  # per config: cumulative branch probabilities
        self.targets = targets  # per config: branch target indices
        self.init_indices = init_indices  # per positive prior world
        self.prior_cum = prior_cum


def build_chain(controller: Controller, domain: Domain) -> Optional[_Chain]:
    """The config-graph Markov chain, or None when the domain needs
    belief tracking (continuous sensors or an epistemic goal)."""
    if has_belief_atoms(domain.goal):
        return None
    if any(m.is_gaussian for m in domain.sensing_models.values()):
        return None

    configs = []
    index = {}

    def intern(cfg: Config) -> int:
        if cfg not in index:
            index[cfg] = len(configs)
            configs.append(cfg)
        return index[cfg]

    worlds, prior_cum = _prior(domain)
    init_indices = [intern(Config(controller.initial, w)) for w in worlds]
    kinds = []
    cums = []
    targets = []  # None stands for the sink until every config is interned
    while len(kinds) < len(configs):
        i = len(kinds)
        cfg = configs[i]
        if cfg.control == controller.final:
            kinds.append("success" if eval_condition(domain.goal, cfg.world) else "failure")
            cums.append([1.0])
            targets.append([i])
            continue
        branches = successors(controller, domain, cfg.control, cfg.world)
        kinds.append("step")
        cums.append(_cumulative([b.likelihood for b in branches]) if branches else [1.0])
        targets.append(
            [
                None if b.target is None else intern(Config(b.target, b.world))
                for b in branches
            ]
            or [None]
        )

    sink = len(configs)
    kinds.append("stuck")
    cums.append([1.0])
    targets = [[sink if t is None else t for t in row] for row in targets] + [[sink]]
    return _Chain(configs, kinds, cums, targets, init_indices, prior_cum)


def absorption_probability(
    controller: Controller, domain: Domain, step_cap: int
) -> dict:
    """Exact probabilities of run fates within step_cap steps, by forward
    weight propagation over the config chain."""
    chain = build_chain(controller, domain)
    if chain is None:
        raise VerifierInputError(
            "exact absorption needs discrete sensing and an objective goal"
        )
    n = len(chain.kinds)
    dist = np.zeros(n)
    previous = 0.0
    for idx, cum in zip(chain.init_indices, chain.prior_cum):
        dist[idx] += cum - previous
        previous = cum
    matrix = np.zeros((n, n))
    for i in range(n):
        cum = chain.cums[i]
        prev = 0.0
        for edge, target in zip(cum, chain.targets[i]):
            matrix[i, target] += edge - prev
            prev = edge
    for _step in range(step_cap):
        dist = dist @ matrix
    kinds = np.array(chain.kinds)
    return {
        "success": float(dist[kinds == "success"].sum()),
        "terminated": float(
            dist[(kinds == "success") | (kinds == "failure")].sum()
        ),
        "stuck": float(dist[kinds == "stuck"].sum()),
        "truncated": float(dist[kinds == "step"].sum()),
    }


def simulate(
    controller: Controller,
    domain: Domain,
    runs: int,
    step_cap: Optional[int] = None,
    seed: int = 0,
    track_belief: bool = False,
) -> SimReport:
    """Estimate success and termination rates over seeded rollouts.

    A run succeeds when it reaches the final control state within
    step_cap steps and the goal holds there (at the real world, or at the
    tracked belief for goals with belief atoms). Truncated runs are
    reported, never hidden.
    """
    if runs < 1:
        raise VerifierInputError("runs must be at least 1")
    _checked(controller, domain)
    if step_cap is None:
        step_cap = default_step_cap(controller, domain)
    if step_cap < 1:
        raise VerifierInputError("step_cap must be at least 1")

    track = track_belief or has_belief_atoms(domain.goal)
    chain = None if track else build_chain(controller, domain)
    needs_normals = any(m.is_gaussian for m in domain.sensing_models.values())

    uniform_rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    normal_rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    width = step_cap + 1

    successes = 0
    terminated = 0
    truncated = 0
    bel_sum = 0.0
    done = 0
    while done < runs:
        count = min(RUN_BLOCK, runs - done)
        uniforms = uniform_rng.random((count, width))
        normals = normal_rng.standard_normal((count, width)) if needs_normals else None
        if chain is not None:
            s, t, u = _run_block_vectorized(chain, uniforms, step_cap)
            successes += s
            terminated += t
            truncated += u
        else:
            s, t, u, b = _run_block_scalar(
                controller, domain, uniforms, normals, step_cap, track
            )
            successes += s
            terminated += t
            truncated += u
            bel_sum += b
        done += count

    success_rate = successes / runs
    return SimReport(
        runs=runs,
        success_rate=success_rate,
        termination_rate=terminated / runs,
        truncated_rate=truncated / runs,
        mean_final_bel=(bel_sum / runs) if track else None,
        std_error=math.sqrt(success_rate * (1.0 - success_rate) / runs),
        seed=seed,
        step_cap=step_cap,
    )


def _run_block_vectorized(chain: _Chain, uniforms, step_cap: int):
    width = max(len(c) for c in chain.cums)
    n = len(chain.kinds)
    cum_matrix = np.full((n, width), 2.0)
    target_matrix = np.zeros((n, width), dtype=np.int64)
    for i in range(n):
        cum_matrix[i, : len(chain.cums[i])] = chain.cums[i]
        target_matrix[i, : len(chain.targets[i])] = chain.targets[i]
        target_matrix[i, len(chain.targets[i]) :] = i
    init_targets = np.array(chain.init_indices, dtype=np.int64)
    prior_cum = np.array(chain.prior_cum)

    picks = np.searchsorted(prior_cum, uniforms[:, 0], side="right")
    picks = np.minimum(picks, len(init_targets) - 1)
    state = init_targets[picks]
    for t in range(step_cap):
        draw = uniforms[:, 1 + t]
        choice = (draw[:, None] >= cum_matrix[state]).sum(axis=1)
        state = target_matrix[state, choice]
    kinds = np.array(chain.kinds)[state]
    successes = int((kinds == "success").sum())
    terminated = successes + int((kinds == "failure").sum())
    truncated = int((kinds == "step").sum())
    return successes, terminated, truncated


def _run_block_scalar(
    controller: Controller,
    domain: Domain,
    uniforms,
    normals,
    step_cap: int,
    track: bool,
):
    worlds, prior_cum = _prior(domain)
    step = _cached_successors(controller, domain)
    epistemic = has_belief_atoms(domain.goal)
    target_formula = _bel_target(domain) if track else None
    successes = terminated = truncated = 0
    bel_sum = 0.0
    for i in range(uniforms.shape[0]):
        pick = bisect_right(prior_cum, float(uniforms[i, 0]))
        real = worlds[min(pick, len(worlds) - 1)]
        belief = initial_belief(domain) if track else None
        control = controller.initial
        status = "step"
        for t in range(step_cap):
            if control == controller.final:
                break
            branches = step(control, real)
            if not branches:
                status = "stuck"
                break
            advised = controller.advice[control]
            model = domain.sensing_models.get(advised)
            if model is not None and model.is_gaussian:
                # a sampled sensor value reports the nearest reading
                value = float(real[model.mean_fluent]) + math.sqrt(
                    model.variance
                ) * float(normals[i, 1 + t])
                branch = min(branches, key=lambda b: abs(value - b.reading.value))
                observed = value
            else:
                cum = _cumulative([b.likelihood for b in branches])
                choice = bisect_right(cum, float(uniforms[i, 1 + t]))
                branch = branches[min(choice, len(branches) - 1)]
                observed = branch.reading
            if track:
                if model is None:
                    belief = progress(belief, advised, domain)
                else:
                    belief = condition(belief, advised, observed, domain)
            if branch.target is None:
                status = "stuck"
                break
            real, control = branch.world, branch.target
        if control == controller.final:
            terminated += 1
            if epistemic:
                if eval_goal(belief, domain.goal):
                    successes += 1
            elif eval_condition(domain.goal, real):
                successes += 1
        elif status == "step":
            truncated += 1
        if track:
            bel_sum += bel(belief, target_formula)
    return successes, terminated, truncated, bel_sum
