"""Seeded Monte-Carlo rollouts of a controller against a domain.

Randomness comes from two counter-based Philox streams per report, each
laid out as a matrix of one row per run and step_cap+1 columns: key
(seed, 0) gives uniforms and key (seed, 1) standard normals. Run i reads
row i; column 0 picks the initial world and column 1+t drives step t
(uniforms for outcome and discrete reading choices, normals for
continuous sensor values). Decisions are pure functions of those cells,
so the vectorized fast path and the scalar general path produce
identical reports.

Neither matrix is ever held whole. Cells are drawn a window of WINDOW
columns at a time, and a run stops drawing uniforms once it is absorbed.
Uniform cell (i, c) is draw i*(step_cap+1) + c of its stream, so the
uniforms a run never reads are skipped by advancing the Philox counter.
Normals come from a ziggurat sampler that consumes a variable number of
raw draws, so their rows cannot be positioned: each row is drawn in
full, in order, and a run can be replayed alone only by its uniforms.

When the goal is objective and all sensing is discrete, the controller
and domain collapse into a finite Markov chain over configs; the same
chain gives exact absorption probabilities by forward propagation.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .belief import bel, condition, eval_goal, initial_belief, progress
from .controller import Controller
from .exec_exact import Config, VerifierInputError, _checked, _Search, successors
from .formulas import (
    BeliefAtom,
    KnowledgeAtom,
    eval_condition,
    has_belief_atoms,
    walk,
)
from .theory import Domain

RUN_BLOCK = 8192  # runs stepped together on the vectorized path
WINDOW = 1024  # columns of random cells held per run: 64 MB at RUN_BLOCK rows


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
    """Formula whose belief is averaged into mean_final_bel: the content
    of the goal's first belief atom, else of its first knowledge atom,
    else the goal itself."""
    for kind in (BeliefAtom, KnowledgeAtom):
        for node in walk(domain.goal):
            if isinstance(node, kind):
                return node.inner
    return domain.goal


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

    step = functools.partial(successors, controller, domain)
    worlds, prior_cum = _prior(domain)
    search = _Search(
        [Config(controller.initial, w) for w in worlds],
        lambda cfg: [
            (Config(b.target, b.world), b.action, b.observation)
            for b in step(cfg.control, cfg.world)
            if b.target is not None
        ],
    )
    kinds = []
    cums = []
    rows = []  # next configs, None for the sink until every config is indexed
    for cfg, _key, _depth, _successor_keys in search:
        if cfg.control == controller.final:
            kinds.append("success" if eval_condition(domain.goal, cfg.world) else "failure")
            cums.append([1.0])
            rows.append([cfg])
            continue
        branches = step(cfg.control, cfg.world)
        kinds.append("step")
        cums.append(_cumulative([b.likelihood for b in branches]) if branches else [1.0])
        rows.append(
            [None if b.target is None else Config(b.target, b.world) for b in branches]
            or [None]
        )

    configs = list(search.parent)  # discovery order, the order yielded
    index = {cfg: i for i, cfg in enumerate(configs)}
    sink = len(configs)
    kinds.append("stuck")
    cums.append([1.0])
    targets = [[sink if t is None else index[t] for t in row] for row in rows] + [[sink]]
    init_indices = [index[Config(controller.initial, w)] for w in worlds]
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
        moved = dist @ matrix
        if np.array_equal(moved, dist):
            break  # a fixed point: every later product is this one
        dist = moved
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
    uniforms = _Uniforms(seed, step_cap + 1)
    if chain is not None:
        successes, terminated, truncated = _run_vectorized(chain, uniforms, runs)
        bel_sum = 0.0
    else:
        successes, terminated, truncated, bel_sum = _run_scalar(
            controller, domain, uniforms, runs, track
        )

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


class _Uniforms:
    """The uniform stream of the module docstring, drawing only the cells
    asked for. Cell (row, column) is draw row*width + column of
    Philox(key=[seed, 0]); Philox's advance(d) skips 4*d draws."""

    def __init__(self, seed: int, width: int):
        self.seed = seed
        self.width = width
        self._restart()

    def _restart(self) -> None:
        self.gen = np.random.Generator(np.random.Philox(key=[self.seed, 0]))
        self.position = 0  # draws consumed from gen

    def _seek(self, target: int) -> None:
        if target < self.position:
            # each window of the vectorized path starts back at its first row
            self._restart()
        if target == self.position:
            return
        # finish the current group of four; advance() drops what is left of it
        head = min(-self.position % 4, target - self.position)
        self.gen.random(head)
        self.position += head
        if target > self.position:
            self.gen.bit_generator.advance((target - self.position) // 4)
            self.gen.random((target - self.position) % 4)
            self.position = target

    def cells(self, rows, start: int, stop: int) -> np.ndarray:
        """Columns [start, stop) of the given rows, in increasing order."""
        count = stop - start
        if count == self.width and rows[-1] - rows[0] == len(rows) - 1:
            # whole consecutive rows are one contiguous stretch of the stream
            self._seek(int(rows[0]) * self.width)
            self.position += len(rows) * count
            return self.gen.random((len(rows), count))
        out = np.empty((len(rows), count))
        for row, cells in zip(rows, out):
            self._seek(int(row) * self.width + start)
            self.gen.random(out=cells)
            self.position += count
        return out


class _Row:
    """One run's row of a stream, drawn WINDOW columns at a time as its
    cells are read in increasing column order."""

    def __init__(self, draw, width: int):
        self.draw = draw  # (start, stop) -> the row's cells in [start, stop)
        self.width = width
        self.start = self.stop = 0
        self.window = None

    def __getitem__(self, column: int) -> float:
        while column >= self.stop:
            self.start, self.stop = self.stop, min(self.stop + WINDOW, self.width)
            self.window = self.draw(self.start, self.stop)
        return float(self.window[column - self.start])

    def finish(self) -> None:
        """Draw the columns not read yet, one window at a time."""
        while self.stop < self.width:
            self[self.stop]


def _run_vectorized(chain: _Chain, uniforms: _Uniforms, runs: int):
    """Step blocks of RUN_BLOCK runs together through the chain, window by
    window, dropping absorbed runs at each window start and stopping once
    every run is absorbed. An absorbing config (success, failure, stuck)
    self-loops with probability 1, so its skipped steps change no count."""
    fanout = max(len(c) for c in chain.cums)
    n = len(chain.kinds)
    cum_matrix = np.full((n, fanout), 2.0)
    target_matrix = np.zeros((n, fanout), dtype=np.int64)
    for i in range(n):
        cum_matrix[i, : len(chain.cums[i])] = chain.cums[i]
        target_matrix[i, : len(chain.targets[i])] = chain.targets[i]
        target_matrix[i, len(chain.targets[i]) :] = i
    kinds = np.array(chain.kinds)
    absorbed = kinds != "step"
    init_targets = np.array(chain.init_indices, dtype=np.int64)
    prior_cum = np.array(chain.prior_cum)

    ends = np.zeros(n, dtype=np.int64)  # runs by the config they end in
    for first in range(0, runs, RUN_BLOCK):
        rows = np.arange(first, min(first + RUN_BLOCK, runs))
        for start in range(0, uniforms.width, WINDOW):
            stop = min(start + WINDOW, uniforms.width)
            cells = uniforms.cells(rows, start, stop)
            if start == 0:
                picks = np.searchsorted(prior_cum, cells[:, 0], side="right")
                state = init_targets[np.minimum(picks, len(init_targets) - 1)]
            for column in range(max(start, 1), stop):
                draw = cells[:, column - start]
                choice = (draw[:, None] >= cum_matrix[state]).sum(axis=1)
                state = target_matrix[state, choice]
                if absorbed[state].all():
                    break
            done = absorbed[state]
            ends += np.bincount(state[done], minlength=n)
            rows, state = rows[~done], state[~done]
            if not rows.size:
                break
        ends += np.bincount(state, minlength=n)
    successes = int(ends[kinds == "success"].sum())
    terminated = successes + int(ends[kinds == "failure"].sum())
    truncated = int(ends[kinds == "step"].sum())
    return successes, terminated, truncated


def _run_scalar(
    controller: Controller,
    domain: Domain,
    uniforms: _Uniforms,
    runs: int,
    track: bool,
):
    """Step one run at a time, drawing its uniform and normal rows lazily."""
    worlds, prior_cum = _prior(domain)
    step = functools.partial(successors, controller, domain)
    epistemic = has_belief_atoms(domain.goal)
    target_formula = _bel_target(domain) if track else None
    width = uniforms.width
    normals = None
    if any(m.is_gaussian for m in domain.sensing_models.values()):
        normals = np.random.Generator(np.random.Philox(key=[uniforms.seed, 1]))
    successes = terminated = truncated = 0
    bel_sum = 0.0
    for i in range(runs):
        u = _Row(lambda start, stop, i=i: uniforms.cells([i], start, stop)[0], width)
        z = None
        if normals is not None:
            z = _Row(lambda start, stop: normals.standard_normal(stop - start), width)
        pick = bisect_right(prior_cum, u[0])
        real = worlds[min(pick, len(worlds) - 1)]
        belief = initial_belief(domain) if track else None
        control = controller.initial
        status = "step"
        for t in range(width - 1):
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
                ) * z[1 + t]
                branch = min(branches, key=lambda b: abs(value - b.reading.value))
                observed = value
            else:
                cum = _cumulative([b.likelihood for b in branches])
                choice = bisect_right(cum, u[1 + t])
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
        if z is not None:
            z.finish()  # the next run's normals start after this whole row
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
