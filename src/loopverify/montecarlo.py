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


def _default_step_cap(controller: Controller, domain: Domain) -> int:
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


@dataclass
class _Chain:
    """Finite Markov chain over reachable configs, plus one stuck sink.

    Configs are numbered in discovery order and the sink comes last. Row
    i of the (configs + 1) x fanout arrays `cums` and `targets` holds
    config i's branches, in `successors` order: their cumulative
    probabilities and their target indices, where fanout is the most
    branches any config has. A shorter row is padded with cums 1.0 and
    targets i. No uniform draw in [0, 1) reaches 1.0, so the sampler
    never picks a pad, and a pad's probability, its step in `cums`, is
    0. Final configs and the sink are all pad: they self-loop.

    A run steps into the sink from a non-final config with no branch or
    on a reading without a transition, so a dead end reached on the last
    allowed step still counts as truncated, as in scalar runs."""

    kinds: np.ndarray  # per config: "success" | "failure" | "stuck" | "step"
    cums: np.ndarray
    targets: np.ndarray
    init_indices: np.ndarray  # per positive prior world
    prior_cum: np.ndarray

    def fates(self, per_config: np.ndarray) -> tuple:
        """Sums of `per_config` over the successful, the final, the stuck
        and the unabsorbed configs."""
        kinds = self.kinds
        final = (kinds == "success") | (kinds == "failure")
        return tuple(
            per_config[mask].sum()
            for mask in (kinds == "success", final, kinds == "stuck", kinds == "step")
        )


def build_chain(controller: Controller, domain: Domain) -> Optional[_Chain]:
    """The config-graph Markov chain, or None when the domain needs
    belief tracking (continuous sensors or an epistemic goal).

    One breadth-first pass calls `successors` once per config and keeps
    the branches as the config's row."""
    if has_belief_atoms(domain.goal):
        return None
    if any(m.is_gaussian for m in domain.sensing_models.values()):
        return None

    worlds, prior_cum = _prior(domain)
    rows = []  # per config, in discovery order: its branches

    def expand(cfg):
        branches = successors(controller, domain, cfg.control, cfg.world)
        rows.append(branches)
        return [
            (Config(b.target, b.world), b.action, b.observation)
            for b in branches
            if b.target is not None
        ]

    search = _Search([Config(controller.initial, w) for w in worlds], expand)
    kinds = [
        "step" if cfg.control != controller.final
        else "success" if eval_condition(domain.goal, cfg.world)
        else "failure"
        for cfg, _key, _depth, _successor_keys in search
    ] + ["stuck"]

    index = {cfg: i for i, cfg in enumerate(search.parent)}  # discovery order
    sink = len(index)
    fanout = max(1, *map(len, rows))
    cums = np.ones((sink + 1, fanout))
    targets = np.repeat(np.arange(sink + 1)[:, None], fanout, axis=1)
    for i, branches in enumerate(rows):
        if branches:
            cums[i, : len(branches)] = _cumulative([b.likelihood for b in branches])
            targets[i, : len(branches)] = [
                sink if b.target is None else index[Config(b.target, b.world)]
                for b in branches
            ]
        elif kinds[i] == "step":
            targets[i, 0] = sink  # a dead end
    init_indices = np.array([index[Config(controller.initial, w)] for w in worlds])
    return _Chain(np.array(kinds), cums, targets, init_indices, np.array(prior_cum))


def absorption_probability(
    controller: Controller, domain: Domain, step_cap: int
) -> dict:
    """Exact probabilities of run fates within step_cap steps, by forward
    weight propagation over the config chain.

    Each step scatter-adds every config's mass, split over its branch
    probabilities, onto the branch targets: O(configs x fanout) time and
    memory per step."""
    _checked(controller, domain)
    if step_cap < 1:
        raise VerifierInputError("step_cap must be at least 1")
    chain = build_chain(controller, domain)
    if chain is None:
        raise VerifierInputError(
            "exact absorption needs discrete sensing and an objective goal"
        )
    n = len(chain.kinds)
    dist = np.bincount(
        chain.init_indices, weights=np.diff(chain.prior_cum, prepend=0.0), minlength=n
    )
    probs = np.diff(chain.cums, axis=1, prepend=0.0)
    targets = chain.targets.ravel()
    for _step in range(step_cap):
        moved = np.bincount(targets, weights=(dist[:, None] * probs).ravel(), minlength=n)
        if np.array_equal(moved, dist):
            break  # a fixed point: every later step gives this one
        dist = moved
    fates = map(float, chain.fates(dist))
    return dict(zip(("success", "terminated", "stuck", "truncated"), fates))


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
    if not -(2**63) <= seed < 2**63:  # the range of a Philox key word
        raise VerifierInputError(f"seed must lie in [-2**63, 2**63), got {seed}")
    _checked(controller, domain)
    if step_cap is None:
        step_cap = _default_step_cap(controller, domain)
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
    n = len(chain.kinds)
    absorbed = chain.kinds != "step"
    inits = chain.init_indices
    ends = np.zeros(n, dtype=np.int64)  # runs by the config they end in
    for first in range(0, runs, RUN_BLOCK):
        rows = np.arange(first, min(first + RUN_BLOCK, runs))
        for start in range(0, uniforms.width, WINDOW):
            stop = min(start + WINDOW, uniforms.width)
            cells = uniforms.cells(rows, start, stop)
            if start == 0:
                picks = np.searchsorted(chain.prior_cum, cells[:, 0], side="right")
                state = inits[np.minimum(picks, len(inits) - 1)]
            for column in range(max(start, 1), stop):
                draw = cells[:, column - start]
                choice = (draw[:, None] >= chain.cums[state]).sum(axis=1)
                state = chain.targets[state, choice]
                if absorbed[state].all():
                    break
            done = absorbed[state]
            ends += np.bincount(state[done], minlength=n)
            rows, state = rows[~done], state[~done]
            if not rows.size:
                break
        ends += np.bincount(state, minlength=n)
    successes, terminated, _stuck, truncated = map(int, chain.fates(ends))
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
