"""The four workloads, as rounds of CLI ops over freshly generated files.

A run executes whole rounds. Every round of a workload has the same op
slots with the same sizes; the seed, the stream ("warm", "timed",
"traced") and the round number only pick the weights, noise levels and
initial worlds, so rounds cost about the same and no two ops in a run
read the same domain document. Each op carries what the checker needs:
the files it read, the oracle that applies, and the exit code the
construction of its inputs implies, where there is one.
"""

from __future__ import annotations

import json
import os
import random

import inputs as gen

WORKLOADS = ("exact_scaled", "belief_scaled", "synth_stream", "montecarlo")
HOLDS, FAILS, UNKNOWN = 0, 1, 2


class Round:
    """Collects the documents and ops of one round of one workload."""

    def __init__(self, workload, seed, stream, rnd, workdir, tiny):
        self.key = f"{workload}|{seed}|{stream}|{rnd}"
        self.tag = f"{stream}{rnd}"
        self.dir = os.path.join(workdir, f"{stream}-{rnd}")
        self.tiny = tiny
        self.ops = []
        os.makedirs(self.dir, exist_ok=True)

    def size(self, full, small):
        return small if self.tiny else full

    def rng(self, *parts) -> random.Random:
        return random.Random("|".join([self.key, *map(str, parts)]))

    def doc(self, name, data) -> str:
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    def add(self, slot, kind, argv, **meta):
        self.ops.append({"slot": slot, "kind": kind, "argv": [*argv, "--json"], **meta})

    def verify(self, slot, domain_fn, controller_fn, criterion, expect=None, oracle=None, extra=()):
        """One verify op with its own domain and controller documents.
        `criterion` may be a function of the domain data, named after it."""
        label = getattr(criterion, "__name__", criterion)
        name = f"{slot}.{label}".replace(":", "_")
        data = domain_fn(self.rng(name), f"{name}.{self.tag}")
        domain = self.doc(name, data)
        controller = self.doc(name + ".ctl", controller_fn(name))
        if callable(criterion):
            criterion = criterion(data)
        self.add(
            slot,
            "verify",
            ["verify", domain, controller, "--criterion", criterion, *extra],
            domain=domain,
            controller=controller,
            criterion=criterion,
            expect=expect,
            oracle=oracle,
        )


def wood_share(data) -> float:
    total = sum(e["weight"] for e in data["initial"])
    wood = sum(e["weight"] for e in data["initial"] if e["state"]["material"] == "wood")
    return wood / total


def exact_scaled(r: Round) -> None:
    """Outcome-branching checks on tree-chop, metal and product domains
    with 30 to 400 initial worlds and exact sensors."""
    n30, n60, n100, n300 = r.size(30, 6), r.size(60, 8), r.size(100, 10), r.size(300, 12)
    fig1 = gen.fig1
    exact30 = lambda rng, name: gen.treechop_exact(rng, name, n30, n30)
    for crit in ("def4", "def6", "termination", "weight:0.5", "mass:0.9", "def6+termination"):
        r.verify("exact30", exact30, fig1, crit, HOLDS, "weak")
    noisy60 = lambda rng, name: gen.treechop_noisyact(rng, name, n60, n60)
    for crit in ("def6", "termination", "weight:0.5", "mass:0.9", "def6+termination"):
        r.verify("noisyact60", noisy60, fig1, crit, HOLDS, "weak")
    metal100 = lambda rng, name: gen.treechop_metal(rng, name, n100, n100 * 2 // 5)
    r.verify("metal100", metal100, fig1, "def6", FAILS, "weak")
    r.verify("metal100", metal100, fig1, "termination", FAILS)
    r.verify("metal100", metal100, fig1, "weight:0.4", HOLDS, "weak")

    def mass_under_wood(data):
        # just under the wood share, so exactly the wood worlds carry enough mass
        return f"mass:{round(wood_share(data) - 0.01, 4)}"

    r.verify("metal100", metal100, fig1, mass_under_wood, HOLDS, "weak")
    exact100 = lambda rng, name: gen.treechop_exact(rng, name, n100, n100)
    r.verify("exact100", exact100, fig1, "def4", HOLDS, "weak")
    r.verify("exact100", exact100, fig1, "mass:0.9", HOLDS, "weak")
    r.verify("exact100", exact100, fig1, "weight:0.5", HOLDS, "weak")
    for slot, sizes, crits in (
        ("product8x8", (r.size(7, 2),) * 2, ("def6", "termination", "mass:0.5")),
        ("product5x5x5", (r.size(4, 1),) * 3, ("def6", "def6+termination")),
        ("product15x20", (r.size(14, 2), r.size(19, 3)), ("def6",)),
    ):
        domain_fn = lambda rng, name, sizes=sizes: gen.product_domain(rng, name, sizes)
        controller_fn = lambda name, k=len(sizes): gen.product_controller(name, k)
        for crit in crits:
            r.verify(slot, domain_fn, controller_fn, crit, HOLDS, None if crit == "termination" else "weak")
    metal300 = lambda rng, name: gen.treechop_metal(rng, name, n300, n300 // 3)
    r.verify("metal300", metal300, fig1, "def6", FAILS, "weak")
    r.verify("metal300", metal300, fig1, "termination", FAILS)
    noisy300 = lambda rng, name: gen.treechop_noisyact(rng, name, n300, n300)
    r.verify("noisyact300", noisy300, fig1, "termination", HOLDS)


def belief_scaled(r: Round) -> None:
    """Belief-level def9 on Gaussian lattices and belief-goal domains,
    the bound-limited adversarial search, and scenario replays."""
    fig1, fig3 = gen.fig1, gen.fig3
    for worlds, variance in ((6, 0.5), (9, 1.0), (12, 2.0)):
        w = r.size(worlds, 3)
        lattice = lambda rng, name, w=w, v=variance: gen.gaussian_lattice(rng, name, w, v)
        r.verify(f"gauss{worlds}", lattice, fig3, "def9")
    # the depth bound keeps this search finite; unbounded it exhausts memory
    bound = str(r.size(8, 4))
    lattice4 = lambda rng, name: gen.gaussian_lattice(rng, name, r.size(4, 2), 1.0)
    r.verify("gauss4", lattice4, fig3, "def9:adversarial", extra=("--depth-bound", bound))
    for full in (10, 6):
        n = r.size(full, 3)
        goal = f"(> (bel (< d {n})) 0.9)"
        belief_goal = lambda rng, name, n=n, goal=goal: gen.treechop_noisyact(rng, name, n, n, goal)
        r.verify(f"noisyact_bel{full}", belief_goal, fig1, "def9", HOLDS)
        r.verify(f"noisyact_bel{full}", belief_goal, fig1, "def9:adversarial", UNKNOWN)
    # 40 worlds in the belief, short replays: path summation, the oracle
    # for the final belief, grows as 2 to the number of chops
    n = r.size(40, 4)
    for i in range(r.size(7, 1)):
        name = f"trace_noisyact{i}"
        rng = r.rng(name)
        data = gen.treechop_noisyact(rng, f"{name}.{r.tag}", n, n, f"(> (bel (< d {n})) 0.9)")
        # a fixed start per slot keeps the replay length the same under every seed
        start = min(7 - i % 4, n)
        scenario = gen.noisyact_scenario(rng, start, 1)
        trace_op(r, name, data, fig1(name), scenario, {"d": start}, HOLDS)
    for i in range(r.size(6, 1)):
        name = f"trace_gauss{i}"
        rng = r.rng(name)
        data = gen.gaussian_lattice(rng, f"{name}.{r.tag}", r.size(10, 4), 1.0)
        start = data["initial"][-1 - i % len(data["initial"])]["state"]["d"]
        trace_op(r, name, data, fig3(name), gen.gaussian_scenario(rng), {"d": start})


def trace_op(r: Round, name, data, controller, scenario, real, expect=None) -> None:
    domain = r.doc(name, data)
    ctl = r.doc(name + ".ctl", controller)
    steps = r.doc(name + ".scenario", scenario)
    r.add(
        name.rstrip("0123456789"),
        "trace",
        ["trace", domain, ctl, "--scenario", steps, "--real", json.dumps(real)],
        domain=domain,
        controller=ctl,
        scenario=steps,
        expect=expect,
        oracle="posterior",
    )


def synth_stream(r: Round) -> None:
    """Bounded synthesis: satisfiable streams that stop at the first hit
    and unsatisfiable streams that check every candidate."""
    states = "3"

    def synth(slot, domain_fn, criterion, found, oracle="synth"):
        data = domain_fn(r.rng(slot), f"{slot}.{r.tag}")
        domain = r.doc(slot, data)
        if callable(criterion):
            criterion = criterion(data)
        r.add(
            slot,
            "synthesize",
            ["synthesize", domain, "--criterion", criterion, "--max-states", states],
            domain=domain,
            criterion=criterion,
            max_states=int(states),
            expect=HOLDS if found else FAILS,
            oracle=oracle,
        )

    synth("exact10.def4", lambda rng, name: gen.treechop_exact(rng, name, 10, 10), "def4", True)
    synth("exact30.def4", lambda rng, name: gen.treechop_exact(rng, name, 30, 10), "def4", True)
    synth("noisyact10.def6", lambda rng, name: gen.treechop_noisyact(rng, name, 10, 10), "def6", True)
    synth("noisyact10x5.def6", lambda rng, name: gen.treechop_noisyact(rng, name, 10, 5), "def6", True)
    synth("pickup.def9", gen.pickup, "def9", True)
    metal = lambda rng, name: gen.treechop_metal(rng, name, 2, 1)
    synth("metal.def6", metal, "def6", False)
    # just over the wood share, so no controller can carry enough mass
    synth("metal.mass", metal, lambda data: f"mass:{round(wood_share(data) + 0.01, 4)}", False)
    synth("pickup.def9_adversarial", gen.pickup, "def9:adversarial", False)


def montecarlo(r: Round) -> None:
    """Seeded simulation: the vectorized chain path on a small and a
    300-thickness domain, and scalar paths that track beliefs."""

    def simulate(slot, domain_fn, controller_fn, runs, oracle=None, extra=(), costly=False):
        rng = r.rng(slot)
        data = domain_fn(rng, f"{slot}.{r.tag}")
        controller = controller_fn(slot)
        domain = r.doc(slot, data)
        ctl = r.doc(slot + ".ctl", controller)
        seed = rng.randrange(2**31)
        worlds = 1
        for fluent in data["fluents"]:
            lo, hi = fluent["range"]
            worlds *= hi - lo + 1
        r.add(
            slot,
            "simulate",
            ["simulate", domain, ctl, "--runs", str(runs), "--seed", str(seed), *extra],
            domain=domain,
            controller=ctl,
            runs=runs,
            seed=seed,
            step_cap=10 * len(controller["states"]) * worlds,
            expect=HOLDS,
            oracle=oracle,
            costly=costly,
        )

    n = r.size(10, 4)
    simulate(
        "vector10",
        lambda rng, name: gen.treechop_noisyact(rng, name, n, n),
        gen.fig1,
        r.size(100_000, 2_000),
        oracle="absorption",
    )
    n300 = r.size(300, 8)
    simulate(
        "vector300",
        lambda rng, name: gen.treechop_noisyact(rng, name, n300, n300),
        gen.fig1,
        r.size(8192, 500),
        oracle="absorption",
        # exact absorption over 9,030 steps takes seconds per op: it runs
        # when the golden file is built, not in every benchmark run
        costly=not r.tiny,
    )
    for i in range(3):
        goal = f"(> (bel (< d {n})) 0.9)"
        simulate(
            f"belief{i}",
            lambda rng, name, goal=goal: gen.treechop_noisyact(rng, name, n, n, goal),
            gen.fig1,
            r.size(1200, 20),
            extra=("--track-belief",),
        )
    for i, variance in enumerate((0.5, 1.0, 2.0)):
        simulate(
            f"gauss{i}",
            lambda rng, name, v=variance: gen.gaussian_lattice(rng, name, r.size(10, 4), v),
            gen.fig3,
            r.size(600, 10),
        )


ROUND_MAKERS = {
    "exact_scaled": exact_scaled,
    "belief_scaled": belief_scaled,
    "synth_stream": synth_stream,
    "montecarlo": montecarlo,
}


def round_ops(workload, seed, stream, rnd, workdir, tiny=False) -> list:
    """The ops of one round, writing their input files.
    Warm-up rounds use the smallest sizes: they need every code path,
    not the full cost."""
    r = Round(workload, seed, stream, rnd, workdir, tiny or stream == "warm")
    ROUND_MAKERS[workload](r)
    for index, op in enumerate(r.ops):
        op["stream"], op["round"], op["index"] = stream, rnd, index
    return r.ops
