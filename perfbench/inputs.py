"""Seeded domain, controller and scenario documents for the benchmark.

The generators here are the benchmark's own copies of the tree-chop, metal,
pickup and product-domain shapes used by the fixtures and the test
generators, so editing those files cannot change what the benchmark
measures. Every generator takes a `random.Random` and returns plain JSON
data; sizes are parameters, and the generator only varies weights,
noise levels and which worlds are initial, so that one op slot costs
about the same under every seed.
"""

from __future__ import annotations

import itertools
import math


def _weight(rng, lo=0.05, hi=1.0) -> float:
    return round(rng.uniform(lo, hi), 4)


def _split_weights(rng, count) -> list:
    """Seeded weights, alternately below and above 0.5: a weight threshold
    of 0.5 selects every second world, and the prior over thicknesses,
    which sets how long sampled runs are, has the same shape under every
    seed."""
    return [_weight(rng, 0.55, 0.95) if i % 2 else _weight(rng, 0.05, 0.45) for i in range(count)]


def _exact_sensor(action="getd", fluent="d", down="down", up="up") -> dict:
    return {
        "action": action,
        "readings": [
            {"token": down, "observation": down},
            {"token": up, "observation": up},
        ],
        "table": [
            {"when": f"(= {fluent} 0)", "likelihoods": {down: 1.0}},
            {"when": "true", "likelihoods": {up: 1.0}},
        ],
    }


def treechop_exact(rng, name: str, n: int, count: int) -> dict:
    """Deterministic chopping on d in [0, n], exact sensor, `count`
    initial thicknesses drawn from 1..n."""
    ds = sorted(rng.sample(range(1, n + 1), count))
    weights = _split_weights(rng, count)
    return {
        "name": name,
        "fluents": [{"name": "d", "range": [0, n]}],
        "actions": [
            {
                "name": "chop",
                "kind": "physical",
                "precondition": "(>= d 1)",
                "effects": [{"fluent": "d", "value": "(- d 1)"}],
            },
            {"name": "getd", "kind": "sensing"},
        ],
        "sensing_models": [_exact_sensor()],
        "initial": [{"state": {"d": d}, "weight": w} for d, w in zip(ds, weights)],
        "goal": "(= d 0)",
    }


def treechop_noisyact(rng, name: str, n: int, count: int, goal: str = "(= d 0)") -> dict:
    """Chops fail to bite with a seeded probability; the sensor is exact.
    Chop stays executable at d=0 (clamped) so intending it never
    discards belief weight. The miss probability stays near 0.1: it sets
    how long runs are and how many beliefs stay distinct."""
    miss = round(rng.uniform(0.09, 0.11), 4)
    ds = sorted(rng.sample(range(1, n + 1), count))
    weights = _split_weights(rng, count)
    return {
        "name": name,
        "fluents": [{"name": "d", "range": [0, n]}],
        "actions": [
            {
                "name": "chop",
                "kind": "physical",
                "effects": [{"fluent": "d", "value": "(- d 1)", "clamp": True}],
            },
            {"name": "chop_noop", "kind": "physical"},
            {"name": "getd", "kind": "sensing"},
        ],
        "outcome_models": [
            {
                "intended": "chop",
                "outcomes": [
                    {"actual": "chop", "likelihood": round(1.0 - miss, 4)},
                    {"actual": "chop_noop", "likelihood": miss},
                ],
            }
        ],
        "sensing_models": [_exact_sensor()],
        "initial": [{"state": {"d": d}, "weight": w} for d, w in zip(ds, weights)],
        "goal": goal,
    }


def treechop_metal(rng, name: str, n: int, metal: int) -> dict:
    """Two fluents: thickness and material. Chopping only bites wood.
    Every thickness 1..n is a wood world; `metal` seeded thicknesses are
    metal worlds too. Wood worlds weigh 0.5..1, metal worlds 0.05..0.3,
    so a weight threshold of 0.4 exempts exactly the metal worlds."""
    initial = [
        {"state": {"d": d, "material": "wood"}, "weight": _weight(rng, 0.5, 1.0)}
        for d in range(1, n + 1)
    ] + [
        {"state": {"d": d, "material": "metal"}, "weight": _weight(rng, 0.05, 0.3)}
        for d in sorted(rng.sample(range(1, n + 1), metal))
    ]
    return {
        "name": name,
        "fluents": [
            {"name": "d", "range": [0, n]},
            {"name": "material", "values": ["wood", "metal"]},
        ],
        "actions": [
            {
                "name": "chop",
                "kind": "physical",
                "precondition": "(>= d 1)",
                "effects": [
                    {"fluent": "d", "value": "(ite (= material wood) (- d 1) d)"}
                ],
            },
            {"name": "getd", "kind": "sensing"},
        ],
        "sensing_models": [_exact_sensor()],
        "initial": initial,
        "goal": "(= d 0)",
    }


def product_domain(rng, name: str, sizes: tuple) -> dict:
    """Multi-fluent product: one counter per size, each with its own
    decrement (which misses with a seeded probability) and its own exact
    zero/nonzero partition sensor. Every point of the grid is an initial
    world; the goal is every counter at zero."""
    names = [f"x{i}" for i in range(len(sizes))]
    actions, models, sensors = [], [], []
    for fluent in names:
        actions.append(
            {
                "name": f"dec_{fluent}",
                "kind": "physical",
                "effects": [{"fluent": fluent, "value": f"(- {fluent} 1)", "clamp": True}],
            }
        )
        actions.append({"name": f"idle_{fluent}", "kind": "physical"})
        miss = round(rng.uniform(0.09, 0.11), 4)
        models.append(
            {
                "intended": f"dec_{fluent}",
                "outcomes": [
                    {"actual": f"dec_{fluent}", "likelihood": round(1.0 - miss, 4)},
                    {"actual": f"idle_{fluent}", "likelihood": miss},
                ],
            }
        )
        actions.append({"name": f"look_{fluent}", "kind": "sensing"})
        sensors.append(
            _exact_sensor(f"look_{fluent}", fluent, f"{fluent}_zero", f"{fluent}_more")
        )
    return {
        "name": name,
        "fluents": [{"name": f, "range": [0, s]} for f, s in zip(names, sizes)],
        "actions": actions,
        "outcome_models": models,
        "sensing_models": sensors,
        "initial": [
            {"state": dict(zip(names, point)), "weight": _weight(rng)}
            for point in itertools.product(*(range(size + 1) for size in sizes))
        ],
        "goal": "(and " + " ".join(f"(= {f} 0)" for f in names) + ")"
        if len(names) > 1
        else f"(= {names[0]} 0)",
    }


def _density(shift_units: float) -> float:
    # N(shift; mean 1, variance .25) in thickness units
    return math.exp(-((shift_units - 1.0) ** 2) / 0.5) / math.sqrt(2.0 * math.pi * 0.25)


def gaussian_lattice(rng, name: str, worlds: int, variance: float) -> dict:
    """Noisy chopping and a Gaussian thickness sensor on a half-unit
    lattice (d counts half units), as in the noisy tree-chop fixture,
    with `worlds` initial thicknesses 1..worlds units and seeded weights."""
    shifts = [0.0, 0.5, 1.0, 1.5, 2.0]
    names = ["chop_0", "chop_1", "chop", "chop_3", "chop_4"]
    actions = [
        {
            "name": action,
            "kind": "physical",
            "effects": [{"fluent": "d", "value": f"(- d {int(2 * s)})", "clamp": True}],
        }
        for action, s in zip(names, shifts)
    ]
    actions.append({"name": "getd", "kind": "sensing"})
    return {
        "name": name,
        "fluents": [{"name": "d", "range": [0, 2 * worlds]}],
        "actions": actions,
        "outcome_models": [
            {
                "intended": "chop",
                "outcomes": [
                    {"actual": action, "likelihood": _density(s)}
                    for action, s in zip(names, shifts)
                ],
            }
        ],
        "sensing_models": [
            {
                "action": "getd",
                "readings": [
                    {"token": "3.9", "value": 7.8, "observation": "<6"},
                    {"token": "4.5", "value": 9.0, "observation": "<6"},
                    {"token": "5.5", "value": 11.0, "observation": "<6"},
                    {"token": "6.5", "value": 13.0, "observation": ">6"},
                ],
                "gaussian": {"mean_fluent": "d", "variance": variance},
            }
        ],
        "initial": [
            {"state": {"d": 2 * k}, "weight": _weight(rng, 0.095, 0.105)}
            for k in range(1, worlds + 1)
        ],
        "goal": "(> (bel (<= d 10)) 0.8)",
    }


def pickup(rng, name: str) -> dict:
    """A pickup that silently slips about half the time; the slip
    probability sets how long beliefs stay distinct, so it stays near 0.5."""
    slip = round(rng.uniform(0.49, 0.51), 4)
    return {
        "name": name,
        "fluents": [{"name": "d", "range": [0, 1]}],
        "actions": [
            {"name": "pickup", "kind": "physical", "effects": [{"fluent": "d", "value": "0"}]},
            {"name": "noop", "kind": "physical"},
            {"name": "getd", "kind": "sensing"},
        ],
        "outcome_models": [
            {
                "intended": "pickup",
                "outcomes": [
                    {"actual": "pickup", "likelihood": round(1.0 - slip, 4)},
                    {"actual": "noop", "likelihood": slip},
                ],
            }
        ],
        "sensing_models": [_exact_sensor()],
        "initial": [{"state": {"d": 1}, "weight": _weight(rng, 0.5, 1.5)}],
        "goal": "(= d 0)",
    }


def fig1(name: str) -> dict:
    """Chop, look, repeat until the sensor reads down."""
    return {
        "name": name,
        "states": [0, 1, 2],
        "initial": 0,
        "final": 2,
        "advice": {"0": "chop", "1": "getd"},
        "transitions": [[0, "0", 1], [1, "down", 2], [1, "up", 0]],
    }


def fig3(name: str) -> dict:
    """Chop and look; stop after three low readings in a row."""
    return {
        "name": name,
        "states": ["a", "b", "c", "e", "f", "done"],
        "initial": "a",
        "final": "done",
        "advice": {"a": "chop", "b": "getd", "c": "chop", "e": "getd", "f": "getd"},
        "transitions": [
            ["a", "0", "b"],
            ["b", "<6", "c"],
            ["b", ">6", "a"],
            ["c", "0", "e"],
            ["e", "<6", "f"],
            ["e", ">6", "a"],
            ["f", "<6", "done"],
            ["f", ">6", "a"],
        ],
    }


def product_controller(name: str, fluents: int) -> dict:
    """Drive each counter to zero in turn: decrement, look, repeat."""
    states, advice, transitions = [], {}, []
    for i in range(fluents):
        dec, look = 2 * i, 2 * i + 1
        after = 2 * (i + 1)
        states += [dec, look]
        advice[str(dec)] = f"dec_x{i}"
        advice[str(look)] = f"look_x{i}"
        transitions += [[dec, "0", look], [look, f"x{i}_zero", after], [look, f"x{i}_more", dec]]
    final = 2 * fluents
    states.append(final)
    return {
        "name": name,
        "states": states,
        "initial": 0,
        "final": final,
        "advice": advice,
        "transitions": transitions,
    }


def noisyact_scenario(rng, start: int, slips: int) -> list:
    """A fig1 run from thickness `start` in which `slips` seeded chops of
    the start + slips fail to bite; the exact sensor reports after each."""
    chops = start + slips
    missed = set(rng.sample(range(chops - 1), slips))  # the last chop must bite
    steps, d = [], start
    for i in range(chops):
        bite = i not in missed
        steps.append({"advised_action": "chop", "actual_outcome": "chop" if bite else "chop_noop"})
        d -= bite
        steps.append({"advised_action": "getd", "reading": "down" if d == 0 else "up"})
    return steps


def gaussian_scenario(rng) -> list:
    """A fig3 run that ends after three low readings: chop, look, chop,
    look, look, with readings drawn from the three low tokens."""
    low = ["3.9", "4.5", "5.5"]
    return [
        {"advised_action": "chop", "actual_outcome": rng.choice(["chop_1", "chop", "chop_3"])},
        {"advised_action": "getd", "reading": rng.choice(low)},
        {"advised_action": "chop", "actual_outcome": rng.choice(["chop_1", "chop", "chop_3"])},
        {"advised_action": "getd", "reading": rng.choice(low)},
        {"advised_action": "getd", "reading": rng.choice(low)},
    ]
