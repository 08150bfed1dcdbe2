import copy
import math

import pytest

from loopverify.controller import Controller
from loopverify.exec_exact import successors
from loopverify.theory import (
    NULL_OBSERVATION,
    DomainError,
    WorldState,
    gaussian_density,
    parse_domain,
    world_from_dict,
)

BASE = {
    "name": "probe",
    "fluents": [
        {"name": "d", "range": [0, 3]},
        {"name": "material", "values": ["wood", "metal"]},
    ],
    "actions": [
        {
            "name": "chop",
            "kind": "physical",
            "precondition": "(>= d 1)",
            "effects": [{"fluent": "d", "value": "(- d 1)"}],
        },
        {"name": "getd", "kind": "sensing"},
    ],
    "sensing_models": [
        {
            "action": "getd",
            "readings": [
                {"token": "down", "observation": "down"},
                {"token": "up", "observation": "up"},
            ],
            "table": [
                {"when": "(= d 0)", "likelihoods": {"down": 1.0}},
                {"when": "true", "likelihoods": {"up": 1.0}},
            ],
        }
    ],
    "initial": [
        {"state": {"d": 2, "material": "wood"}, "weight": 0.5},
        {"state": {"d": 1, "material": "metal"}, "weight": 0.5},
    ],
    "goal": "(= d 0)",
}


def variant(**changes) -> dict:
    data = copy.deepcopy(BASE)
    data.update(changes)
    return data


def test_world_state_identity():
    a = WorldState({"d": 1, "x": 2})
    b = WorldState({"x": 2, "d": 1})
    assert a == b and hash(a) == hash(b)
    assert a.key() == (("d", 1), ("x", 2))
    assert a.as_dict() == {"d": 1, "x": 2}
    assert a.updated({"d": 0})["d"] == 0
    assert a["d"] == 1  # updated() does not mutate


def test_parse_and_enumerate():
    domain = parse_domain(BASE)
    assert domain.name == "probe"
    assert domain.observations() == (NULL_OBSERVATION, "down", "up")
    assert domain.is_deterministic()


def test_poss_and_apply():
    domain = parse_domain(BASE)
    w2 = world_from_dict(domain, {"d": 2, "material": "wood"})
    w0 = world_from_dict(domain, {"d": 0, "material": "wood"})
    assert domain.poss("chop", w2)
    assert not domain.poss("chop", w0)
    assert domain.apply("chop", w2)["d"] == 1
    with pytest.raises(DomainError):
        domain.apply("chop", w0)  # precondition enforced


def test_clamp_saturates_at_range_ends():
    data = variant()
    data["actions"][0] = {
        "name": "chop",
        "kind": "physical",
        "effects": [{"fluent": "d", "value": "(- d 1)", "clamp": True}],
    }
    domain = parse_domain(data)
    w0 = world_from_dict(domain, {"d": 0, "material": "wood"})
    assert domain.apply("chop", w0)["d"] == 0


def test_unclamped_out_of_range_rejected_statically():
    data = variant()
    data["actions"][0]["precondition"] = "true"
    with pytest.raises(DomainError):
        parse_domain(data)


def test_outcome_model_normalizes():
    data = variant()
    data["actions"].insert(1, {"name": "chop_noop", "kind": "physical"})
    data["outcome_models"] = [
        {
            "intended": "chop",
            "outcomes": [
                {"actual": "chop", "likelihood": 8.0},
                {"actual": "chop_noop", "likelihood": 2.0},
            ],
        }
    ]
    domain = parse_domain(data)
    model = domain.outcome_models["chop"]
    assert [o.likelihood for o in model.outcomes] == [0.8, 0.2]
    assert not domain.is_deterministic()


def test_outcome_model_keeps_positive_outcomes():
    data = variant()
    data["actions"].insert(1, {"name": "chop_noop", "kind": "physical"})

    def model(chop, chop_noop):
        data["outcome_models"] = [
            {
                "intended": "chop",
                "outcomes": [
                    {"actual": "chop", "likelihood": chop},
                    {"actual": "chop_noop", "likelihood": chop_noop},
                ],
            }
        ]
        domain = parse_domain(data)
        outcomes = domain.outcome_models["chop"].outcomes
        return domain, [(o.action, o.likelihood) for o in outcomes]

    domain, outcomes = model(2.0, 0.0)
    assert outcomes == [("chop", 1.0)] and domain.is_deterministic()
    # the intended action must be declared, not positive
    domain, outcomes = model(0.0, 1.0)
    assert outcomes == [("chop_noop", 1.0)] and not domain.is_deterministic()


def test_infinite_total_weights_are_rejected():
    # each weight is finite, but their sum is not: normalizing would give
    # NaN masses and zero likelihoods
    data = variant()
    data["actions"].insert(1, {"name": "chop_noop", "kind": "physical"})
    data["outcome_models"] = [
        {
            "intended": "chop",
            "outcomes": [
                {"actual": "chop", "likelihood": 1e308},
                {"actual": "chop_noop", "likelihood": 1e308},
            ],
        }
    ]
    with pytest.raises(DomainError, match="outcome model of 'chop' has an infinite total"):
        parse_domain(data)
    heavy = [dict(world, weight=1e308) for world in BASE["initial"]]
    with pytest.raises(DomainError, match="initial worlds carry an infinite total"):
        parse_domain(variant(initial=heavy))


def test_outcome_model_must_include_intended():
    data = variant()
    data["actions"].insert(1, {"name": "chop_noop", "kind": "physical"})
    data["outcome_models"] = [
        {
            "intended": "chop",
            "outcomes": [{"actual": "chop_noop", "likelihood": 1.0}],
        }
    ]
    with pytest.raises(DomainError):
        parse_domain(data)


def test_outcomes_filter_executability():
    data = variant()
    data["actions"].insert(1, {"name": "smash", "kind": "physical",
                               "precondition": "(>= d 2)",
                               "effects": [{"fluent": "d", "value": "(- d 2)"}]})
    data["outcome_models"] = [
        {
            "intended": "chop",
            "outcomes": [
                {"actual": "chop", "likelihood": 0.5},
                {"actual": "smash", "likelihood": 0.5},
            ],
        }
    ]
    domain = parse_domain(data)
    w1 = world_from_dict(domain, {"d": 1, "material": "wood"})
    names = [o.action for o in domain.outcomes_of("chop", w1)]
    assert names == ["chop"]  # smash impossible at d=1
    w2 = world_from_dict(domain, {"d": 2, "material": "wood"})
    assert [o.action for o in domain.outcomes_of("chop", w2)] == ["chop", "smash"]


# chops on "0", then senses: "down" finishes, "up" chops again
CHOP_SENSE = Controller(
    [0, 1, 2], 0, 2, {0: "chop", 1: "getd"}, {(0, "0"): 1, (1, "down"): 2, (1, "up"): 0}
)


def test_successors_report_the_exact_observation():
    domain = parse_domain(BASE)
    w0 = world_from_dict(domain, {"d": 0, "material": "wood"})
    w2 = world_from_dict(domain, {"d": 2, "material": "wood"})
    [down] = successors(CHOP_SENSE, domain, 1, w0)
    assert (down.observation, down.target, down.world) == ("down", 2, w0)
    [up] = successors(CHOP_SENSE, domain, 1, w2)
    assert (up.observation, up.target, up.world) == ("up", 0, w2)
    [chop] = successors(CHOP_SENSE, domain, 0, w2)
    assert chop.observation == NULL_OBSERVATION and chop.reading is None
    assert (chop.action, chop.target, chop.world["d"]) == ("chop", 1, 1)


def test_successors_branch_over_noisy_readings():
    data = variant()
    data["sensing_models"][0]["table"] = [
        {"when": "true", "likelihoods": {"down": 0.5, "up": 0.5}}
    ]
    domain = parse_domain(data)
    w = world_from_dict(domain, {"d": 0, "material": "wood"})
    branches = successors(CHOP_SENSE, domain, 1, w)
    assert [(b.reading.token, b.likelihood, b.target) for b in branches] == [
        ("down", 0.5, 2),
        ("up", 0.5, 0),
    ]


def test_sensing_action_requires_model():
    data = variant(sensing_models=[])
    with pytest.raises(DomainError):
        parse_domain(data)


def test_reserved_null_observation():
    data = variant()
    data["sensing_models"][0]["readings"][0] = {"token": "0", "observation": "down"}
    with pytest.raises(DomainError):
        parse_domain(data)
    data = variant()
    data["sensing_models"][0]["readings"][0] = {"token": "down", "observation": "0"}
    with pytest.raises(DomainError):
        parse_domain(data)


def test_table_readings_need_distinct_values():
    # likelihood() finds a table reading by its value, so a shared value
    # would give the second reading the first one's likelihood
    def sensor(readings):
        data = variant()
        data["sensing_models"][0] = {
            "action": "getd",
            "readings": readings,
            "table": [{"when": "true", "likelihoods": {"1": 0.2, "x": 0.8}}],
        }
        return data

    # "1" denotes 1.0; "x", the second reading, defaults to its ordinal 1.0
    for readings in (
        [{"token": "1"}, {"token": "x"}],
        [{"token": "1"}, {"token": "x", "value": 1}],
    ):
        with pytest.raises(DomainError, match="share the value 1.0"):
            parse_domain(sensor(readings))
    domain = parse_domain(sensor([{"token": "1"}, {"token": "x", "value": 2}]))
    model = domain.sensing_models["getd"]
    w = world_from_dict(domain, {"d": 2, "material": "wood"})
    assert [model.likelihood(w, r.value) for r in model.readings] == [0.2, 0.8]


def test_gaussian_sensor_parses():
    data = variant()
    data["sensing_models"] = [
        {
            "action": "getd",
            "readings": [{"token": "1.5", "observation": "near"}],
            "gaussian": {"mean_fluent": "d", "variance": 0.25},
        }
    ]
    domain = parse_domain(data)
    model = domain.sensing_models["getd"]
    assert model.is_gaussian
    assert model.readings[0].value == 1.5  # numeric token denotes itself
    w = world_from_dict(domain, {"d": 2, "material": "wood"})
    assert model.likelihood(w, 2.0) == pytest.approx(gaussian_density(2.0, 2.0, 0.25))


def test_gaussian_density_uses_variance():
    peak = gaussian_density(0.0, 0.0, 0.25)
    assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 0.25))
    assert gaussian_density(1.0, 0.0, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    )


def test_initial_validation():
    with pytest.raises(DomainError):
        parse_domain(variant(initial=[]))
    with pytest.raises(DomainError):
        parse_domain(variant(initial=[{"state": {"d": 1}, "weight": 1.0}]))
    with pytest.raises(DomainError):
        parse_domain(
            variant(
                initial=[
                    {"state": {"d": 1, "material": "wood"}, "weight": 1.0},
                    {"state": {"d": 1, "material": "wood"}, "weight": 1.0},
                ]
            )
        )
    with pytest.raises(DomainError):
        parse_domain(
            variant(initial=[{"state": {"d": 1, "material": "wood"}, "weight": 0.0}])
        )


def test_fluent_names_are_strings():
    # a world's keys are JSON object keys, so a number could never be assigned
    fluents = [{"name": 5, "range": [0, 3]}, {"name": "material", "values": ["wood"]}]
    with pytest.raises(DomainError, match="fluent name must be a string, not 5"):
        parse_domain(variant(fluents=fluents))


def test_domain_name_and_notes():
    domain = parse_domain(variant(name=7, notes="two worlds"))
    assert (domain.name, domain.notes) == ("7", "two worlds")
    with pytest.raises(DomainError, match="domain name must be a string or a number"):
        parse_domain(variant(name=[1]))
    with pytest.raises(DomainError, match="notes must be a string"):
        parse_domain(variant(notes={"x": 1}))


def test_goal_must_parse():
    with pytest.raises(DomainError):
        parse_domain(variant(goal="(= q 0)"))
    with pytest.raises(DomainError):
        parse_domain(variant(goal=7))


def test_world_from_dict_validation():
    domain = parse_domain(BASE)
    with pytest.raises(DomainError):
        world_from_dict(domain, {"d": 1})
    with pytest.raises(DomainError):
        world_from_dict(domain, {"d": 99, "material": "wood"})
    w = world_from_dict(domain, {"d": 1.0, "material": "wood"})
    assert w["d"] == 1 and isinstance(w["d"], int)


def test_fluent_values_are_declared_values():
    domain = parse_domain(BASE)
    d, material = domain.fluents["d"], domain.fluents["material"]
    assert d.coerce(1.0) == 1 and type(d.coerce(1.0)) is int
    for raw in (True, False, 2.5, "1", None, [1], 7):
        assert d.coerce(raw) is None
    assert d.coerce(7, clamp=True) == 3 and d.coerce(-2.0, clamp=True) == 0
    assert d.coerce(2.5, clamp=True) is None and d.coerce(True, clamp=True) is None
    assert material.coerce("wood") == "wood" and material.coerce(0) is None


def test_range_fluents_hold_their_range():
    domain = parse_domain(BASE)
    assert domain.fluents["d"].values == range(0, 4)
    assert domain.fluents["material"].values == ("wood", "metal")
    fluents = [{"name": "d", "range": [0, 10**12]}, BASE["fluents"][1]]
    wide = parse_domain(variant(fluents=fluents))
    d = wide.fluents["d"]
    assert len(d.values) == 10**12 + 1
    assert d.coerce(10**12) == 10**12 and d.coerce(float(10**12)) == 10**12
    assert d.coerce(10**12 + 1) is None and d.coerce(-1) is None
    assert d.coerce(10**13, clamp=True) == 10**12
    assert d.coerce("1") is None and d.coerce(True) is None


def test_sensor_coverage_checked():
    data = variant()
    data["sensing_models"][0]["table"] = [
        {"when": "(= d 0)", "likelihoods": {"down": 1.0}}
    ]
    with pytest.raises(DomainError):
        parse_domain(data)  # worlds with d>0 would have no reading
