import os

import pytest

from loopverify import load_controller, load_domain

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "src",
    "loopverify",
    "fixtures",
)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def look_domain_data() -> dict:
    """x in 0..1, starting at x = 0; the sensing action `look` reads "lo"
    or "hi" with 0.5 each wherever it is taken; the goal is true."""
    return {
        "fluents": [{"name": "x", "range": [0, 1]}],
        "actions": [{"name": "look", "kind": "sensing"}],
        "sensing_models": [
            {
                "action": "look",
                "readings": [
                    {"token": "lo", "observation": "lo"},
                    {"token": "hi", "observation": "hi"},
                ],
                "table": [{"when": "true", "likelihoods": {"lo": 0.5, "hi": 0.5}}],
            }
        ],
        "initial": [{"state": {"x": 0}, "weight": 1.0}],
        "goal": "true",
    }


@pytest.fixture(scope="session")
def treechop_exact():
    return load_domain(fixture_path("treechop_exact.json"))


@pytest.fixture(scope="session")
def treechop_noisyact():
    return load_domain(fixture_path("treechop_noisyact.json"))


@pytest.fixture(scope="session")
def treechop_noisyact_bel():
    return load_domain(fixture_path("treechop_noisyact_bel.json"))


@pytest.fixture(scope="session")
def treechop_metal():
    return load_domain(fixture_path("treechop_metal.json"))


@pytest.fixture(scope="session")
def treechop_noisy():
    return load_domain(fixture_path("treechop_noisy.json"))


@pytest.fixture(scope="session")
def fig4_pickup():
    return load_domain(fixture_path("fig4_pickup.json"))


@pytest.fixture(scope="session")
def fig1():
    return load_controller(fixture_path("fig1.json"))


@pytest.fixture(scope="session")
def fig3():
    return load_controller(fixture_path("fig3.json"))


@pytest.fixture(scope="session")
def fig4():
    return load_controller(fixture_path("fig4.json"))
