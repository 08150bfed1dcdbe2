import json
import os
import subprocess
import sys

import pytest

import loopverify.synth as synth
from loopverify.cli import main

from conftest import FIXTURES, fixture_path, look_domain_data

STATUS_EXIT = {"Holds": 0, "Fails": 1, "Unknown": 2}

# an int too large for a float, so no name, weight or value
PAST_FLOAT = 10**400


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_holds_exit_zero(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        fixture_path("treechop_exact.json"),
        fixture_path("fig1.json"),
        "--criterion",
        "def4",
    )
    assert code == 0
    assert "Holds" in out
    assert err == ""


def test_verify_exit_codes_follow_sidecar(capsys):
    with open(fixture_path("expected.json")) as handle:
        table = json.load(handle)
    for domain_file, entry in table.items():
        for criterion, status in entry["verdicts"].items():
            code, out, _err = run_cli(
                capsys,
                "verify",
                fixture_path(domain_file),
                fixture_path(entry["controller"]),
                "--criterion",
                criterion,
            )
            assert code == STATUS_EXIT[status], (domain_file, criterion)
            assert status in out


def test_usage_errors_exit_three(capsys):
    # exit 2 is reserved for Unknown verdicts, so argparse failures remap to 3
    cases = [
        ["simulate", fixture_path("treechop_noisyact.json"),
         fixture_path("fig1.json"), "--runs", "abc", "--seed", "0"],
        ["verify", fixture_path("treechop_exact.json")],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 3, argv
        capsys.readouterr()


def test_verify_json_document(capsys):
    code, out, _err = run_cli(
        capsys,
        "verify",
        fixture_path("treechop_metal.json"),
        fixture_path("fig1.json"),
        "--criterion",
        "mass:0.81",
        "--json",
    )
    assert code == 1
    document = json.loads(out)
    assert document["criterion"] == "mass:0.81"
    assert document["status"] == "Fails"
    assert "counterexample_world" in document


def test_verify_json_is_byte_stable(capsys):
    argv = (
        "verify",
        fixture_path("treechop_noisyact.json"),
        fixture_path("fig1.json"),
        "--criterion",
        "def6",
        "--json",
    )
    _code, first, _err = run_cli(capsys, *argv)
    _code, second, _err = run_cli(capsys, *argv)
    assert first == second


def test_verify_strict_rejects_partial_controller(capsys):
    code, _out, err = run_cli(
        capsys,
        "verify",
        fixture_path("treechop_exact.json"),
        fixture_path("fig1.json"),
        "--criterion",
        "def4",
        "--strict",
    )
    assert code == 3
    assert "error:" in err


def test_verify_unknown_criterion_lists_tokens(capsys):
    # a bad criterion is an input error with one line of text. NaN is one:
    # every comparison with it is false, so it would decide no world. The
    # infinities are thresholds and keep their verdicts
    domain, controller = fixture_path("treechop_metal.json"), fixture_path("fig1.json")
    synth_argv = ["synthesize", domain, "--max-states", "1", "--criterion"]
    for argv, expected, shown in (
        (["verify", domain, controller, "--criterion", "def99"], 3, ("def4", "mass:")),
        (["verify", domain, controller, "--criterion", "weight:nan"], 3, ("NaN",)),
        (["verify", domain, controller, "--criterion", "mass:nan"], 3, ("NaN",)),
        (synth_argv + ["weight:nan"], 3, ("NaN",)),
        (synth_argv + ["mass:NaN"], 3, ("NaN",)),
        (["verify", domain, controller, "--criterion", "weight:inf"], 0, ()),
        (["verify", domain, controller, "--criterion", "weight:-inf"], 1, ()),
        (["verify", domain, controller, "--criterion", "mass:inf"], 1, ()),
        (["verify", domain, controller, "--criterion", "mass:-inf"], 0, ()),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected, argv
        if expected == 3:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert all(text in err for text in shown), err


@pytest.mark.parametrize(
    "document, path, value",
    [
        ("domain", ["initial"], [1]),
        ("domain", ["outcome_models"], [1]),
        ("domain", ["outcome_models"], [{"intended": "chop", "outcomes": [1]}]),
        ("domain", ["sensing_models"], [1]),
        ("domain", ["sensing_models", 0, "readings"], [1]),
        ("domain", ["sensing_models", 0, "readings", 0], {"observation": "down"}),
        ("domain", ["sensing_models", 0, "table"], [1]),
        ("domain", ["actions", 0, "effects"], [1]),
        ("domain", ["initial", 0, "weight"], float("nan")),
        ("domain", ["initial", 0, "weight"], float("inf")),
        ("domain", ["initial", 0, "weight"], True),
        ("domain", ["sensing_models", 0, "readings", 0, "value"], float("nan")),
        ("domain", ["sensing_models", 0, "table", 0, "likelihoods", "down"], float("inf")),
        (
            "domain",
            ["outcome_models"],
            [{"intended": "chop", "outcomes": [{"actual": "chop", "likelihood": float("nan")}]}],
        ),
        ("domain", ["actions", 0, "effects"], 1),
        ("domain", ["actions", 0, "effects"], True),
        ("domain", ["actions", 0, "effects"], None),
        ("domain", ["sensing_models", 0, "readings"], 2.5),
        ("domain", ["sensing_models", 0, "readings"], False),
        ("domain", ["sensing_models", 0, "readings"], None),
        ("domain", ["sensing_models", 0, "table"], 0),
        ("domain", ["sensing_models", 0, "table"], True),
        ("domain", ["sensing_models", 0, "table"], None),
        ("domain", ["fluents", 0, "name"], {}),
        ("domain", ["actions", 0, "name"], {"name": "chop"}),
        ("domain", ["sensing_models", 0, "action"], {}),
        ("domain", ["actions", 0, "effects", 0, "fluent"], {}),
        ("domain", ["actions", 0, "effects", 0, "clamp"], "false"),
        (
            "domain",
            ["sensing_models", 0, "readings"],
            [
                {"token": "down", "observation": "down"},
                {"token": "up", "observation": "up"},
                {"token": "never", "observation": None},
            ],
        ),
        (
            "domain",
            ["sensing_models", 0],
            {
                "action": "getd",
                "readings": [{"token": None, "observation": "down"}, {"token": "up"}],
                "table": [
                    {"when": "(= d 0)", "likelihoods": {"None": 1.0}},
                    {"when": "true", "likelihoods": {"up": 1.0}},
                ],
            },
        ),
        (
            "domain",
            ["actions"],
            [
                {
                    "name": "chop",
                    "precondition": "(>= d 1)",
                    "effects": [{"fluent": "d", "value": "(- d 1)"}],
                },
                {"name": "getd", "kind": "sensing"},
                {"name": True},
            ],
        ),
        # "down" is symbolic, so its value defaults to its ordinal, 0
        ("domain", ["sensing_models", 0, "readings", 1, "value"], 0),
        # "1" denotes 1.0 and "x", the second reading, gets the ordinal 1.0
        (
            "domain",
            ["sensing_models", 0],
            {
                "action": "getd",
                "readings": [{"token": "1"}, {"token": "x"}],
                "table": [{"when": "true", "likelihoods": {"1": 0.2, "x": 0.8}}],
            },
        ),
        ("domain", ["name"], [1]),
        ("domain", ["notes"], {"text": "x"}),
        ("scenario", [0, "actual_outcome"], [1]),
        ("scenario", [0, "actual_outcome"], {"actual": "chop"}),
        ("scenario", [0, "advised_action"], None),
        ("scenario", [1, "reading"], ["up"]),
        ("scenario", [1, "reading"], True),
        ("domain", ["actions", 1, "name"], PAST_FLOAT),
        ("domain", ["initial", 0, "weight"], PAST_FLOAT),
        (
            "domain",
            ["outcome_models"],
            [{"intended": "chop", "outcomes": [{"actual": "chop", "likelihood": PAST_FLOAT}]}],
        ),
        ("domain", ["sensing_models", 0, "readings", 1, "value"], PAST_FLOAT),
        ("domain", ["sensing_models", 0, "table", 1, "likelihoods", "up"], PAST_FLOAT),
        (
            "domain",
            ["sensing_models", 0],
            {
                "action": "getd",
                "readings": [{"token": "down"}, {"token": "up"}],
                "gaussian": {"mean_fluent": "d", "variance": PAST_FLOAT},
            },
        ),
        ("scenario", [0, "advised_action"], PAST_FLOAT),
        ("scenario", [0, "actual_outcome"], -PAST_FLOAT),
        ("scenario", [1, "reading"], PAST_FLOAT),
    ],
    ids=[
        "initial-entry",
        "outcome-model-entry",
        "outcome-entry",
        "sensing-model-entry",
        "reading-entry",
        "reading-token",
        "sensor-row",
        "effect-entry",
        "weight-nan",
        "weight-infinity",
        "weight-bool",
        "reading-value-nan",
        "sensor-likelihood-infinity",
        "outcome-likelihood-nan",
        "effects-number",
        "effects-bool",
        "effects-null",
        "readings-number",
        "readings-bool",
        "readings-null",
        "table-number",
        "table-bool",
        "table-null",
        "fluent-name-object",
        "action-name-object",
        "sensing-action-object",
        "effect-fluent-object",
        "clamp-string",
        "reading-observation-null",
        "reading-token-null",
        "action-name-bool",
        "reading-values-shared",
        "reading-default-values-shared",
        "domain-name-list",
        "notes-object",
        "scenario-outcome-list",
        "scenario-outcome-object",
        "scenario-action-null",
        "scenario-reading-list",
        "scenario-reading-bool",
        "action-name-past-float",
        "weight-past-float",
        "outcome-likelihood-past-float",
        "reading-value-past-float",
        "sensor-likelihood-past-float",
        "variance-past-float",
        "scenario-action-past-float",
        "scenario-outcome-past-float",
        "scenario-reading-past-float",
    ],
)
def test_malformed_domain_entries_exit_three(capsys, tmp_path, document, path, value):
    # the mutated document is a domain file, or the scenario file `trace` reads
    source = {"domain": "treechop_exact.json", "scenario": "scenario_alpha.json"}
    with open(fixture_path(source[document])) as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    mutated = tmp_path / f"{document}.json"
    mutated.write_text(json.dumps(data))  # NaN and Infinity as JSON allows them
    fig1 = fixture_path("fig1.json")
    if document == "domain":
        runs = [["verify", str(mutated), fig1, "--criterion", c] for c in ("def6", "mass:0.5")]
    else:
        runs = [
            ["trace", fixture_path("treechop_noisyact_bel.json"), fig1,
             "--scenario", str(mutated), "--real", '{"d": 1}']
        ]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (["states"], [[0], 1, 2]),
        (["initial"], [0]),
        (["final"], {}),
        (["advice", "0"], ["chop"]),
        (["transitions", 0, 0], [0]),
        (["transitions", 0, 1], ["0"]),
        (["transitions", 0, 2], [1]),
        (["transitions", 0, 2], 7),
        (["transitions", 0, 2], True),
        (["transitions", 0, 2], 1.0),
        (["initial"], True),
        (["advice", "7"], "chop"),
        (["name"], [1]),
        (["states"], [0, 1, 2, PAST_FLOAT]),
        (["advice", "1"], PAST_FLOAT),
        (["transitions", 0, 1], -PAST_FLOAT),
    ],
    ids=[
        "nested-state",
        "initial-list",
        "final-object",
        "advice-list",
        "transition-source-list",
        "transition-observation-list",
        "transition-target-list",
        "transition-target-undeclared",
        "transition-target-true",
        "transition-target-float",
        "initial-true",
        "advice-key-undeclared",
        "name-list",
        "state-past-float",
        "advice-past-float",
        "transition-observation-past-float",
    ],
)
def test_malformed_controller_entries_exit_three(capsys, tmp_path, path, value):
    with open(fixture_path("fig1.json")) as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    controller = tmp_path / "controller.json"
    controller.write_text(json.dumps(data))
    domain = fixture_path("treechop_noisyact.json")
    for argv in (
        ["verify", domain, str(controller), "--criterion", "def6"],
        ["simulate", domain, str(controller), "--runs", "5", "--seed", "0"],
        ["export", str(controller)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _two_wide_fluents(effect: str) -> dict:
    """A domain whose chop reads and writes two 100-value fluents, too
    many assignments for the parse-time range check of its effect."""
    with open(fixture_path("treechop_exact.json")) as handle:
        data = json.load(handle)
    data["fluents"] = [{"name": "d", "range": [0, 99]}, {"name": "e", "range": [0, 99]}]
    data["actions"][0].update(precondition="true", effects=[{"fluent": "d", "value": effect}])
    data["initial"] = [{"state": {"d": 5, "e": 0}}]
    return data


@pytest.mark.parametrize(
    "where, value, exit_code",
    [
        ("initial", True, 3),
        ("initial", 2.5, 3),
        ("initial", "1", 3),
        ("initial", 1.0, 0),
        ("real", True, 3),
        ("real", 2.5, 3),
        ("real", "1", 3),
        ("real", 1.0, 0),
        ("effect", "(- d 1)", 3),  # refused when the domain is parsed
        ("wide-effect", "(- e 1)", 3),  # refused when chop runs at e = 0
        ("wide-effect", "(* e 0)", 0),
    ],
)
def test_every_way_a_fluent_value_enters(capsys, tmp_path, where, value, exit_code):
    # a fluent value enters through an initial world, the --real world of
    # `trace`, or an effect; each must be a declared value, and 1.0 reads as 1
    name = "treechop_noisyact_bel.json" if where == "real" else "treechop_noisyact.json"
    fixture = fixture_path(name)
    with open(fixture) as handle:
        data = json.load(handle)
    if where == "initial":
        data["initial"][0]["state"]["d"] = value
    elif where == "effect":
        data["actions"][0]["effects"] = [{"fluent": "d", "value": value}]  # no clamp
    elif where == "wide-effect":
        data = _two_wide_fluents(value)
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps(data))
    fig1 = fixture_path("fig1.json")
    if where == "real":
        argv = [
            "trace", str(domain), fig1, "--scenario", fixture_path("scenario_alpha.json"),
            "--real", json.dumps({"d": value}), "--json",
        ]
    else:
        argv = ["verify", str(domain), fig1, "--criterion", "def6", "--json"]
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code
    if exit_code == 3:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    elif where != "wide-effect":
        # the same bytes as the fixture read with the integer 1
        argv[1] = fixture
        if where == "real":
            argv[argv.index("--real") + 1] = '{"d": 1}'
        assert run_cli(capsys, *argv) == (code, out, err)
        assert "1.0" not in out


def test_directory_path_is_input_error(capsys, tmp_path):
    domain, controller = fixture_path("treechop_noisyact_bel.json"), fixture_path("fig1.json")
    for argv in (
        ["verify", str(tmp_path), controller, "--criterion", "def4"],
        ["verify", domain, str(tmp_path), "--criterion", "def4"],
        ["trace", domain, controller, "--scenario", str(tmp_path), "--real", '{"d": 1}'],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_engine_faults_are_not_input_errors(monkeypatch):
    # a ValueError that is not one of the package's input errors is a
    # fault of the program, so it must not be reported as exit 3
    def broken(_controller, _domain):
        raise ValueError("engine fault")

    monkeypatch.setattr(synth, "verify_weak", broken)
    with pytest.raises(ValueError, match="engine fault"):
        main(
            ["verify", fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
             "--criterion", "def6"]
        )


def test_negative_depth_bound_is_input_error(capsys):
    domain = fixture_path("treechop_noisyact_bel.json")
    for argv in (
        ["verify", domain, fixture_path("fig1.json"), "--criterion", "def9"],
        ["verify", domain, fixture_path("fig1.json"), "--criterion", "def9:adversarial"],
        ["synthesize", fixture_path("fig4_pickup.json"), "--criterion", "def9",
         "--max-states", "2"],
    ):
        code, out, err = run_cli(capsys, *argv, "--depth-bound", "-1")
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, _out, _err = run_cli(capsys, *argv, "--depth-bound", "0")
        assert code == (2 if argv[0] == "verify" else 1), argv  # Unknown is no hit


def test_missing_file_is_input_error(capsys):
    code, _out, err = run_cli(
        capsys,
        "verify",
        fixture_path("no_such_domain.json"),
        fixture_path("fig1.json"),
        "--criterion",
        "def4",
    )
    assert code == 3
    assert "error:" in err


def test_trace_scenario_alpha(capsys, tmp_path):
    record = tmp_path / "steps.json"
    code, out, _err = run_cli(
        capsys,
        "trace",
        fixture_path("treechop_noisyact_bel.json"),
        fixture_path("fig1.json"),
        "--scenario",
        fixture_path("scenario_alpha.json"),
        "--real",
        '{"d": 1}',
        "--trace",
        str(record),
    )
    assert code == 0
    assert "final control=2" in out
    document = json.loads(record.read_text())
    assert document["status"] == "Holds"
    assert len(document["steps"]) == 4
    final_belief = document["final"]["belief"]
    assert final_belief == [{"state": {"d": 0}, "weight": pytest.approx(0.09)}]


def test_trace_names_a_numeric_action(capsys, tmp_path):
    # the domain declares the action 7, a number, with the outcomes 7 and
    # 8, and so do the advice and the scenario
    files = {
        "domain": {
            "fluents": [{"name": "x", "range": [0, 1]}],
            "actions": [
                {"name": name, "effects": [{"fluent": "x", "value": "1"}]}
                for name in (7, 8)
            ],
            "outcome_models": [
                {"intended": 7, "outcomes": [
                    {"actual": 7, "likelihood": 0.5}, {"actual": 8, "likelihood": 0.5},
                ]},
            ],
            "initial": [{"state": {"x": 0}, "weight": 1.0}],
            "goal": "(= x 1)",
        },
        "controller": {
            "states": [0, 1], "initial": 0, "final": 1,
            "advice": {"0": 7}, "transitions": [[0, "0", 1]],
        },
        "scenario": [{"advised_action": 7}],
    }
    for name, document in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    argv = ["trace", str(tmp_path / "domain.json"), str(tmp_path / "controller.json"),
            "--scenario", str(tmp_path / "scenario.json"), "--real", '{"x": 0}']
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "verdict: Holds" in out
    # the string "7" names no declared action
    (tmp_path / "scenario.json").write_text(json.dumps([{"advised_action": "7"}]))
    code, _out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == "error: scenario advises '7' but the controller advises 7 at 0\n"
    # an outcome is matched by type and value too
    (tmp_path / "scenario.json").write_text(
        json.dumps([{"advised_action": 7, "actual_outcome": 8}])
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "verdict: Holds" in out
    (tmp_path / "scenario.json").write_text(
        json.dumps([{"advised_action": 7, "actual_outcome": 8.0}])
    )
    code, _out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == "error: 8.0 is not a positive-likelihood outcome of 7\n"


def test_trace_json_mode(capsys):
    code, out, _err = run_cli(
        capsys,
        "trace",
        fixture_path("treechop_noisyact_bel.json"),
        fixture_path("fig1.json"),
        "--scenario",
        fixture_path("scenario_alpha.json"),
        "--real",
        '{"d": 1}',
        "--json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["status"] == "Holds"
    observations = [step["observation"] for step in document["steps"]]
    assert observations == ["0", "up", "0", "down"]


def test_trace_particles_flag(capsys):
    code, out, _err = run_cli(
        capsys,
        "trace",
        fixture_path("treechop_noisyact_bel.json"),
        fixture_path("fig1.json"),
        "--scenario",
        fixture_path("scenario_alpha.json"),
        "--real",
        '{"d": 1}',
        "--json",
        "--trace-particles",
    )
    assert code == 0
    document = json.loads(out)
    first = document["steps"][0]["belief"]
    assert any(entry["tag"].endswith("chop_noop") for entry in first)


def test_trace_bad_real_world(capsys):
    code, _out, err = run_cli(
        capsys,
        "trace",
        fixture_path("treechop_noisyact_bel.json"),
        fixture_path("fig1.json"),
        "--scenario",
        fixture_path("scenario_alpha.json"),
        "--real",
        '{"d": 99}',
    )
    assert code == 3
    assert "error:" in err


def test_simulate_report(capsys):
    code, out, _err = run_cli(
        capsys,
        "simulate",
        fixture_path("treechop_noisyact.json"),
        fixture_path("fig1.json"),
        "--runs",
        "2000",
        "--seed",
        "11",
        "--step-cap",
        "25",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["runs"] == 2000
    assert report["seed"] == 11
    assert 0.9 < report["success_rate"] <= 1.0
    assert report["step_cap"] == 25


def test_simulate_same_seed_same_output(capsys):
    argv = (
        "simulate",
        fixture_path("treechop_noisyact.json"),
        fixture_path("fig1.json"),
        "--runs",
        "1000",
        "--seed",
        "5",
        "--json",
    )
    _code, first, _err = run_cli(capsys, *argv)
    _code, second, _err = run_cli(capsys, *argv)
    assert first == second


def test_synthesize_writes_solutions(capsys, tmp_path):
    out_dir = tmp_path / "found"
    code, out, _err = run_cli(
        capsys,
        "synthesize",
        fixture_path("treechop_exact.json"),
        "--criterion",
        "def4",
        "--max-states",
        "3",
        "--out-dir",
        str(out_dir),
        "--json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["found"] == 1
    files = sorted(os.listdir(out_dir))
    assert files == ["controller_0.json"]
    with open(out_dir / "controller_0.json") as handle:
        solution = json.load(handle)
    with open(fixture_path("fig1.json")) as handle:
        reference = json.load(handle)
    reference.pop("name", None)
    assert solution == reference


def test_synthesize_exit_one_when_empty(capsys):
    code, out, _err = run_cli(
        capsys,
        "synthesize",
        fixture_path("treechop_exact.json"),
        "--criterion",
        "def4",
        "--max-states",
        "2",
        "--json",
    )
    assert code == 1
    assert json.loads(out)["found"] == 0


def test_adversarial_def9_fails_on_a_reading_without_a_transition(capsys, tmp_path):
    # `look` reads "lo" or "hi" with 0.5 each; the controller only moves on "lo"
    domain = tmp_path / "look.json"
    domain.write_text(json.dumps(look_domain_data()))
    controller = tmp_path / "only_lo.json"
    controller.write_text(json.dumps({
        "states": [0, 1], "initial": 0, "final": 1,
        "advice": {"0": "look"}, "transitions": [[0, "lo", 1]],
    }))
    argv = ["verify", str(domain), str(controller), "--json", "--criterion"]
    code, out, _err = run_cli(capsys, *argv, "def9:adversarial")
    assert code == 1
    document = json.loads(out)
    assert document["status"] == "Fails"
    assert document["counterexample_world"] == {"x": 0}
    assert run_cli(capsys, *argv, "def9")[0] == 0


def test_export_dot_and_json(capsys, tmp_path):
    code, out, _err = run_cli(capsys, "export", fixture_path("fig1.json"))
    assert code == 0
    assert out.startswith("digraph")
    target = tmp_path / "fig1.dot"
    code, _out, _err = run_cli(
        capsys, "export", fixture_path("fig1.json"), "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("digraph")
    code, out, _err = run_cli(
        capsys, "export", fixture_path("fig1.json"), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["initial"] == 0


def test_export_dot_escapes_names(capsys, tmp_path):
    # a quote would end a DOT string early, a final backslash escape its end
    controller = tmp_path / "quoted.json"
    controller.write_text(json.dumps({
        "states": [0, "end\\"],
        "initial": 0,
        "final": "end\\",
        "advice": {"0": 'say "hi"'},
        "transitions": [[0, 'x"y', "end\\"]],
    }))
    code, out, _err = run_cli(capsys, "export", str(controller))
    assert code == 0
    assert out.splitlines()[3:] == [
        '  n0 [label="0: say \\"hi\\"", style=bold];',
        '  n1 [label="end\\\\", shape=doublecircle];',
        '  n0 -> n1 [label="x\\"y"];',
        "}",
    ]


def test_export_bad_controller_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _out, err = run_cli(capsys, "export", str(bad))
    assert code == 3
    assert "error:" in err


def assert_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3, argv
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    domain, controller = fixture_path("treechop_noisyact_bel.json"), fixture_path("fig1.json")
    scenario = fixture_path("scenario_alpha.json")
    for argv in (
        ["verify", str(deep), controller, "--criterion", "def4"],
        ["verify", domain, str(deep), "--criterion", "def4"],
        ["trace", domain, controller, "--scenario", str(deep), "--real", '{"d": 1}'],
        ["trace", domain, controller, "--scenario", scenario,
         "--real", "[" * 100000 + "]" * 100000],
    ):
        assert_input_error(capsys, argv)


def test_int_literals_longer_than_the_decoder_reads_are_input_errors(capsys, tmp_path):
    # the JSON decoder refuses an int literal of more digits than
    # sys.get_int_max_str_digits() (4,300 by default) with a ValueError
    huge = "1" + "0" * 5000
    edits = {
        "treechop_noisyact_bel.json": lambda data: data["fluents"][0].update(range=[0, "N"]),
        "fig1.json": lambda data: data["states"].append("N"),
        "scenario_alpha.json": lambda data: data[0].update(advised_action="N"),
    }
    paths = {}
    for name, edit in edits.items():
        with open(fixture_path(name)) as handle:
            data = json.load(handle)
        edit(data)
        paths[name] = tmp_path / name
        paths[name].write_text(json.dumps(data).replace('"N"', huge))
    domain, controller = fixture_path("treechop_noisyact_bel.json"), fixture_path("fig1.json")
    scenario = fixture_path("scenario_alpha.json")
    for argv in (
        ["verify", str(paths["treechop_noisyact_bel.json"]), controller, "--criterion", "def4"],
        ["verify", domain, str(paths["fig1.json"]), "--criterion", "def4"],
        ["trace", domain, controller, "--scenario", str(paths["scenario_alpha.json"]),
         "--real", '{"d": 1}'],
        ["trace", domain, controller, "--scenario", scenario, "--real", '{"d": %s}' % huge],
    ):
        assert_input_error(capsys, argv)


def write_domain(tmp_path, name, edit):
    """A new file holding fixture domain `name` after `edit(data)`."""
    with open(fixture_path(name)) as handle:
        data = json.load(handle)
    edit(data)
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}-{name}"
    path.write_text(json.dumps(data))
    return str(path)


def test_deeply_nested_formulas_are_input_errors(capsys, tmp_path):
    def deep_goal(data):
        data["goal"] = "(not " * 2999 + "(= d 0)" + ")" * 2999

    def deep_precondition(data):
        tree = [">=", "d", 1]
        for _ in range(499):  # 500 levels
            tree = ["not", tree]
        data["actions"][0]["precondition"] = tree

    for edit in (deep_goal, deep_precondition):
        domain = write_domain(tmp_path, "treechop_exact.json", edit)
        assert_input_error(
            capsys, ["verify", domain, fixture_path("fig1.json"), "--criterion", "def4"]
        )


def test_simulate_know_goal_averages_its_content(capsys, tmp_path):
    # the belief averaged into mean_final_bel is that in the content of the
    # goal's first bel atom, else of its first know atom, else in the goal
    def with_goal(goal):
        return write_domain(
            tmp_path, "treechop_noisyact_bel.json", lambda data: data.update(goal=goal)
        )

    fig1 = fixture_path("fig1.json")

    def simulate(domain, *flags):
        code, out, _err = run_cli(
            capsys, "simulate", domain, fig1, "--runs", "300", "--seed", "3", "--json", *flags
        )
        assert code == 0
        return json.loads(out)

    know = with_goal("(know (= d 0))")
    # the sensor is exact, so a run that reaches the final state after a
    # "down" reading knows d = 0; at the default step cap of 330 every run
    # gets there, up to a chance far below 1e-30
    for flags in ((), ("--track-belief",)):
        report = simulate(know, *flags)
        assert report["termination_rate"] == 1.0
        assert report["success_rate"] == 1.0
        assert report["mean_final_bel"] == 1.0
    # at a step cap of 6 some runs stop part way, with part of their belief
    # on d = 0; the know goal, a bel goal and the objective goal (= d 0)
    # all average the belief in (= d 0)
    capped = ("--step-cap", "6")
    reports = [
        simulate(know, *capped),
        simulate(know, *capped, "--track-belief"),
        simulate(with_goal("(> (bel (= d 0)) 0.5)"), *capped),
        simulate(with_goal("(= d 0)"), *capped, "--track-belief"),
    ]
    assert reports[0]["truncated_rate"] > 0.0
    assert len({r["mean_final_bel"] for r in reports}) == 1


def test_action_names_of_mixed_types(capsys, tmp_path):
    # the outcomes of "go" are "go" and 7: exact checks order a config's
    # steps by action name, numbers before strings
    domain = tmp_path / "mixed.json"
    domain.write_text(json.dumps({
        "fluents": [{"name": "x", "range": [0, 1]}],
        "actions": [
            {"name": "go", "effects": [{"fluent": "x", "value": 1}]},
            {"name": 7, "effects": [{"fluent": "x", "value": 1}]},
        ],
        "outcome_models": [{"intended": "go", "outcomes": [
            {"actual": "go", "likelihood": 0.5}, {"actual": 7, "likelihood": 0.5}]}],
        "initial": [{"state": {"x": 0}}],
        "goal": "(= x 1)",
    }))
    controller = tmp_path / "go.json"
    controller.write_text(json.dumps({
        "states": [0, 1], "initial": 0, "final": 1,
        "advice": {"0": "go"}, "transitions": [[0, "0", 1]],
    }))
    for criterion in ("def6", "termination", "def6+termination", "weight:0.5", "mass:0.5"):
        code, out, err = run_cli(
            capsys, "verify", str(domain), str(controller), "--criterion", criterion, "--json"
        )
        assert (code, err) == (0, ""), criterion
        assert json.loads(out)["status"] == "Holds"
    code, out, _err = run_cli(
        capsys, "synthesize", str(domain), "--criterion", "def6", "--max-states", "2", "--json"
    )
    assert code == 0
    assert (json.loads(out)["searched"], json.loads(out)["found"]) == (2, 1)


def test_simulate_seed_must_fit_a_philox_key_word(capsys):
    argv = ["simulate", fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
            "--runs", "10", "--json", "--seed"]
    # 2**64 - 1 used to alias seed 0 and 2**65 to overflow
    for seed in (2**63, 2**64 - 1, 2**65, -(2**63) - 1):
        assert_input_error(capsys, [*argv, str(seed)])
    for seed in (-(2**63), -1, 2**63 - 1):
        code, out, _err = run_cli(capsys, *argv, str(seed))
        assert code == 0 and json.loads(out)["seed"] == seed


def test_simulate_text_report(capsys):
    code, out, err = run_cli(
        capsys, "simulate", fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
        "--runs", "10", "--seed", "0", "--track-belief",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "runs: 10 (seed 0, step cap 330)",
        "success rate: 1.000000 +- 0.000000",
        "termination rate: 1.000000",
        "truncated rate: 0.000000",
        "mean final belief: 1.000000",
    ]


def test_synthesize_text_lists_solutions(capsys):
    code, out, err = run_cli(
        capsys, "synthesize", fixture_path("treechop_exact.json"),
        "--criterion", "def4", "--max-states", "3",
    )
    assert (code, err) == (0, "")
    summary, solution = out.splitlines()
    assert summary.startswith("def4: searched ") and summary.endswith(" candidates, found 1")
    with open(fixture_path("fig1.json")) as handle:
        reference = json.load(handle)
    reference.pop("name", None)
    assert solution == "solution 0: " + json.dumps(reference, sort_keys=True)


def test_exact_checks_catch_noise_past_the_static_limit(capsys, tmp_path):
    # the sensor rows read x and y: 10,000 assignments, past the static
    # check's limit, so the noisy row at the initial world is found when
    # the check steps there
    data = look_domain_data()
    data["fluents"] = [{"name": "x", "range": [0, 99]}, {"name": "y", "range": [0, 99]}]
    data["sensing_models"][0]["table"] = [
        {"when": "(and (= x 0) (= y 0))", "likelihoods": {"lo": 0.5, "hi": 0.5}},
        {"when": "true", "likelihoods": {"lo": 1.0}},
    ]
    data["initial"] = [{"state": {"x": 0, "y": 0}}]
    domain = tmp_path / "wide_look.json"
    domain.write_text(json.dumps(data))
    controller = tmp_path / "look.json"
    controller.write_text(json.dumps({
        "states": [0, 1], "initial": 0, "final": 1,
        "advice": {"0": "look"}, "transitions": [[0, "lo", 1], [0, "hi", 1]],
    }))
    argv = ["verify", str(domain), str(controller), "--criterion", "def6"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "not noise-free" in err
    assert run_cli(capsys, *argv[:-1], "def9")[0] == 0


def test_simulate_tracks_a_belief_through_thousands_of_small_likelihoods(capsys, tmp_path):
    # a one-world loop of Gaussian looks: unscaled, the belief's weight
    # shrinks with every reading until a live reading finds it all 0.0
    data = look_domain_data()
    data["fluents"] = [{"name": "x", "range": [0, 3]}]
    data["sensing_models"][0] = {
        "action": "look",
        "readings": [
            {"token": "a", "value": 0.5, "observation": "seen"},
            {"token": "b", "value": 1.5, "observation": "seen"},
        ],
        "gaussian": {"mean_fluent": "x", "variance": 0.5},
    }
    domain = tmp_path / "loop.json"
    domain.write_text(json.dumps(data))
    controller = tmp_path / "loop_controller.json"
    controller.write_text(json.dumps({
        "states": [0, 1], "initial": 0, "final": 1,
        "advice": {"0": "look"}, "transitions": [[0, "seen", 0]],
    }))
    code, out, _err = run_cli(
        capsys, "simulate", str(domain), str(controller), "--runs", "1", "--seed", "0",
        "--step-cap", "2000", "--track-belief", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["truncated_rate"], report["mean_final_bel"]) == (1.0, 1.0)


def test_range_wider_than_a_machine_word(capsys, tmp_path):
    # 10**19 + 1 values do not fit the ssize_t that len() returns
    def widen(data):
        data["fluents"][0]["range"] = [0, 10**19]

    domain = write_domain(tmp_path, "treechop_exact.json", widen)
    fig1 = fixture_path("fig1.json")
    code, out, _err = run_cli(capsys, "verify", domain, fig1, "--criterion", "def6")
    assert (code, out.splitlines()[0]) == (0, "def6: Holds")
    code, out, _err = run_cli(
        capsys, "simulate", domain, fig1, "--runs", "10", "--seed", "0", "--json"
    )
    assert code == 0
    assert json.loads(out)["step_cap"] == 10 * 3 * (10**19 + 1)


def test_wide_range_loads_in_constant_memory(tmp_path):
    # a range is held as its bounds: the 10**12 values of d never exist
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    with open(fixture_path("treechop_exact.json")) as handle:
        data = json.load(handle)
    data["fluents"][0]["range"] = [0, 10**12]
    data["initial"] = [{"state": {"d": 3}}]
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps(data))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, "-m", "loopverify.cli", "verify", str(domain),
            fixture_path("fig1.json"), "--criterion", "def6"]
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout.splitlines()[0]) == (0, "def6: Holds")
