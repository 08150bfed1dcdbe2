"""The CLI's JSON text: exactly what `json.dumps(doc, sort_keys=True,
indent=2)` writes, for the private writer on generated values and for
every command's output on the fixtures."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopverify.cli import _dumps, main
from loopverify.montecarlo import SimReport

from conftest import fixture_path


def reference(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2)


# strings the escaper must treat specially, beside generated text
awkward_text = st.one_of(
    st.text(),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x1F)),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x7fé \U0001f600\ud800')),
)
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=10**20, max_value=10**60),
    st.integers(max_value=-(10**20), min_value=-(10**60)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, awkward_text)
# keys of one dict must be mutually orderable, as sort_keys sorts them
key_sets = st.sampled_from(
    [
        awkward_text,
        st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False)),
        st.none(),
    ]
)


@st.composite
def dicts(draw, values):
    keys = draw(key_sets)
    return draw(st.dictionaries(keys, values, max_size=4))


documents = st.recursive(
    scalars | st.just({}) | st.just([]) | st.just(()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        dicts(children),
    ),
    max_leaves=20,
)


@st.composite
def sharing_documents(draw):
    """A document whose containers include one object at several places:
    twice at one nesting level and at two other levels."""
    shared = draw(st.one_of(st.lists(documents, max_size=3), dicts(documents)))
    outer = draw(documents)
    return {"a": shared, "b": [shared, {"c": [shared]}], "d": shared, "e": outer}


@settings(max_examples=200, deadline=None, database=None)
@given(documents)
def test_writer_matches_json_dumps(document):
    assert _dumps(document) == reference(document)


@settings(max_examples=100, deadline=None, database=None)
@given(sharing_documents())
def test_writer_matches_json_dumps_on_shared_objects(document):
    assert _dumps(document) == reference(document)


@settings(max_examples=50, deadline=None, database=None)
@given(
    st.text(),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
    st.integers(min_value=0, max_value=2),
)
def test_writer_rejects_mixed_keys_like_json_dumps(text_key, other_key, depth):
    document = {text_key: 1, other_key: 2}
    for _ in range(depth):
        document = [{"x": document}]
    with pytest.raises(TypeError):
        reference(document)
    with pytest.raises(TypeError):
        _dumps(document)


def test_writer_rejects_what_json_dumps_rejects():
    for document in ({(1, 2): 0}, [{1, 2}], {"x": object()}):
        with pytest.raises(TypeError):
            reference(document)
        with pytest.raises(TypeError):
            _dumps(document)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_canonical(out: str):
    assert out == reference(json.loads(out)) + "\n"


def fixture_verify_cases():
    with open(fixture_path("expected.json")) as handle:
        table = json.load(handle)
    return [
        (domain, entry["controller"], criterion)
        for domain, entry in table.items()
        for criterion in entry["verdicts"]
    ]


@pytest.mark.parametrize("domain,controller,criterion", fixture_verify_cases())
def test_verify_json_is_canonical_on_every_fixture(capsys, domain, controller, criterion):
    _code, out = run_cli(
        capsys,
        "verify",
        fixture_path(domain),
        fixture_path(controller),
        "--criterion",
        criterion,
        "--json",
    )
    assert_canonical(out)


TRACE_ARGV = (
    "trace",
    fixture_path("treechop_noisyact_bel.json"),
    fixture_path("fig1.json"),
    "--scenario",
    fixture_path("scenario_alpha.json"),
    "--real",
    '{"d": 1}',
    "--json",
)


def test_trace_file_equals_stdout(capsys, tmp_path):
    record = tmp_path / "steps.json"
    for extra in ((), ("--trace-particles",)):
        code, out = run_cli(capsys, *TRACE_ARGV, *extra, "--trace", str(record))
        assert code == 0
        assert_canonical(out)
        assert record.read_bytes() == out.encode()


def test_simulate_synthesize_and_export_json_are_canonical(capsys, tmp_path):
    _code, out = run_cli(
        capsys,
        "simulate",
        fixture_path("treechop_noisyact_bel.json"),
        fixture_path("fig1.json"),
        "--runs",
        "200",
        "--seed",
        "3",
        "--track-belief",
        "--json",
    )
    assert_canonical(out)
    out_dir = tmp_path / "found"
    code, out = run_cli(
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
    assert_canonical(out)
    assert_canonical((out_dir / "controller_0.json").read_text())
    code, out = run_cli(capsys, "export", fixture_path("fig4.json"), "--format", "json")
    assert code == 0
    assert_canonical(out)


def test_simulate_json_is_the_report_and_its_command(capsys):
    code = main([
        "simulate", fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
        "--runs", "10", "--seed", "0", "--json",
    ])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    fields = [f.name for f in dataclasses.fields(SimReport)]
    assert sorted(document) == sorted(["command", *fields])
    assert document["command"] == "simulate"


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_json_bytes_do_not_depend_on_the_hash_seed():
    # equal inputs give byte-equal output, whatever order sets and dicts
    # keyed by strings take under a different PYTHONHASHSEED
    commands = [
        ["verify", fixture_path("treechop_noisyact.json"), fixture_path("fig1.json"),
         "--criterion", "def6"],
        ["verify", fixture_path("treechop_noisyact_bel.json"), fixture_path("fig1.json"),
         "--criterion", "def9"],
        ["trace", fixture_path("treechop_noisyact_bel.json"), fixture_path("fig1.json"),
         "--scenario", fixture_path("scenario_alpha.json"), "--real", '{"d": 1}',
         "--trace-particles"],
        ["synthesize", fixture_path("fig4_pickup.json"), "--criterion", "def9",
         "--max-states", "2"],
    ]
    for argv in commands:
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "loopverify.cli", *argv, "--json"],
                stdout=subprocess.PIPE,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC},
            )
            for seed in ("0", "1")
        ]
        outputs = [child.communicate(timeout=60)[0] for child in children]
        assert outputs[0], argv
        assert outputs[0] == outputs[1], argv
