"""Property test of the CLI exit contract on mutated fixture files.

One field of a fixture domain, controller or scenario is replaced by an
arbitrary JSON value or deleted, and `verify`, `trace` and `export` run
in-process on the result. Each run must exit 0, 1 or 2, or exit 3 with
exactly one `error:` line on stderr; an exception escaping `main` fails
the test.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from loopverify.cli import main

from conftest import fixture_path

# (domain, controller, scenario, real world for trace)
CASES = [
    ("treechop_noisyact_bel.json", "fig1.json", "scenario_alpha.json", {"d": 1}),
    ("treechop_noisy.json", "fig3.json", "scenario_gauss.json", {"d": 12}),
]
CRITERIA = (
    "def4", "def6", "termination", "weight:0.3", "mass:0.5", "def9", "def9:adversarial"
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.just(10**400)  # ints no float can hold
    | st.just(-(10**400))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=4,
)


def _load(name):
    with open(fixture_path(name)) as handle:
        return json.load(handle)


def _paths(node, prefix=()):
    """Every path below the root of a JSON document, parents first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_contract(data):
    domain_name, controller_name, scenario_name, real = data.draw(st.sampled_from(CASES))
    documents = {
        "domain": _load(domain_name),
        "controller": _load(controller_name),
        "scenario": _load(scenario_name),
    }
    document = data.draw(st.sampled_from(sorted(documents)))
    path = data.draw(st.sampled_from(list(_paths(documents[document]))))
    parent = documents[document]
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    criterion = data.draw(st.sampled_from(CRITERIA))

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, content in documents.items():
            files[name] = os.path.join(tmp, name + ".json")
            with open(files[name], "w") as handle:
                json.dump(content, handle)  # NaN and Infinity as JSON allows them
        runs = [
            ["verify", files["domain"], files["controller"], "--criterion", criterion,
             "--depth-bound", "8"],
            ["trace", files["domain"], files["controller"], "--scenario", files["scenario"],
             "--real", json.dumps(real)],
            ["export", files["controller"]],
        ]
        for argv in runs:
            code, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv[0], code)
            if code == 3:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
