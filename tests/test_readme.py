import contextlib
import io
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def library_use_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(monkeypatch):
    # the block must run from the repository root as printed, and each
    # print that carries a trailing comment must print that comment
    code = library_use_block()
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    for line, shown in zip(prints, printed):
        if "  # " in line:
            assert shown == line.rsplit("  # ", 1)[1], line


PUBLIC_NAMES = [
    "BeliefAnnihilated", "BeliefState", "Config", "Controller", "ControllerError",
    "CriterionError", "Domain", "DomainError", "FormulaError", "NULL_OBSERVATION",
    "ObservationImpossible", "ScenarioError", "SimReport", "SynthResult", "Verdict",
    "VerifierInputError", "WorldState", "__version__", "absorption_probability",
    "bel", "condition", "enumerate_controllers", "eval_goal", "export_dot",
    "from_json_dict", "initial_belief", "load_controller", "load_domain",
    "load_scenario", "parse_condition", "parse_criterion", "parse_domain",
    "parse_objective", "parse_scenario", "progress", "run_scenario", "simulate",
    "successors", "synthesize", "to_json_dict", "validate", "verify_epistemic",
    "verify_exact", "verify_goal_mass", "verify_termination", "verify_weak",
    "verify_weight_threshold", "world_from_dict",
]


def test_public_names_are_pinned():
    # adding or removing a public name must show up as a diff here
    import loopverify

    assert sorted(loopverify.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 48
    namespace = {}
    exec("from loopverify import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(loopverify, name), name
