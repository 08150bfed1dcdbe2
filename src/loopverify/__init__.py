"""Verification, simulation, and bounded synthesis for finite-state
plans over finite-domain action theories with noisy acting and sensing.
"""

from .belief import (
    BeliefAnnihilated,
    BeliefState,
    ObservationImpossible,
    bel,
    condition,
    eval_goal,
    initial_belief,
    progress,
)
from .controller import (
    Controller,
    ControllerError,
    enumerate_controllers,
    export_dot,
    from_json_dict,
    load_controller,
    to_json_dict,
    validate,
)
from .exec_epistemic import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
    verify_epistemic,
)
from .exec_exact import (
    Config,
    Verdict,
    VerifierInputError,
    successors,
    verify_exact,
    verify_goal_mass,
    verify_termination,
    verify_weak,
    verify_weight_threshold,
)
from .formulas import FormulaError, parse_condition, parse_objective
from .montecarlo import SimReport, absorption_probability, simulate
from .synth import CriterionError, SynthResult, parse_criterion, synthesize
from .theory import (
    NULL_OBSERVATION,
    Domain,
    DomainError,
    WorldState,
    load_domain,
    parse_domain,
    world_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefAnnihilated",
    "BeliefState",
    "Config",
    "Controller",
    "ControllerError",
    "CriterionError",
    "Domain",
    "DomainError",
    "FormulaError",
    "NULL_OBSERVATION",
    "ObservationImpossible",
    "ScenarioError",
    "SimReport",
    "SynthResult",
    "Verdict",
    "VerifierInputError",
    "WorldState",
    "absorption_probability",
    "bel",
    "condition",
    "enumerate_controllers",
    "eval_goal",
    "export_dot",
    "from_json_dict",
    "initial_belief",
    "load_controller",
    "load_domain",
    "load_scenario",
    "parse_condition",
    "parse_criterion",
    "parse_domain",
    "parse_objective",
    "parse_scenario",
    "progress",
    "run_scenario",
    "simulate",
    "successors",
    "synthesize",
    "to_json_dict",
    "validate",
    "verify_epistemic",
    "verify_exact",
    "verify_goal_mass",
    "verify_termination",
    "verify_weak",
    "verify_weight_threshold",
    "world_from_dict",
    "__version__",
]
