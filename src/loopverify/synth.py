"""Bounded synthesis: scan canonically enumerated controllers for ones
that satisfy a correctness criterion.

The candidate stream is fixed by enumerate_controllers and candidates
are checked one at a time in stream order, so for a given domain,
criterion, and max_states the solutions and their order are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .controller import enumerate_controllers
from .exec_epistemic import DEFAULT_DEPTH_BOUND, verify_epistemic
from .exec_exact import (
    Verdict,
    verify_exact,
    verify_goal_mass,
    verify_termination,
    verify_weak,
    verify_weight_threshold,
)
from .theory import Domain


class CriterionError(ValueError):
    pass


def _weak_and_terminating(controller, domain: Domain) -> Verdict:
    """def6, then termination only where def6 holds."""
    weak = verify_weak(controller, domain)
    if weak.status != "Holds":
        return weak
    termination = verify_termination(controller, domain)
    if termination.status != "Holds":
        return termination
    return Verdict("Holds", witnesses=weak.witnesses, note="both criteria hold")


# the fixed criterion tokens and their checkers, in the order the error
# for an unknown token lists them; the exec_exact checkers are looked up
# when called, so a wrapper put on this module's names sees every check
_CHECKERS = {
    "def4": lambda c, d: verify_exact(c, d),
    "def6": lambda c, d: verify_weak(c, d),
    "termination": lambda c, d: verify_termination(c, d),
    "def6+termination": _weak_and_terminating,
}
CRITERIA = (
    *_CHECKERS, "weight:K", "mass:K", "def9", "def9:existential", "def9:adversarial"
)


def parse_criterion(
    token: str,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
    poss_mode: str = "belief",
    real_mode: str = "outcome",
) -> tuple[str, Callable]:
    """Map a criterion token to (canonical name, checker).

    The checker has signature (controller, domain) -> Verdict. The
    recognized tokens are listed in CRITERIA.
    """
    if depth_bound < 0:
        raise CriterionError(f"depth bound must be at least 0, got {depth_bound}")
    token = token.strip()
    if token in _CHECKERS:
        return token, _CHECKERS[token]
    if token.startswith("weight:") or token.startswith("mass:"):
        kind, _, raw = token.partition(":")
        try:
            kappa = float(raw)
        except ValueError:
            raise CriterionError(
                f"criterion {token!r} needs a numeric threshold"
            ) from None
        if kappa != kappa:  # every comparison with NaN is false
            raise CriterionError(f"criterion {token!r} has a NaN threshold")
        if kind == "weight":
            return token, lambda c, d: verify_weight_threshold(c, d, kappa)
        return token, lambda c, d: verify_goal_mass(c, d, kappa)
    if token == "def9" or token.startswith("def9:"):
        mode = token.partition(":")[2] or "existential"
        if mode not in ("existential", "adversarial"):
            raise CriterionError(f"unknown def9 mode {mode!r}")

        def epistemic(c, d):
            return verify_epistemic(
                c,
                d,
                mode=mode,
                depth_bound=depth_bound,
                poss_mode=poss_mode,
                real_mode=real_mode,
            )

        return f"def9:{mode}", epistemic
    raise CriterionError(
        f"unknown criterion {token!r}; expected one of {', '.join(CRITERIA)}"
    )


@dataclass
class SynthResult:
    criterion: str
    max_states: int
    searched: int
    solutions: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.solutions)


def synthesize(
    domain: Domain,
    criterion: str,
    max_states: int,
    limit: int = 1,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
    poss_mode: str = "belief",
    real_mode: str = "outcome",
) -> SynthResult:
    """Scan the canonical candidate stream and collect controllers whose
    verdict is Holds, up to `limit`. Unknown never counts as a hit.
    """
    if max_states < 1:
        raise CriterionError("max_states must be at least 1")
    if limit < 1:
        raise CriterionError("limit must be at least 1")
    name, checker = parse_criterion(criterion, depth_bound, poss_mode, real_mode)
    result = SynthResult(criterion=name, max_states=max_states, searched=0)
    for candidate in enumerate_controllers(domain, max_states):
        result.searched += 1
        verdict = checker(candidate, domain)
        if verdict.status == "Holds":
            result.solutions.append(candidate)
            result.verdicts.append(verdict)
            if len(result.solutions) >= limit:
                break
    return result
