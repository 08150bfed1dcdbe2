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
from .exec_epistemic import verify_epistemic
from .exec_exact import (
    Verdict,
    verify_exact,
    verify_goal_mass,
    verify_termination,
    verify_weak,
    verify_weight_threshold,
)
from .theory import Domain

CRITERIA = (
    "def4",
    "def6",
    "termination",
    "def6+termination",
    "weight:K",
    "mass:K",
    "def9",
    "def9:existential",
    "def9:adversarial",
)


class CriterionError(ValueError):
    pass


def _combined(first: Verdict, second: Verdict) -> Verdict:
    for verdict in (first, second):
        if verdict.status != "Holds":
            return verdict
    return Verdict(
        status="Holds",
        witnesses=first.witnesses or second.witnesses,
        note="both criteria hold",
    )


def parse_criterion(
    token: str,
    depth_bound: int = 64,
    poss_mode: str = "belief",
    real_mode: str = "outcome",
) -> tuple[str, Callable]:
    """Map a criterion token to (canonical name, checker).

    The checker has signature (controller, domain) -> Verdict.
    Recognized tokens: def4, def6, termination, def6+termination,
    weight:K, mass:K, def9, def9:existential, def9:adversarial.
    """
    if depth_bound < 0:
        raise CriterionError(f"depth bound must be at least 0, got {depth_bound}")
    token = token.strip()
    if token == "def4":
        return "def4", verify_exact
    if token == "def6":
        return "def6", verify_weak
    if token == "termination":
        return "termination", verify_termination
    if token == "def6+termination":
        return "def6+termination", lambda c, d: _combined(
            verify_weak(c, d), verify_termination(c, d)
        )
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
    depth_bound: int = 64,
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
