"""End-to-end pipeline: substitute, integrate, back-substitute, verify.

Every antiderivative the engine reports carries an exact certificate: its
termwise derivative equals the integrand as canonical quotients over the
circle, ``symbolic_derivative(G) == R``.  The four substitutions are
rational parametrizations of the circle, so this check needs no sampling
and no tolerance; it cannot reject a right answer near a pole, and it
cannot pass a wrong one.  A result that fails it is refused with
:class:`ToleranceNotMet`, like any other refusal.  :func:`diff_check` and
:func:`constant_difference_check` remain as independent numeric
cross-checks; the engine itself does not call them.

The automatic method choice tries Gregory, then modified Weierstrass, then
Barrow, then Weierstrass, keeps every verified success, and returns the one
with the fewest antiderivative terms (earlier method wins ties).  Gregory
comes first because it tends to produce the one-log answers; Weierstrass
last because its half-angle denominators most often split into extra
partial-fraction terms.  Gregory and modified Weierstrass are one
parametrization under two parameter names, so auto mode runs the pipeline
once for the pair and reports its outcome under both names; a refusal
message then names Gregory's parameter u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import NotApplicable, SecintError, SingularPoint, ToleranceNotMet
from .integrate import (
    Antiderivative,
    eval_antiderivative,
    integrate_rational,
    symbolic_derivative,
)
from .substitution import (
    Substitution,
    SubstitutionName,
    apply_substitution,
    back_substitute,
    get_substitution,
)
from .trig import TrigRational

AUTO = "auto"

# order matters: this is the auto-mode preference list
_AUTO_ORDER = (
    SubstitutionName.GREGORY,
    SubstitutionName.MODIFIED_WEIERSTRASS,
    SubstitutionName.BARROW,
    SubstitutionName.WEIERSTRASS,
)

# sample evaluations this close to a pole are rejected and the point nudged
_POLE_GUARD = 1e-6
_MAX_NUDGES = 100
# step of the fourth-order finite-difference stencil in diff_check
_STENCIL_STEP = 1e-5


@dataclass(frozen=True)
class VerificationDomain:
    lo: float
    hi: float
    samples: int = 25

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("verification domain needs lo < hi")
        if self.samples < 1:
            raise ValueError("verification needs at least one sample")

    def grid(self) -> list[float]:
        if self.samples == 1:
            return [(self.lo + self.hi) / 2]
        step = (self.hi - self.lo) / (self.samples - 1)
        return [self.lo + k * step for k in range(self.samples)]


@dataclass(frozen=True)
class IntegrationReport:
    input: str
    method: SubstitutionName
    antiderivative: Antiderivative
    failures: tuple[tuple[str, str], ...] = ()


def _eval_integrand(R: TrigRational, x: float) -> float:
    c = math.cos(x)
    denv = R.den(c)
    if abs(denv) < _POLE_GUARD:
        raise SingularPoint(f"integrand pole too close to x = {x!r}")
    return R.num.eval(c, math.sin(x)) / denv


def _sample(value: Callable[[float], float], dom: VerificationDomain) -> list[float]:
    """``value`` at every grid point of ``dom``.

    A point where ``value`` raises :class:`SingularPoint` is nudged along a
    deterministic offset sequence; if it stays unusable after 100 nudges
    the domain is reported unusable via :class:`SingularPoint`.
    """
    delta = (dom.hi - dom.lo) / 1000
    values = []
    for x0 in dom.grid():
        x = x0
        for attempt in range(_MAX_NUDGES + 1):
            try:
                values.append(value(x))
                break
            except SingularPoint:
                if attempt == _MAX_NUDGES:
                    raise SingularPoint(
                        f"no usable sample near x = {x0!r} after "
                        f"{_MAX_NUDGES} nudges"
                    )
                j = attempt // 2 + 1
                step = j * delta if attempt % 2 == 0 else -j * delta
                x = min(max(x0 + step, dom.lo), dom.hi)
    return values


def diff_check(F: Antiderivative, R: TrigRational, dom: VerificationDomain) -> float:
    """Max over the sample grid of |stencil(F) - R| / max(1, |R|).

    A numeric cross-check, independent of the exact certificate.  A point
    is nudged (see :func:`_sample`) when the integrand's denominator or a
    log argument of F comes within 1e-6 of zero there, or when a
    parameter-space payload's denominator does.  Poles of F's x-space
    payloads (its rational part and its log and atan arguments) are guarded
    only by :func:`secint.trig.eval_trig`'s 1e-12, so a stencil point that
    lands near one of them is not nudged.
    """
    h = _STENCIL_STEP

    def point_error(x: float) -> float:
        stencil = (
            -eval_antiderivative(F, x + 2 * h, _POLE_GUARD)
            + 8 * eval_antiderivative(F, x + h, _POLE_GUARD)
            - 8 * eval_antiderivative(F, x - h, _POLE_GUARD)
            + eval_antiderivative(F, x - 2 * h, _POLE_GUARD)
        ) / (12 * h)
        rv = _eval_integrand(R, x)
        return abs(stencil - rv) / max(1.0, abs(rv))

    return max(_sample(point_error, dom))


def constant_difference_check(
    F1: Antiderivative, F2: Antiderivative, dom: VerificationDomain
) -> tuple[bool, float]:
    """Whether F1 - F2 is constant, and an estimate of that constant.

    Constancy is decided exactly, by ``symbolic_derivative(F1) ==
    symbolic_derivative(F2)``; the constant is the mean of F1 - F2 over the
    sample grid of ``dom``.
    """
    diffs = _sample(
        lambda x: eval_antiderivative(F1, x, _POLE_GUARD)
        - eval_antiderivative(F2, x, _POLE_GUARD),
        dom,
    )
    constant = symbolic_derivative(F1) == symbolic_derivative(F2)
    return constant, sum(diffs) / len(diffs)


def _parametrization_key(sub: Substitution) -> tuple:
    """What the pipeline's outcome depends on besides the integrand: the
    maps with the parameter renamed to one common name, and the map back."""
    maps = (sub.cos_expr, sub.sin_expr, sub.dx_expr)
    return tuple(None if e is None else e.rename("p") for e in maps) + (sub.back_sub,)


def _run_pipeline(
    R: TrigRational, sub: Substitution
) -> Union[Antiderivative, SecintError]:
    """Substitute, integrate, back-substitute and certify the result
    exactly; a refusal is returned, not raised, so that it can be shared."""
    try:
        result = apply_substitution(R, sub)
        F = integrate_rational(result.integrand)
        G = back_substitute(F, sub)
        if symbolic_derivative(G) != R:
            raise ToleranceNotMet(
                "the derivative of the result differs from the integrand"
            )
        return G
    except SecintError as exc:
        return exc


def integrate_trig(
    R: TrigRational, method: Union[SubstitutionName, str] = AUTO
) -> IntegrationReport:
    """Integrate a cos/sin rational expression and certify the result.

    ``method`` is a substitution name or "auto".  A result is kept only if
    its derivative equals ``R`` exactly.  Auto runs the preference list,
    keeps every certified result, and picks the one with the fewest terms
    (preference order breaks ties).  All-methods failure raises the most
    informative error; a report lists non-fatal per-method failures in
    ``failures``.
    """
    if method == AUTO:
        order = [get_substitution(name) for name in _AUTO_ORDER]
    else:
        order = [get_substitution(method)]

    outcomes: dict[tuple, Union[Antiderivative, SecintError]] = {}
    successes: list[tuple[Substitution, Antiderivative]] = []
    failures: list[tuple[str, SecintError]] = []
    for sub in order:
        key = _parametrization_key(sub)
        if key not in outcomes:
            outcomes[key] = _run_pipeline(R, sub)
        outcome = outcomes[key]
        if isinstance(outcome, SecintError):
            failures.append((sub.name.value, outcome))
        else:
            successes.append((sub, outcome))

    if not successes:
        for _, exc in failures:
            if not isinstance(exc, NotApplicable):
                raise exc
        raise failures[0][1]

    best_index = min(
        range(len(successes)), key=lambda i: (len(successes[i][1].terms), i)
    )
    sub, G = successes[best_index]
    return IntegrationReport(
        input=str(R),
        method=sub.name,
        antiderivative=G,
        failures=tuple((name, str(exc)) for name, exc in failures),
    )
