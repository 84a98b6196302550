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
partial-fraction terms.  Auto mode keys each pipeline run by the
substitution's ``back_sub``, the parameter as a function of x: the maps are
its inverse, so equal ``back_sub`` means equal maps up to the parameter's
name.  Gregory and modified Weierstrass share theirs, sec x + tan x, so
auto mode runs the pipeline once for the pair and reports its outcome under
both names; a refusal message then names Gregory's parameter u.

Weierstrass's t = tan(x/2) parametrizes the same circle, and Gregory's u
is the Mobius map (1+t)/(1-t) of it (:func:`change_of_parameter`, derived
at import).  That map keeps the degree of every irreducible factor of
degree 2 or more, so when Gregory's run refuses with
:class:`UnsupportedDenominator`, auto mode moves the refused cofactor along
the map (:func:`moved_cofactor`) and reports that as Weierstrass's refusal
without running Weierstrass's pipeline.  Any other Gregory outcome still
runs Weierstrass, which can win on terms, and an explicit
``method="weierstrass"`` always runs its own pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import (
    NotApplicable,
    SecintError,
    SingularPoint,
    ToleranceNotMet,
    UnsupportedDenominator,
)
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
    change_of_parameter,
    get_substitution,
    moved_cofactor,
)
from .trig import TrigRational, eval_trig

AUTO = "auto"

# order matters: this is the auto-mode preference list
_AUTO_ORDER = (
    SubstitutionName.GREGORY,
    SubstitutionName.MODIFIED_WEIERSTRASS,
    SubstitutionName.BARROW,
    SubstitutionName.WEIERSTRASS,
)

_GREGORY = get_substitution(SubstitutionName.GREGORY)
_WEIERSTRASS = get_substitution(SubstitutionName.WEIERSTRASS)
# Gregory's u as a function of Weierstrass's t: (1+t)/(1-t)
_GREGORY_IN_WEIERSTRASS = change_of_parameter(_GREGORY, _WEIERSTRASS)

# a log argument or parameter-space denominator this close to zero at a
# sample point is rejected and the point nudged
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

    A numeric cross-check, independent of the exact certificate.  The
    integrand and F's x-space payloads (its rational part and its log and
    atan arguments) are evaluated by :func:`secint.trig.eval_trig`, whose
    pole guard is a zero of the cos-polynomial denominator within about
    1e-12 in cos x.  A point is nudged (see :func:`_sample`) when that guard
    trips, when a log argument of F comes within 1e-6 of zero, or when a
    parameter-space payload's denominator does.
    """
    h = _STENCIL_STEP

    def point_error(x: float) -> float:
        stencil = (
            -eval_antiderivative(F, x + 2 * h, _POLE_GUARD)
            + 8 * eval_antiderivative(F, x + h, _POLE_GUARD)
            - 8 * eval_antiderivative(F, x - h, _POLE_GUARD)
            + eval_antiderivative(F, x - 2 * h, _POLE_GUARD)
        ) / (12 * h)
        rv = eval_trig(R, x)
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


def _moved_refusal(
    outcomes: dict[TrigRational, Union[Antiderivative, SecintError]], sub: Substitution
) -> Optional[UnsupportedDenominator]:
    """Weierstrass's refusal, read off Gregory's when Gregory's run has
    refused with :class:`UnsupportedDenominator`; None otherwise."""
    if sub is not _WEIERSTRASS:
        return None
    gregory = outcomes.get(_GREGORY.back_sub)
    if not isinstance(gregory, UnsupportedDenominator):
        return None
    return UnsupportedDenominator(moved_cofactor(gregory.cofactor, _GREGORY_IN_WEIERSTRASS))


def integrate_trig(
    R: TrigRational, method: Union[SubstitutionName, str] = AUTO
) -> IntegrationReport:
    """Integrate a cos/sin rational expression and certify the result.

    ``method`` is a substitution name or "auto".  A result is kept only if
    its derivative equals ``R`` exactly.  Auto runs the preference list,
    keeps every certified result, and picks the one with the fewest terms
    (preference order breaks ties).  When Gregory refuses with
    :class:`UnsupportedDenominator`, auto mode takes Weierstrass's refusal
    from it instead of running Weierstrass (see the module docstring).
    All-methods failure raises the most informative error; a report lists
    non-fatal per-method failures in ``failures``.
    """
    if method == AUTO:
        order = [get_substitution(name) for name in _AUTO_ORDER]
    else:
        order = [get_substitution(method)]

    outcomes: dict[TrigRational, Union[Antiderivative, SecintError]] = {}
    successes: list[tuple[Substitution, Antiderivative]] = []
    failures: list[tuple[str, SecintError]] = []
    for sub in order:
        if sub.back_sub not in outcomes:
            outcomes[sub.back_sub] = _moved_refusal(outcomes, sub) or _run_pipeline(R, sub)
        outcome = outcomes[sub.back_sub]
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
