"""The four secant substitutions, built from the conic projections.

Each substitution carries rational expressions for cos x, sin x and the
differential factor in terms of its parameter, plus the parameter written
back as an expression in x.  Three are projections of a conic, built from
the maps of :mod:`secint.conics` and the projection's slope formula:

* Weierstrass       t = tan(x/2) = sin/(1+cos), the slope of the line from
                    B = (-1, 0) (:data:`~secint.conics.CIRCLE_FROM_B`);
* modified          s = tan(x/2 + pi/4) = cos/(1-sin), where the line from
                    D = (0, 1) meets the x-axis (``CIRCLE_FROM_D``);
* Gregory           u = sec x + tan x, x + y on the hyperbola (sec, tan)
                    projected from its point at infinity along y = -x
                    (``HYPERBOLA_FROM_PPLUS``), so cos = 1/x, sin = y/x;
* Barrow            u = sin x, a structural rewrite rather than a
                    parametrization: it applies exactly when the integrand
                    is odd in cos x, so that after du = cos x dx the rest
                    is a function of sin alone.

The differential factor is derived: cos' = -sin * x' and sin' = cos * x',
so dx = cos * sin' - sin * cos'.  tan(x/2 + pi/4) and sec x + tan x are the
same function, so modified and Gregory share ``back_sub`` and their maps
agree up to the parameter's name; :func:`secint.engine.integrate_trig`
keys its pipeline runs by ``back_sub`` and runs the pair once.

The substitutions are immutable and built once, at import.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import trig
from .conics import CIRCLE_FROM_B, CIRCLE_FROM_D, HYPERBOLA_FROM_PPLUS
from .errors import DenominatorVanishesIdentically, NotApplicable
from .integrate import Antiderivative, AtanTerm, LogTerm, RatTerm, make_antiderivative
from .ratfunc import Polynomial, RationalFunction, ratfunc_normalize
from .trig import TrigPolynomial, TrigRational, is_odd_in_cos


class SubstitutionName(str, enum.Enum):
    GREGORY = "gregory"
    BARROW = "barrow"
    WEIERSTRASS = "weierstrass"
    MODIFIED_WEIERSTRASS = "modified-weierstrass"


@dataclass(frozen=True)
class Substitution:
    """One parametrization: maps for cos/sin/dx and the parameter as a
    function of x.  Barrow's structural path has no cos or dx map (None);
    its ``sin_expr`` is the parameter u itself."""

    name: SubstitutionName
    param: str
    cos_expr: Optional[RationalFunction]
    sin_expr: Optional[RationalFunction]
    dx_expr: Optional[RationalFunction]
    back_sub: TrigRational


@dataclass(frozen=True)
class SubstitutionResult:
    integrand: RationalFunction
    substitution: Substitution


def _projected(
    name: SubstitutionName, cos: RationalFunction, sin: RationalFunction, back_sub: TrigRational
) -> Substitution:
    """The substitution whose point (cos, sin) on the circle is given in its
    parameter, and whose parameter is ``back_sub`` as a function of x."""
    return Substitution(
        name=name,
        param=cos.var,
        cos_expr=cos,
        sin_expr=sin,
        dx_expr=cos * sin.derivative() - sin * cos.derivative(),
        back_sub=back_sub,
    )


def _builtin() -> tuple[Substitution, ...]:
    cos, sin = TrigRational.cos(), TrigRational.sin()
    hx, hy = HYPERBOLA_FROM_PPLUS
    return (
        _projected(SubstitutionName.WEIERSTRASS, *CIRCLE_FROM_B, sin / (1 + cos)),
        _projected(SubstitutionName.MODIFIED_WEIERSTRASS, *CIRCLE_FROM_D, cos / (1 - sin)),
        _projected(SubstitutionName.GREGORY, 1 / hx, hy / hx, (1 + sin) / cos),
        Substitution(
            name=SubstitutionName.BARROW,
            param="u",
            cos_expr=None,
            sin_expr=RationalFunction.variable("u"),
            dx_expr=None,
            back_sub=sin,
        ),
    )


_BUILTIN = {sub.name: sub for sub in _builtin()}


def builtin_substitutions() -> list[Substitution]:
    """The four substitutions in a new list; the (immutable) substitutions
    themselves are shared, built once at import."""
    return list(_BUILTIN.values())


def get_substitution(name: SubstitutionName | str) -> Substitution:
    return _BUILTIN[SubstitutionName(name)]


def _barrow_integrand(R: TrigRational, var: str) -> RationalFunction:
    """Structural u = sin x rewrite for an integrand odd in cos.

    Multiply numerator and denominator by D(-c) so the denominator
    V(c) = D(c)D(-c) is even; oddness forces the numerator components to be
    odd, so after factoring one c out as du = c dx everything depends on
    c^2 = 1 - u^2 and s = u only.
    """
    neg_c = Polynomial.from_coefficients([0, -1], "c")
    d_flip = R.den(neg_c)
    w = R.num * TrigPolynomial.from_cos_polynomial(d_flip)
    v = R.den * d_flip
    # odd polynomials: only odd c-powers in w, only even in v
    if any(c != 0 for c in w.p.coefficients[0::2]) or any(
        c != 0 for c in w.q.coefficients[0::2]
    ):
        raise AssertionError("parity rewrite out of step with is_odd_in_cos")
    a = Polynomial.from_coefficients(w.p.coefficients[1::2], var)
    b = Polynomial.from_coefficients(w.q.coefficients[1::2], var)
    v_even = Polynomial.from_coefficients(v.coefficients[0::2], var)
    one_minus_u2 = Polynomial.from_coefficients([1, 0, -1], var)
    u = Polynomial.variable(var)
    num = a(one_minus_u2) + u * b(one_minus_u2)
    return ratfunc_normalize(num, v_even(one_minus_u2))


def apply_substitution(R: TrigRational, sub: Substitution) -> SubstitutionResult:
    """Transform R(cos x, sin x) dx into a rational integrand in the
    parameter.  Barrow requires the integrand to be odd in cos and raises
    :class:`NotApplicable` otherwise."""
    if sub.name is SubstitutionName.BARROW:
        if not is_odd_in_cos(R):
            raise NotApplicable(
                "u = sin x applies only to integrands odd in cos x"
            )
        return SubstitutionResult(_barrow_integrand(R, sub.param), sub)
    num_rf = R.num.eval_rational(sub.cos_expr, sub.sin_expr)
    den_rf = R.den(sub.cos_expr)
    if not isinstance(den_rf, RationalFunction):
        den_rf = RationalFunction.constant(den_rf, sub.param)
    if den_rf.is_zero():
        raise DenominatorVanishesIdentically(
            "denominator vanishes identically along the parametrization"
        )
    return SubstitutionResult(num_rf / den_rf * sub.dx_expr, sub)


def _homogenized(
    poly: Polynomial, m: int, b: TrigPolynomial, c_powers: list[Polynomial]
) -> TrigPolynomial:
    """``sum n_k B^k C^(m-k)`` by Horner in B: ``C^m * poly(B/C)`` for
    ``m >= deg poly``, given ``c_powers[j] = C^j`` for j up to m."""
    acc = TrigPolynomial.zero()
    for k in range(m, -1, -1):
        acc = acc * b + TrigPolynomial.from_cos_polynomial(c_powers[m - k] * poly.coefficient(k))
    return acc


def _pull_back(payload: RationalFunction, back: TrigRational) -> TrigRational:
    """``payload(back)`` in canonical form, canonicalized once.

    With ``back = B/C`` and ``payload = N/D``, both N and D are homogenized
    to the same degree ``m = max(deg N, deg D)``, so the common factor
    ``C^m`` cancels from the quotient without a gcd.
    """
    num, den = payload.num, payload.den
    m = max(num.degree, den.degree)
    c_powers = [Polynomial.constant(1, back.den.var)]
    for _ in range(m):
        c_powers.append(c_powers[-1] * back.den)
    # looked up on the module so that a wrapper installed there sees the call
    return trig.canonicalize(
        _homogenized(num, m, back.num, c_powers), _homogenized(den, m, back.num, c_powers)
    )


def back_substitute(F: Antiderivative, sub: Substitution) -> Antiderivative:
    """Replace the parameter by its expression in x throughout F.

    Arguments of logs and atans become trig expressions; no simplification
    happens beyond canonicalization of each argument, done once per payload
    on its homogeneous composition (see :func:`_pull_back`).
    """
    if F.variable != sub.param:
        raise ValueError(
            f"antiderivative in {F.variable!r} cannot be pulled back through "
            f"parameter {sub.param!r}"
        )
    back = sub.back_sub
    terms = []
    for term in F.terms:
        if isinstance(term, RatTerm):
            terms.append(RatTerm(_pull_back(term.payload, back)))
        elif isinstance(term, LogTerm):
            terms.append(LogTerm(term.coefficient, _pull_back(term.argument, back), term.absolute))
        elif isinstance(term, AtanTerm):
            terms.append(AtanTerm(term.coefficient, _pull_back(term.argument, back)))
        else:
            raise TypeError(f"unknown antiderivative term {term!r}")
    return make_antiderivative(terms, "x")
