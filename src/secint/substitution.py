"""The four secant substitutions as rational parametrizations.

Each substitution carries rational expressions for cos x, sin x and the
differential factor in terms of its parameter, plus the parameter written
back as an expression in x:

* Weierstrass       t = tan(x/2), the circle projected from (-1, 0);
* modified          s = tan(x/2 + pi/4), the circle projected from (0, 1);
* Gregory           u = sec x + tan x, the hyperbola (sec, tan) projected
                    from its point at infinity — the same rational maps as
                    the modified substitution, kept separate on purpose;
* Barrow            u = sin x, a structural rewrite rather than a
                    parametrization: it applies exactly when the integrand
                    is odd in cos x, so that after du = cos x dx the rest
                    is a function of sin alone.

tan(x/2 + pi/4) and sec x + tan x are the same function of x, which is why
the modified and Gregory columns coincide.  Both stay named substitutions
here; :func:`secint.engine.integrate_trig` recognises that their maps agree
and runs the shared pipeline once in auto mode.

The substitutions are immutable and built once, at import.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from . import trig
from .errors import DenominatorVanishesIdentically, NotApplicable
from .integrate import Antiderivative, AtanTerm, LogTerm, RatTerm, make_antiderivative
from .ratfunc import Polynomial, RationalFunction, ratfunc_normalize
from .trig import TrigPolynomial, TrigRational, is_odd_in_cos

# all four parametrizations are regular here; sec's poles sit at the ends
VALIDITY = (-math.pi / 2 + 0.1, math.pi / 2 - 0.1)


class SubstitutionName(str, enum.Enum):
    GREGORY = "gregory"
    BARROW = "barrow"
    WEIERSTRASS = "weierstrass"
    MODIFIED_WEIERSTRASS = "modified-weierstrass"


@dataclass(frozen=True)
class Substitution:
    """One parametrization: maps for cos/sin/dx (None for Barrow's
    structural path) and the parameter as a function of x."""

    name: SubstitutionName
    param: str
    cos_expr: Optional[RationalFunction]
    sin_expr: Optional[RationalFunction]
    dx_expr: Optional[RationalFunction]
    back_sub: TrigRational
    validity: tuple[float, float] = VALIDITY


@dataclass(frozen=True)
class SubstitutionResult:
    integrand: RationalFunction
    substitution: Substitution


def _rf(num_coeffs, den_coeffs, var: str) -> RationalFunction:
    return ratfunc_normalize(
        Polynomial.from_coefficients(num_coeffs, var),
        Polynomial.from_coefficients(den_coeffs, var),
    )


def _circle_maps(var: str) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """cos, sin, dx for the projection from (0, 1): the modified family."""
    return (
        _rf((0, 2), (1, 0, 1), var),        # 2p/(p^2+1)
        _rf((-1, 0, 1), (1, 0, 1), var),    # (p^2-1)/(p^2+1)
        _rf((2,), (1, 0, 1), var),          # 2/(p^2+1)
    )


def _weierstrass() -> Substitution:
    var = "t"
    sin = TrigRational.sin()
    cos = TrigRational.cos()
    return Substitution(
        name=SubstitutionName.WEIERSTRASS,
        param=var,
        cos_expr=_rf((1, 0, -1), (1, 0, 1), var),
        sin_expr=_rf((0, 2), (1, 0, 1), var),
        dx_expr=_rf((2,), (1, 0, 1), var),
        back_sub=sin / (1 + cos),  # tan(x/2)
    )


def _modified_weierstrass() -> Substitution:
    cos_e, sin_e, dx_e = _circle_maps("s")
    sec_plus_tan = (1 + TrigRational.sin()) / TrigRational.cos()
    return Substitution(
        name=SubstitutionName.MODIFIED_WEIERSTRASS,
        param="s",
        cos_expr=cos_e,
        sin_expr=sin_e,
        dx_expr=dx_e,
        back_sub=sec_plus_tan,  # tan(x/2 + pi/4)
    )


def _gregory() -> Substitution:
    cos_e, sin_e, dx_e = _circle_maps("u")
    sec_plus_tan = (1 + TrigRational.sin()) / TrigRational.cos()
    return Substitution(
        name=SubstitutionName.GREGORY,
        param="u",
        cos_expr=cos_e,
        sin_expr=sin_e,
        dx_expr=dx_e,
        back_sub=sec_plus_tan,
    )


def _barrow() -> Substitution:
    return Substitution(
        name=SubstitutionName.BARROW,
        param="u",
        cos_expr=None,
        sin_expr=RationalFunction.variable("u"),
        dx_expr=None,
        back_sub=TrigRational.sin(),
    )


_BUILTIN = {
    sub.name: sub
    for sub in (_weierstrass(), _modified_weierstrass(), _gregory(), _barrow())
}


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
