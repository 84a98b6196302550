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
                    R is odd in cos x, so that R dx = (R / cos x) du and
                    R / cos x is a function of cos^2 = 1 - u^2 and sin = u.

The differential factor is derived: cos' = -sin * x' and sin' = cos * x',
so dx = cos * sin' - sin * cos'.  Both directions compose by one routine,
:func:`_homogenized`: forward through (cos, sin) = (X/W, Y/W), back through
``back_sub = B/C``, so each quotient is normalized once.  The same routine
moves a polynomial between the parameters of two projections
(:func:`change_of_parameter`, :func:`moved_cofactor`).  tan(x/2 + pi/4)
and sec x + tan x are the same function, so modified and Gregory share
``back_sub`` and their maps agree up to the parameter's name;
:func:`secint.engine.integrate_trig` keys its pipeline runs by ``back_sub``
and runs the pair once.

The substitutions are immutable and built once, at import.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import trig
from .conics import CIRCLE_FROM_B, CIRCLE_FROM_D, HYPERBOLA_FROM_PPLUS
from .errors import DenominatorVanishesIdentically, NotApplicable
from .integrate import Antiderivative, make_antiderivative
from .ratfunc import Polynomial, RationalFunction, ratfunc_normalize
from .trig import TrigPolynomial, TrigRational, is_even_in_cos


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
    parameter, over one denominator, and whose parameter is ``back_sub``."""
    if cos.den != sin.den:
        raise ValueError(f"{name.value}: cos and sin maps have different denominators")
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

    R dx = W du with W = R / cos x and du = cos x dx.  R is odd in cos
    exactly when W's canonical form ``(A + B*s)/D`` is even in c (see
    :func:`secint.trig.is_even_in_cos`), so c^2 = 1 - u^2 and s = u turn W
    into a rational function of u.
    """
    W = R / TrigRational.cos()
    if not is_even_in_cos(W):
        raise NotApplicable("u = sin x applies only to integrands odd in cos x")
    c2 = Polynomial.from_coefficients([1, 0, -1], var)
    a, b, d = (
        Polynomial.from_coefficients(poly.coefficients[0::2], var)(c2)
        for poly in (W.num.p, W.num.q, W.den)
    )
    return ratfunc_normalize(a + Polynomial.variable(var) * b, d)


def _along(R: TrigRational, sub: Substitution) -> tuple[Polynomial, Polynomial]:
    """R(cos, sin) along a projection's maps, as a raw numerator and
    denominator in its parameter.

    With (cos, sin) = (X/W, Y/W), R = (A + B*s)/D and m = max(deg A,
    deg B + 1, deg D), this is (hom(A, m) + Y*hom(B, m-1)) / hom(D, m)
    with hom(P, m) = W^m P(X/W): W^m cancels without a gcd.
    """
    A, B, D = R.num.p, R.num.q, R.den
    m = max(A.degree, B.degree + 1, D.degree)
    X, Y, W = sub.cos_expr.num, sub.sin_expr.num, sub.cos_expr.den
    w_powers = _powers(W, m)
    num = _homogenized(A, m, X, w_powers)
    if not B.is_zero():
        num = num + Y * _homogenized(B, m - 1, X, w_powers)
    den = _homogenized(D, m, X, w_powers)
    if den.is_zero():
        raise DenominatorVanishesIdentically(
            "denominator vanishes identically along the parametrization"
        )
    return num, den


def apply_substitution(R: TrigRational, sub: Substitution) -> SubstitutionResult:
    """Transform R(cos x, sin x) dx into a rational integrand in the
    parameter: R along the maps (see :func:`_along`) times dx, normalized
    once.  Barrow requires the integrand to be odd in cos and raises
    :class:`NotApplicable` otherwise.
    """
    if sub.name is SubstitutionName.BARROW:
        return SubstitutionResult(_barrow_integrand(R, sub.param), sub)
    num, den = _along(R, sub)
    dx = sub.dx_expr
    return SubstitutionResult(ratfunc_normalize(num * dx.num, den * dx.den), sub)


def change_of_parameter(source: Substitution, target: Substitution) -> RationalFunction:
    """``source``'s parameter as a rational function of ``target``'s: its
    ``back_sub`` along ``target``'s maps.  Between two projections of the
    same circle this is a Mobius map; Gregory's u in Weierstrass's t is
    (1+t)/(1-t)."""
    return ratfunc_normalize(*_along(source.back_sub, target))


def moved_cofactor(Q: Polynomial, mobius: RationalFunction) -> Polynomial:
    """Q in the variable of the Mobius map ``mobius`` = X/W: the monic
    ``W^d Q(X/W)`` with d = deg Q, whose roots t are those where X/W is a
    root of Q.  If Q has no rational root, the result has degree d and no
    rational root either, and every irreducible factor keeps its degree."""
    d = Q.degree
    return _homogenized(Q, d, mobius.num, _powers(mobius.den, d)).monic()


def _powers(w: Polynomial, m: int) -> list[Polynomial]:
    """``[w^0, w^1, ..., w^m]``."""
    out = [Polynomial.constant(1, w.var)]
    for _ in range(m):
        out.append(out[-1] * w)
    return out


def _homogenized(
    poly: Polynomial, m: int, b: Polynomial | TrigPolynomial, w_powers: list[Polynomial]
) -> Polynomial | TrigPolynomial:
    """``sum n_k b^k w^(m-k)`` by Horner in b: ``w^m * poly(b/w)`` for
    ``m >= deg poly``, given ``w_powers[j] = w^j`` for j up to m.  ``b`` is
    a Polynomial (forward) or a TrigPolynomial (back-substitution)."""
    acc = None
    for k in range(m, -1, -1):
        term = w_powers[m - k] * poly.coefficient(k)
        if isinstance(b, TrigPolynomial):
            term = TrigPolynomial.from_cos_polynomial(term)
        acc = term if acc is None else acc * b + term
    return acc


def _pull_back(payload: RationalFunction, back: TrigRational) -> TrigRational:
    """``payload(back)`` in canonical form, canonicalized once.

    With ``back = B/C`` and ``payload = N/D``, both N and D are homogenized
    to the same degree ``m = max(deg N, deg D)``, so the common factor
    ``C^m`` cancels from the quotient without a gcd.
    """
    num, den = payload.num, payload.den
    m = max(num.degree, den.degree)
    w_powers = _powers(back.den, m)
    # looked up on the module so that a wrapper installed there sees the call
    return trig.canonicalize(
        _homogenized(num, m, back.num, w_powers), _homogenized(den, m, back.num, w_powers)
    )


def back_substitute(F: Antiderivative, sub: Substitution) -> Antiderivative:
    """Pull every term of F back along ``sub.back_sub``, the parameter
    written in x.

    Each term is rebuilt by its ``pulled_back``, so its payload (the
    rational part, or a log or atan argument) becomes a trig expression and
    every other field is kept.  No simplification happens beyond
    canonicalization, done once per payload on its homogeneous composition
    (see :func:`_pull_back`).
    """
    if F.variable != sub.param:
        raise ValueError(
            f"antiderivative in {F.variable!r} cannot be pulled back through "
            f"parameter {sub.param!r}"
        )
    back = sub.back_sub
    return make_antiderivative(
        [term.pulled_back(lambda payload: _pull_back(payload, back)) for term in F.terms], "x"
    )
