"""Exact antiderivatives of univariate rational functions.

Pipeline: Hermite reduction factors the denominator once into squarefree
powers and strips each repeated factor into an explicit, proper rational
part (Bronstein's quadratic reduction); the polynomial quotient of the
squarefree remainder is integrated into that same rational part, and
partial fractions over the remainder produce log terms (rational linear
factors) and log/atan pairs (one rational-rootless quadratic whose completed
square has a rational side length).  An :class:`Antiderivative` therefore
holds at most one :class:`RatTerm`, then its logs and atans.

The coefficient field never leaves the rationals.  A quadratic such as
t^2 + 3 would need atan(t/sqrt(3))/sqrt(3) wherever its atan coefficient is
nonzero; instead of adjoining surds that case is reported as
:class:`IrrationalAtanScale`.  Once every rational root is removed, a
cofactor of degree three or more is reported as
:class:`UnsupportedDenominator`, whether or not it factors over Q.  The trig
substitutions do not always stay inside the supported class: a product of
two irreducible quadratics, such as the image of
1/((5+3*cos(x))*(5-4*cos(x))), is refused that way.  Rational roots are
found by trying every divisor pair of the extreme coefficients, with no
budget, so the cost grows with their number of divisors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import IrrationalAtanScale, SingularPoint, UnsupportedDenominator
from .ratfunc import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_xgcd,
    rational_roots,
    rational_sqrt,
    ratfunc_normalize,
    squarefree_factorization,
)
from .trig import TrigRational, eval_trig, trig_derivative

Payload = Union[RationalFunction, TrigRational]


@dataclass(frozen=True)
class RatTerm:
    """The rational part: Hermite's rational part plus the integrated
    polynomial quotient, a RationalFunction in the parameter and a
    TrigRational in x after back-substitution."""

    payload: Payload


@dataclass(frozen=True)
class LogTerm:
    coefficient: Fraction
    argument: Payload
    absolute: bool = True


@dataclass(frozen=True)
class AtanTerm:
    coefficient: Fraction
    argument: Payload


Term = Union[RatTerm, LogTerm, AtanTerm]


@dataclass(frozen=True)
class Antiderivative:
    """Ordered term list; the integration constant is implicit.

    Terms are kept canonical: rational parts summed into one term, zero
    terms dropped, like log/atan arguments merged, order fixed as rational
    part, logs, atans.
    Build through :func:`make_antiderivative`.
    """

    terms: tuple[Term, ...]
    variable: str

    def __str__(self) -> str:
        from .render import format_antiderivative

        return format_antiderivative(self)


def leading_sign(value: Union[Polynomial, Payload]) -> int:
    """Sign of the first coefficient the renderer prints for ``value``.

    Univariate polynomials render ascending up to degree 1 and descending
    above; rational functions follow their numerator; trig expressions scan
    the cos-part then the sin-part coefficients ascending (all three trig
    rendering styles agree on which coefficient comes first).
    """
    if isinstance(value, TrigRational):
        for c in value.num.p.coefficients + value.num.q.coefficients:
            if c != 0:
                return 1 if c > 0 else -1
        return 1
    if isinstance(value, RationalFunction):
        return leading_sign(value.num)
    if value.is_zero():
        return 1
    if value.degree <= 1:
        for c in value.coefficients:
            if c != 0:
                return 1 if c > 0 else -1
    return 1 if value.leading_coefficient > 0 else -1


def _argument_key(arg: Payload) -> tuple:
    if isinstance(arg, RationalFunction):
        return (0, arg.num.coefficients, arg.den.coefficients)
    return (1, arg.num.p.coefficients, arg.num.q.coefficients, arg.den.coefficients)


def make_antiderivative(terms: list[Term], variable: str) -> Antiderivative:
    """Canonical construction: merge, drop zeros, fix order and signs.

    Absolute-value log arguments are sign-normalized (|−G| = |G|) so the
    first rendered coefficient is positive; atan arguments are never flipped
    since atan is odd.  Logs and atans with constant arguments differentiate
    to zero and are dropped.
    """
    rat_sum: Union[Payload, None] = None
    logs: dict = {}
    atans: dict = {}
    for term in terms:
        if isinstance(term, RatTerm):
            if term.payload.is_zero():
                continue
            rat_sum = term.payload if rat_sum is None else rat_sum + term.payload
        elif isinstance(term, LogTerm):
            if term.coefficient == 0 or term.argument.is_constant():
                continue
            arg = term.argument
            if term.absolute and leading_sign(arg) < 0:
                arg = -arg
            key = (_argument_key(arg), term.absolute)
            prev = logs.get(key)
            logs[key] = (
                LogTerm(term.coefficient, arg, term.absolute)
                if prev is None
                else LogTerm(prev.coefficient + term.coefficient, arg, term.absolute)
            )
        elif isinstance(term, AtanTerm):
            if term.coefficient == 0 or term.argument.is_constant():
                continue
            key = _argument_key(term.argument)
            prev = atans.get(key)
            atans[key] = (
                term
                if prev is None
                else AtanTerm(prev.coefficient + term.coefficient, term.argument)
            )
        else:
            raise TypeError(f"unknown antiderivative term {term!r}")
    out: list[Term] = []
    if rat_sum is not None and not rat_sum.is_zero():
        out.append(RatTerm(rat_sum))
    out.extend(
        t
        for key, t in sorted(logs.items(), key=lambda kv: kv[0][0], reverse=True)
        if t.coefficient != 0
    )
    out.extend(
        t
        for key, t in sorted(atans.items(), key=lambda kv: kv[0], reverse=True)
        if t.coefficient != 0
    )
    return Antiderivative(tuple(out), variable)


# ---------------------------------------------------------------------------
# Hermite reduction


def hermite_reduce(f: RationalFunction) -> tuple[RationalFunction, RationalFunction]:
    """Split f = d/du(rational part) + remainder, remainder squarefree below.

    Bronstein's quadratic Hermite reduction (*Symbolic Integration I*,
    section 2.2): the denominator is factored once, D = prod V_i^i.  For each
    V of multiplicity i >= 2, with U = D/V^i, one extended gcd gives
    s*U*V' = 1 mod V; then for j = i-1 down to 1 the numerator splits as
    A = -j*B*U*V' + (multiple of V) with deg B < deg V, B/V^j joins the
    rational part, and A/(U*V^j) is what is left.  The pieces B/V^j of one
    factor are summed over V^(i-1) and normalized once.  Every piece is
    proper, so the rational part is proper, which makes it unique.
    """
    var = f.var
    rational_part = RationalFunction.constant(0, var)
    _, factors = squarefree_factorization(f.den)
    A, D = f.num, f.den
    for V, i in factors:
        if i < 2:
            continue
        U = D.exact_div(V**i)
        UdV = U * V.derivative()
        _, s, _ = poly_xgcd(UdV, V)
        pieces = Polynomial.zero(var)
        Vpow = Polynomial.constant(1, var)
        for j in range(i - 1, 0, -1):
            B = ((A % V) * s % V) * Fraction(-1, j)
            pieces = pieces + B * Vpow
            Vpow = Vpow * V
            A = (A + j * B * UdV).exact_div(V) - U * B.derivative()
        rational_part = rational_part + ratfunc_normalize(pieces, Vpow)
        D = U * V
    return rational_part, ratfunc_normalize(A, D)


# ---------------------------------------------------------------------------
# partial fractions over a squarefree denominator


@dataclass(frozen=True)
class PolyPart:
    polynomial: Polynomial


@dataclass(frozen=True)
class LinearPart:
    residue: Fraction
    root: Fraction
    power: int = 1


@dataclass(frozen=True)
class QuadraticPart:
    numerator: Polynomial  # degree <= 1
    quadratic: Polynomial  # monic, no rational roots
    power: int = 1


PartialFractionTerm = Union[PolyPart, LinearPart, QuadraticPart]


def partial_fractions(f: RationalFunction) -> list[PartialFractionTerm]:
    """Decompose over rational linear factors plus at most one quadratic.

    The denominator must be squarefree (run :func:`hermite_reduce` first).
    Raises :class:`UnsupportedDenominator` if, after removing every rational
    root, a cofactor of degree three or more remains.
    """
    if f.is_zero():
        return []
    var = f.var
    quo, rem = divmod(f.num, f.den)
    parts: list[PartialFractionTerm] = []
    if not quo.is_zero():
        parts.append(PolyPart(quo))
    if rem.is_zero():
        return parts
    den = f.den
    if not poly_gcd(den, den.derivative()).is_constant():
        raise ValueError("denominator is not squarefree; apply hermite_reduce first")
    dprime = den.derivative()
    acc = ratfunc_normalize(rem, den)
    for r in rational_roots(den):
        residue = rem(r) / dprime(r)
        parts.append(LinearPart(residue, r, 1))
        acc = acc - ratfunc_normalize(
            Polynomial.constant(residue, var),
            Polynomial.from_coefficients([-r, 1], var),
        )
    if acc.is_zero():
        return parts
    cofactor = acc.den
    if cofactor.degree > 2:
        raise UnsupportedDenominator(
            f"denominator factor {cofactor} of degree {cofactor.degree} "
            "has no rational root"
        )
    if cofactor.degree != 2:
        raise AssertionError("residue extraction left a non-quadratic cofactor")
    parts.append(QuadraticPart(acc.num, cofactor, 1))
    return parts


# ---------------------------------------------------------------------------
# integration


def integrate_rational(f: RationalFunction) -> Antiderivative:
    """Exact antiderivative of a rational function in its own variable.

    The polynomial quotient integrates termwise and is added to Hermite's
    rational part, so the result has at most one :class:`RatTerm`; linear
    factors give a*ln|u - r|; a quadratic u^2+pu+q gives
    (b/2)ln(u^2+pu+q) + k*atan((u+p/2)/m) with m^2 = q - p^2/4, provided m
    is rational (:class:`IrrationalAtanScale` otherwise, when the atan
    coefficient is nonzero).
    """
    var = f.var
    rational_part, remainder = hermite_reduce(f)
    terms: list[Term] = []
    if not rational_part.is_zero():
        terms.append(RatTerm(rational_part))
    u = Polynomial.variable(var)
    for part in partial_fractions(remainder):
        if isinstance(part, PolyPart):
            integral = RationalFunction.from_polynomial(part.polynomial.integral())
            terms.append(RatTerm(integral))
        elif isinstance(part, LinearPart):
            arg = RationalFunction.from_polynomial(u - part.root)
            terms.append(LogTerm(part.residue, arg, absolute=True))
        else:
            b = part.numerator.coefficient(1)
            c0 = part.numerator.coefficient(0)
            p = part.quadratic.coefficient(1)
            q = part.quadratic.coefficient(0)
            disc = q - p * p / 4
            if b != 0:
                quad_arg = RationalFunction.from_polynomial(part.quadratic)
                terms.append(LogTerm(b / 2, quad_arg, absolute=disc <= 0))
            atan_weight = c0 - b * p / 2
            if atan_weight != 0:
                m = rational_sqrt(disc)
                if m is None or m == 0:
                    raise IrrationalAtanScale(
                        f"completed square of {part.quadratic} needs side "
                        f"sqrt({disc}), which is not rational"
                    )
                arg = ratfunc_normalize(u + p / 2, Polynomial.constant(m, var))
                terms.append(AtanTerm(atan_weight / m, arg))
    return make_antiderivative(terms, var)


# ---------------------------------------------------------------------------
# derivative and numeric evaluation of an Antiderivative


def symbolic_derivative(F: Antiderivative):
    """Termwise exact derivative; RationalFunction in parameter space,
    TrigRational after back-substitution."""
    total = None

    def _d(payload):
        if isinstance(payload, TrigRational):
            return trig_derivative(payload)
        return payload.derivative()

    for term in F.terms:
        if isinstance(term, RatTerm):
            piece = _d(term.payload)
        elif isinstance(term, LogTerm):
            piece = _d(term.argument) * term.coefficient / term.argument
        else:
            g = term.argument
            piece = _d(g) * term.coefficient / (g * g + 1)
        total = piece if total is None else total + piece
    if total is None:
        if F.variable == "x":
            return TrigRational.constant(0)
        return RationalFunction.constant(0, F.variable)
    return total


def eval_antiderivative(F: Antiderivative, x: float, singular_tol: float = 1e-12) -> float:
    """Double-precision value at x.

    Raises :class:`SingularPoint` where a log argument is within
    ``singular_tol`` of zero, or where the denominator of a parameter-space
    (RationalFunction) payload is.  TrigRational payloads are evaluated by
    :func:`secint.trig.eval_trig`, whose own pole guard is a fixed 1e-12 on
    the cos-polynomial denominator, whatever ``singular_tol`` is.
    """

    def _num(payload) -> float:
        if isinstance(payload, TrigRational):
            return eval_trig(payload, x)
        denv = payload.den(x)
        if abs(denv) < singular_tol:
            raise SingularPoint(f"denominator vanishes near x = {x!r}")
        return payload.num(x) / denv

    total = 0.0
    for term in F.terms:
        if isinstance(term, RatTerm):
            total += _num(term.payload)
        elif isinstance(term, LogTerm):
            v = _num(term.argument)
            if abs(v) < singular_tol:
                raise SingularPoint(f"log argument vanishes near x = {x!r}")
            total += float(term.coefficient) * math.log(abs(v))
        else:
            total += float(term.coefficient) * math.atan(_num(term.argument))
    return total
