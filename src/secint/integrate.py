"""Exact antiderivatives of univariate rational functions.

Pipeline: Hermite reduction factors the denominator once into squarefree
powers and strips each repeated factor into an explicit, proper rational
part (Bronstein's quadratic reduction); :func:`partial_fractions` turns the
squarefree remainder straight into antiderivative terms: its integrated
polynomial quotient as a :class:`RatTerm`, a log term per rational linear
factor, and a log/atan pair for at most one rational-rootless quadratic
whose completed square has a rational side length.  The terms are one
vocabulary from this stage to rendering; :func:`make_antiderivative` merges
them, so an :class:`Antiderivative` holds at most one :class:`RatTerm`, then
its logs and atans.

Each term carries its own calculus, the same for a RationalFunction payload
in the parameter and a TrigRational payload in x: ``derivative()`` is its
exact derivative, ``pulled_back(pull)`` is the same term with its payload
mapped by ``pull`` (back-substitution), and ``value(x, singular_tol)`` is its
double-precision value.  :func:`symbolic_derivative` and
:func:`eval_antiderivative` are sums over the terms.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Union

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
from .trig import TrigRational, eval_trig

Payload = Union[RationalFunction, TrigRational]
Pull = Callable[[Payload], Payload]


def _value(payload: Payload, x: float, singular_tol: float) -> float:
    """Double-precision value of a payload at x, with the pole guards that
    :func:`eval_antiderivative` describes."""
    if isinstance(payload, TrigRational):
        return eval_trig(payload, x)
    denv = payload.den(x)
    if abs(denv) < singular_tol:
        raise SingularPoint(f"denominator vanishes near x = {x!r}")
    return payload.num(x) / denv


@dataclass(frozen=True)
class RatTerm:
    """The rational part: Hermite's rational part plus the integrated
    polynomial quotient, a RationalFunction in the parameter and a
    TrigRational in x after back-substitution."""

    payload: Payload

    def derivative(self) -> Payload:
        return self.payload.derivative()

    def pulled_back(self, pull: Pull) -> RatTerm:
        return replace(self, payload=pull(self.payload))

    def value(self, x: float, singular_tol: float) -> float:
        return _value(self.payload, x, singular_tol)


@dataclass(frozen=True)
class LogTerm:
    """``coefficient*ln|argument|``, or ``coefficient*ln(argument)`` for an
    argument that has no real zero (``absolute=False``)."""

    coefficient: Fraction
    argument: Payload
    absolute: bool = True

    def derivative(self) -> Payload:
        return self.argument.derivative() * self.coefficient / self.argument

    def pulled_back(self, pull: Pull) -> LogTerm:
        return replace(self, argument=pull(self.argument))

    def value(self, x: float, singular_tol: float) -> float:
        v = _value(self.argument, x, singular_tol)
        if abs(v) < singular_tol:
            raise SingularPoint(f"log argument vanishes near x = {x!r}")
        return float(self.coefficient) * math.log(abs(v))


@dataclass(frozen=True)
class AtanTerm:
    """``coefficient*atan(argument)``."""

    coefficient: Fraction
    argument: Payload

    def derivative(self) -> Payload:
        g = self.argument
        return g.derivative() * self.coefficient / (g * g + 1)

    def pulled_back(self, pull: Pull) -> AtanTerm:
        return replace(self, argument=pull(self.argument))

    def value(self, x: float, singular_tol: float) -> float:
        return float(self.coefficient) * math.atan(_value(self.argument, x, singular_tol))


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

    def __post_init__(self):
        for term in self.terms:
            if not isinstance(term, (RatTerm, LogTerm, AtanTerm)):
                raise TypeError(f"unknown antiderivative term {term!r}")

    def __str__(self) -> str:
        from .render import format_antiderivative

        return format_antiderivative(self)


def leading_sign(value: Union[Polynomial, Payload]) -> int:
    """The sign that picks one of ``value`` and ``-value`` as an
    absolute-value log argument.

    Polynomials give the sign of their first nonzero coefficient ascending
    up to degree 1 and of their leading coefficient above; rational
    functions follow their numerator; trig expressions scan the cos-part
    then the sin-part coefficients ascending.  It is not always the sign the
    renderer prints first: ``u-1`` gives -1.
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
    merged: dict = {}
    for term in terms:
        if isinstance(term, RatTerm):
            if term.payload.is_zero():
                continue
            rat_sum = term.payload if rat_sum is None else rat_sum + term.payload
            continue
        if not isinstance(term, (LogTerm, AtanTerm)):
            raise TypeError(f"unknown antiderivative term {term!r}")
        if term.coefficient == 0 or term.argument.is_constant():
            continue
        if isinstance(term, LogTerm):
            if term.absolute and leading_sign(term.argument) < 0:
                term = replace(term, argument=-term.argument)
            key = (1, _argument_key(term.argument), term.absolute)
        else:
            key = (0, _argument_key(term.argument))
        prev = merged.get(key)
        merged[key] = (
            term if prev is None else replace(prev, coefficient=prev.coefficient + term.coefficient)
        )
    out: list[Term] = []
    if rat_sum is not None and not rat_sum.is_zero():
        out.append(RatTerm(rat_sum))
    # logs before atans, each by argument key descending; the sort is stable
    out.extend(
        t
        for key, t in sorted(merged.items(), key=lambda kv: kv[0][:2], reverse=True)
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


def partial_fractions(f: RationalFunction) -> list[Term]:
    """Antiderivative terms of f over rational linear factors plus at most
    one quadratic.

    The denominator D must be squarefree (run :func:`hermite_reduce` first).
    The polynomial quotient integrates into a :class:`RatTerm`; each
    rational root r of D gives (A(r)/D'(r))*ln|u - r|, with A the proper
    numerator.  With L the product of the u - r, the cofactor Q = D/L and its
    numerator N = (A - Q*sum(res*L/(u - r)))/L come from two exact
    divisions.  A quadratic Q = u^2+pu+q with N = bu + c gives
    (b/2)ln(u^2+pu+q) + k*atan((u+p/2)/m) with m^2 = q - p^2/4, provided m
    is rational (:class:`IrrationalAtanScale` otherwise, when the atan
    coefficient is nonzero).  A cofactor of degree three or more raises
    :class:`UnsupportedDenominator`, which carries Q.
    """
    if f.is_zero():
        return []
    var = f.var
    quo, A = divmod(f.num, f.den)
    terms: list[Term] = []
    if not quo.is_zero():
        terms.append(RatTerm(RationalFunction.from_polynomial(quo.integral())))
    if A.is_zero():
        return terms
    D = f.den
    dD = D.derivative()
    if not poly_gcd(D, dD).is_constant():
        raise ValueError("denominator is not squarefree; apply hermite_reduce first")
    u = Polynomial.variable(var)
    L = Polynomial.constant(1, var)
    residues = []
    for r in rational_roots(D):
        residue = A(r) / dD(r)
        terms.append(LogTerm(residue, RationalFunction.from_polynomial(u - r)))
        residues.append((residue, u - r))
        L = L * (u - r)
    Q = D.exact_div(L)
    if Q.is_constant():
        return terms
    if Q.degree > 2:
        raise UnsupportedDenominator(Q)
    S = Polynomial.zero(var)
    for residue, linear in residues:
        S = S + L.exact_div(linear) * residue
    N = (A - Q * S).exact_div(L)
    b, c0 = N.coefficient(1), N.coefficient(0)
    p, q = Q.coefficient(1), Q.coefficient(0)
    disc = q - p * p / 4
    if b != 0:
        terms.append(LogTerm(b / 2, RationalFunction.from_polynomial(Q), absolute=disc <= 0))
    atan_weight = c0 - b * p / 2
    if atan_weight != 0:
        m = rational_sqrt(disc)
        if m is None or m == 0:
            raise IrrationalAtanScale(
                f"completed square of {Q} needs side sqrt({disc}), which is not rational"
            )
        arg = ratfunc_normalize(u + p / 2, Polynomial.constant(m, var))
        terms.append(AtanTerm(atan_weight / m, arg))
    return terms


# ---------------------------------------------------------------------------
# integration


def integrate_rational(f: RationalFunction) -> Antiderivative:
    """Exact antiderivative of a rational function in its own variable:
    Hermite's rational part plus the :func:`partial_fractions` terms of the
    squarefree remainder, merged by :func:`make_antiderivative`."""
    rational_part, remainder = hermite_reduce(f)
    return make_antiderivative([RatTerm(rational_part)] + partial_fractions(remainder), f.var)


# ---------------------------------------------------------------------------
# derivative and numeric evaluation of an Antiderivative


def symbolic_derivative(F: Antiderivative):
    """Sum of the terms' exact derivatives; RationalFunction in parameter
    space, TrigRational after back-substitution."""
    pieces = [term.derivative() for term in F.terms]
    if pieces:
        return sum(pieces[1:], pieces[0])
    if F.variable == "x":
        return TrigRational.constant(0)
    return RationalFunction.constant(0, F.variable)


def eval_antiderivative(F: Antiderivative, x: float, singular_tol: float = 1e-12) -> float:
    """Double-precision value at x: the sum of the terms' values.

    Raises :class:`SingularPoint` where a log argument is within
    ``singular_tol`` of zero, or where the denominator of a parameter-space
    (RationalFunction) payload is.  TrigRational payloads keep the pole
    guard of :func:`secint.trig.eval_trig`, a zero of the cos-polynomial
    denominator within about 1e-12 in cos x, whatever ``singular_tol`` is.
    """
    return sum((term.value(x, singular_tol) for term in F.terms), 0.0)
