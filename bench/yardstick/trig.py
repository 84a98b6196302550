"""Rational expressions in cos x and sin x with exact arithmetic.

Internally an expression is a quotient of bivariate polynomials in
``c = cos x`` and ``s = sin x``, always reduced modulo ``s^2 -> 1 - c^2``.
After that reduction every element is ``A(c) + B(c)*s``, so a pair of
univariate polynomials suffices (:class:`TrigPolynomial`).

Denominators are rationalized to be s-free by conjugate multiplication,
``(A + B*s)(A - B*s) = A^2 - B^2*(1 - c^2)``, then the common polynomial gcd
is removed and the denominator made monic.  Because the coordinate ring of
the circle is an integral domain and {1, s} is a free basis over Q[c], this
canonical form is unique: equality of values is structural equality of the
dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DenominatorVanishesOnCircle, SingularPoint
from .ratfunc import (
    CoeffLike,
    Polynomial,
    RationalFunction,
    poly_gcd,
)

COS_VAR = "c"


def _cpoly(*coeffs: CoeffLike) -> Polynomial:
    return Polynomial.from_coefficients(coeffs, var=COS_VAR)


# s^2 rewrites to this polynomial in c.
_ONE_MINUS_C2 = _cpoly(1, 0, -1)
_NEG_C = _cpoly(0, -1)


@dataclass(frozen=True)
class TrigPolynomial:
    """Element ``p(c) + q(c)*s`` of the circle's coordinate ring."""

    p: Polynomial
    q: Polynomial

    @staticmethod
    def constant(value: CoeffLike) -> TrigPolynomial:
        return TrigPolynomial(_cpoly(value), _cpoly())

    @staticmethod
    def zero() -> TrigPolynomial:
        return TrigPolynomial(_cpoly(), _cpoly())

    @staticmethod
    def cos() -> TrigPolynomial:
        return TrigPolynomial(_cpoly(0, 1), _cpoly())

    @staticmethod
    def sin() -> TrigPolynomial:
        return TrigPolynomial(_cpoly(), _cpoly(1))

    @staticmethod
    def from_cos_polynomial(p: Polynomial) -> TrigPolynomial:
        return TrigPolynomial(p.rename(COS_VAR), _cpoly())

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def is_cos_polynomial(self) -> bool:
        return self.q.is_zero()

    def __add__(self, other: TrigPolynomial) -> TrigPolynomial:
        return TrigPolynomial(self.p + other.p, self.q + other.q)

    def __neg__(self) -> TrigPolynomial:
        return TrigPolynomial(-self.p, -self.q)

    def __sub__(self, other: TrigPolynomial) -> TrigPolynomial:
        return TrigPolynomial(self.p - other.p, self.q - other.q)

    def __mul__(self, other: TrigPolynomial) -> TrigPolynomial:
        # (p1 + q1 s)(p2 + q2 s) with s^2 -> 1 - c^2
        p = self.p * other.p + self.q * other.q * _ONE_MINUS_C2
        q = self.p * other.q + self.q * other.p
        return TrigPolynomial(p, q)

    def scaled(self, k: CoeffLike) -> TrigPolynomial:
        return TrigPolynomial(self.p * k, self.q * k)

    def __pow__(self, n: int) -> TrigPolynomial:
        if n < 0:
            raise ValueError("negative power of a TrigPolynomial")
        result = TrigPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> TrigPolynomial:
        return TrigPolynomial(self.p, -self.q)

    def flip_cos(self) -> TrigPolynomial:
        """Substitute c -> -c (the map x -> pi - x, fixing s)."""
        return TrigPolynomial(self.p(_NEG_C), self.q(_NEG_C))

    def x_derivative(self) -> TrigPolynomial:
        """d/dx with c' = -s and s' = c.

        For A(c) + B(c)s this is (B c - B'(1 - c^2)) + (-A') s, using
        s^2 -> 1 - c^2 on the B'(c)(-s)s term.
        """
        a, b = self.p, self.q
        return TrigPolynomial(
            b * Polynomial.variable(COS_VAR) - b.derivative() * _ONE_MINUS_C2,
            -a.derivative(),
        )

    def eval(self, c: float, s: float) -> float:
        return self.p(c) + self.q(c) * s

    def eval_rational(self, cos_rf: RationalFunction, sin_rf: RationalFunction) -> RationalFunction:
        """Compose with rational expressions for cos and sin."""
        out = _as_rf(self.p(cos_rf), cos_rf.var)
        if not self.q.is_zero():
            out = out + _as_rf(self.q(cos_rf), cos_rf.var) * sin_rf
        return out


def _as_rf(value, var: str) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value)
    return RationalFunction.constant(value, var)


TrigLike = Union["TrigRational", TrigPolynomial, Polynomial, int, Fraction]


@dataclass(frozen=True)
class TrigRational:
    """Canonical quotient: numerator ``A(c) + B(c)s`` over an s-free monic
    denominator ``D(c)`` with gcd(A, B, D) = 1.  Build values through
    :func:`canonicalize` or the arithmetic operators."""

    num: TrigPolynomial
    den: Polynomial

    @staticmethod
    def constant(value: CoeffLike) -> TrigRational:
        return TrigRational(TrigPolynomial.constant(value), _cpoly(1))

    @staticmethod
    def cos() -> TrigRational:
        return TrigRational(TrigPolynomial.cos(), _cpoly(1))

    @staticmethod
    def sin() -> TrigRational:
        return TrigRational(TrigPolynomial.sin(), _cpoly(1))

    @staticmethod
    def sec() -> TrigRational:
        return TrigRational(TrigPolynomial.constant(1), _cpoly(0, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.q.is_zero() and self.num.p.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant expression")
        return self.num.p.constant_value()

    def __add__(self, other: TrigLike) -> TrigRational:
        other = _coerce_trig(other)
        num = self.num * TrigPolynomial.from_cos_polynomial(other.den)
        num2 = other.num * TrigPolynomial.from_cos_polynomial(self.den)
        return canonicalize(num + num2, self.den * other.den)

    def __radd__(self, other: TrigLike) -> TrigRational:
        return self + other

    def __neg__(self) -> TrigRational:
        return TrigRational(-self.num, self.den)

    def __sub__(self, other: TrigLike) -> TrigRational:
        return self + (-_coerce_trig(other))

    def __rsub__(self, other: TrigLike) -> TrigRational:
        return _coerce_trig(other) - self

    def __mul__(self, other: TrigLike) -> TrigRational:
        other = _coerce_trig(other)
        return canonicalize(self.num * other.num, self.den * other.den)

    def __rmul__(self, other: TrigLike) -> TrigRational:
        return self * other

    def __truediv__(self, other: TrigLike) -> TrigRational:
        other = _coerce_trig(other)
        return canonicalize(
            self.num * TrigPolynomial.from_cos_polynomial(other.den),
            TrigPolynomial.from_cos_polynomial(self.den) * other.num,
        )

    def __rtruediv__(self, other: TrigLike) -> TrigRational:
        return _coerce_trig(other) / self

    def __pow__(self, n: int) -> TrigRational:
        if n < 0:
            return (TrigRational.constant(1) / self) ** (-n)
        return canonicalize(self.num**n, self.den**n)

    def flip_cos(self) -> TrigRational:
        """Canonical form of the expression with cos x replaced by -cos x."""
        return canonicalize(self.num.flip_cos(), self.den(_NEG_C))

    def eval(self, x: float) -> float:
        return eval_trig(self, x)

    def __str__(self) -> str:
        from .render import format_trig_rational

        return format_trig_rational(self)


def _coerce_trig(value: TrigLike) -> TrigRational:
    if isinstance(value, TrigRational):
        return value
    if isinstance(value, TrigPolynomial):
        return canonicalize(value, _cpoly(1))
    if isinstance(value, Polynomial):
        return canonicalize(TrigPolynomial.from_cos_polynomial(value), _cpoly(1))
    return TrigRational.constant(value)


def canonicalize(
    num: TrigPolynomial, den: TrigPolynomial | Polynomial
) -> TrigRational:
    """Reduce a raw quotient to the unique canonical representative.

    The denominator is made s-free by conjugate multiplication, the common
    gcd of (A, B, D) is cancelled, and D is made monic.  Raises
    :class:`DenominatorVanishesOnCircle` if the denominator reduces to zero
    in the quotient ring (for example s^2 + c^2 - 1).
    """
    if isinstance(den, Polynomial):
        den = TrigPolynomial.from_cos_polynomial(den)
    if den.is_zero():
        raise DenominatorVanishesOnCircle(
            "denominator reduces to zero on the unit circle"
        )
    if den.is_cos_polynomial():
        d = den.p
    else:
        conj = den.conjugate()
        num = num * conj
        sfree = den * conj
        # A^2 - B^2(1-c^2) is s-free by construction; zero would force the
        # denominator itself to be zero, handled above.
        d = sfree.p
        if d.is_zero():
            raise DenominatorVanishesOnCircle(
                "denominator reduces to zero on the unit circle"
            )
    g = poly_gcd(poly_gcd(num.p, num.q), d)
    if not g.is_constant():
        num = TrigPolynomial(num.p.exact_div(g), num.q.exact_div(g))
        d = d.exact_div(g)
    lead = d.leading_coefficient
    if lead != 1:
        num = num.scaled(1 / lead)
        d = d.monic()
    return TrigRational(num, d)


def trig_derivative(R: TrigRational) -> TrigRational:
    """Derivative with respect to x, using c' = -s and s' = c."""
    n, d = R.num, R.den
    # quotient rule; dD/dx = D'(c) * (-s)
    d_num = n.x_derivative() * TrigPolynomial.from_cos_polynomial(d) - n * TrigPolynomial(
        _cpoly(), -d.derivative()
    )
    return canonicalize(d_num, d * d)


def is_odd_in_cos(R: TrigRational) -> bool:
    """Whether the expression changes sign under cos x -> -cos x.

    This is the structural condition for integrating by u = sin x: odd
    expressions lose their remaining cos after du = cos x dx is factored out.
    """
    return R.flip_cos() == -R


def verify_log_derivative(f: TrigRational, u: TrigRational) -> bool:
    """Check symbolically that u'/u = f, i.e. that ln|u| is an
    antiderivative of f."""
    if u.is_zero():
        raise ZeroDivisionError("log derivative of the zero expression")
    return trig_derivative(u) == f * u


def eval_trig(R: TrigRational, x: float) -> float:
    """Double-precision value of R at x.

    Raises :class:`SingularPoint` when the denominator at (cos x, sin x) is
    smaller than 1e-12 in absolute value.
    """
    c = math.cos(x)
    s = math.sin(x)
    denv = R.den(c)
    if abs(denv) < 1e-12:
        raise SingularPoint(f"denominator vanishes near x = {x!r}")
    return R.num.eval(c, s) / denv
