"""Exact univariate polynomial and rational-function arithmetic.

Coefficients are ``fractions.Fraction`` at every interface: every operation
in the symbolic pipeline is exact, so gcd cancellation and partial fractions
are reliable.  Inside :func:`poly_gcd` the work is done on primitive integer
coefficient lists, which avoids the coefficient swell of Euclid over Q, and
only the monic result is turned back into Fractions.  No floating point
enters here; evaluation at a float argument is the only place floats appear,
and that is the caller's choice.

Canonical forms
    Polynomial        trailing zero coefficients stripped; the zero
                      polynomial has an empty coefficient tuple and degree -1.
    RationalFunction  denominator monic and coprime to the numerator; the
                      zero function is 0/1.

With these conventions equality is plain component-wise comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

# The coefficient field.  Kept under a domain alias so call sites read as
# intended ("a Rational residue") rather than as a stdlib detail.
Rational = Fraction

CoeffLike = Union[int, Fraction]


def _as_fraction(value: CoeffLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial: ``coefficients[k]`` multiplies ``var**k``.

    The tuple never ends in a zero, so ``len(coefficients) - 1`` is the
    degree; the zero polynomial is the empty tuple with sentinel degree -1.
    Constant polynomials combine with any variable tag; all other mixed-tag
    arithmetic is an error.
    """

    coefficients: tuple[Fraction, ...]
    var: str = "u"

    @staticmethod
    def from_coefficients(coeffs: Iterable[CoeffLike], var: str = "u") -> Polynomial:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs), var)

    @staticmethod
    def constant(value: CoeffLike, var: str = "u") -> Polynomial:
        return Polynomial.from_coefficients([value], var)

    @staticmethod
    def variable(var: str = "u") -> Polynomial:
        return Polynomial((Fraction(0), Fraction(1)), var)

    @staticmethod
    def zero(var: str = "u") -> Polynomial:
        return Polynomial((), var)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_constant(self) -> bool:
        return len(self.coefficients) <= 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[-1]

    def constant_value(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[0]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def _joined_var(self, other: Polynomial) -> str:
        if self.var == other.var:
            return self.var
        if self.is_constant():
            return other.var
        if other.is_constant():
            return self.var
        raise ValueError(f"mixed polynomial variables {self.var!r} and {other.var!r}")

    def __add__(self, other: Polynomial | CoeffLike) -> Polynomial:
        other = _coerce_poly(other, self.var)
        var = self._joined_var(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial.from_coefficients(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)], var
        )

    def __radd__(self, other: CoeffLike) -> Polynomial:
        return self + other

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coefficients), self.var)

    def __sub__(self, other: Polynomial | CoeffLike) -> Polynomial:
        return self + (-_coerce_poly(other, self.var))

    def __rsub__(self, other: CoeffLike) -> Polynomial:
        return _coerce_poly(other, self.var) - self

    def __mul__(self, other: Polynomial | CoeffLike) -> Polynomial:
        if not isinstance(other, Polynomial):
            # a scalar scales the coefficients; no convolution
            k = _as_fraction(other)
            if k == 0:
                return Polynomial.zero(self.var)
            return Polynomial(tuple(c * k for c in self.coefficients), self.var)
        var = self._joined_var(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(var)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial.from_coefficients(out, var)

    def __rmul__(self, other: CoeffLike) -> Polynomial:
        return self * other

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        other = _coerce_poly(other, self.var)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = self._joined_var(other)
        rem = list(self.coefficients)
        dq = len(rem) - len(other.coefficients)
        if dq < 0:
            return Polynomial.zero(var), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading_coefficient
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coefficients):
                    rem[k + j] -= c * b
        return (
            Polynomial.from_coefficients(quo, var),
            Polynomial.from_coefficients(rem, var),
        )

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def exact_div(self, other: Polynomial) -> Polynomial:
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> Polynomial:
        if self.is_zero():
            return self
        lead = self.leading_coefficient
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self.coefficients), self.var)

    def derivative(self) -> Polynomial:
        return Polynomial.from_coefficients(
            [k * c for k, c in enumerate(self.coefficients)][1:], self.var
        )

    def integral(self) -> Polynomial:
        """Antiderivative with zero constant term."""
        return Polynomial.from_coefficients(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coefficients)],
            self.var,
        )

    def __call__(self, x):
        """Horner evaluation.  Exact for Fraction/int arguments, float for
        float arguments, composition for Polynomial or RationalFunction
        arguments."""
        if isinstance(x, (Polynomial, RationalFunction)):
            acc = x * 0
            for c in reversed(self.coefficients):
                acc = acc * x + c
            return acc
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def rename(self, var: str) -> Polynomial:
        return Polynomial(self.coefficients, var)

    def __str__(self) -> str:
        from .render import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]}, var={self.var!r})"


def _coerce_poly(value: Polynomial | CoeffLike, var: str) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value, var)


def _primitive_ints(p: Polynomial) -> list[int]:
    """Ascending integer coefficients of p with denominators cleared and
    content removed; the zero polynomial gives the empty list."""
    if p.is_zero():
        return []
    scale = math.lcm(*(c.denominator for c in p.coefficients))
    ints = [c.numerator * (scale // c.denominator) for c in p.coefficients]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the primitive pseudo-remainder
    sequence over the integers (Knuth, TAOCP vol. 2, section 4.6.1).

    Both arguments are scaled to primitive integer polynomials; each step
    takes the pseudo-remainder and divides out its content, so every
    remainder in the sequence is a primitive integer polynomial and no
    Fraction is built until the result is made monic.  gcd(p, 0) is monic(p); gcd(0, 0)
    is 0.
    """
    q = _coerce_poly(q, p.var)
    var = p._joined_var(q)
    a, b = _primitive_ints(p), _primitive_ints(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return Polynomial.constant(1, var)
        lb, nb = b[-1], len(b)
        while len(a) >= nb:
            # a <- (lb/g) a - (la/g) u^shift b cancels the leading term
            g = math.gcd(a[-1], lb)
            ka, kb = lb // g, a[-1] // g
            shift = len(a) - nb
            if ka != 1:
                a = [ka * c for c in a]
            for j, c in enumerate(b, shift):
                a[j] -= kb * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if a:
            content = math.gcd(*a)
            a = [c // content for c in a]
        a, b = b, a
    if not a:
        return Polynomial.zero(var)
    lead = a[-1]
    return Polynomial(tuple(Fraction(c, lead) for c in a), var)


def poly_xgcd(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid: returns (g, s, t) with s*p + t*q = g, g monic."""
    var = p._joined_var(q)
    r0, r1 = p, q
    s0, s1 = Polynomial.constant(1, var), Polynomial.zero(var)
    t0, t1 = Polynomial.zero(var), Polynomial.constant(1, var)
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading_coefficient
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


def squarefree_factorization(
    p: Polynomial,
) -> tuple[Fraction, list[tuple[Polynomial, int]]]:
    """Yun's squarefree decomposition.

    Returns ``(lead, [(factor, multiplicity), ...])`` with the factors monic,
    squarefree and pairwise coprime, such that
    ``p = lead * prod(factor ** multiplicity)``.
    """
    if p.is_zero():
        raise ValueError("squarefree factorization of the zero polynomial")
    lead = p.leading_coefficient
    w = p.monic()
    if w.degree < 1:
        return lead, []
    factors: list[tuple[Polynomial, int]] = []
    g = poly_gcd(w, w.derivative())
    if g.is_constant():
        return lead, [(w, 1)]
    b = w.exact_div(g)
    d = w.derivative().exact_div(g) - b.derivative()
    i = 1
    while not b.is_constant():
        a = poly_gcd(b, d)
        if not a.is_constant():
            factors.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return lead, factors


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
    return sorted(out)


def rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of ``p`` with multiplicity, sorted ascending.

    Uses the rational root theorem on the integer-scaled polynomial, then
    deflates each found root until it stops dividing.
    """
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    roots: list[Fraction] = []
    work = p
    # Strip roots at zero first so the constant term below is nonzero.
    while not work.is_zero() and work.coefficient(0) == 0 and work.degree >= 1:
        roots.append(Fraction(0))
        work = work.exact_div(Polynomial.variable(p.var))
    if work.degree < 1:
        return sorted(roots)
    ints = _primitive_ints(work)
    candidates = {
        Fraction(sign * num, den)
        for num in _divisors(ints[0])
        for den in _divisors(ints[-1])
        for sign in (1, -1)
    }
    for r in sorted(candidates):
        while work(r) == 0:
            roots.append(r)
            work = work.exact_div(
                Polynomial.from_coefficients([-r, 1], work.var)
            )
    return sorted(roots)


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials in canonical form (monic denominator,
    gcd-cancelled).  Construct through :func:`ratfunc_normalize` or the
    arithmetic operators; the raw constructor trusts its inputs."""

    num: Polynomial
    den: Polynomial

    @staticmethod
    def from_polynomial(p: Polynomial) -> RationalFunction:
        return RationalFunction(p, Polynomial.constant(1, p.var))

    @staticmethod
    def constant(value: CoeffLike, var: str = "u") -> RationalFunction:
        return RationalFunction.from_polynomial(Polynomial.constant(value, var))

    @staticmethod
    def variable(var: str = "u") -> RationalFunction:
        return RationalFunction.from_polynomial(Polynomial.variable(var))

    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_constant() else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.constant_value()

    def __add__(self, other: RationalFunction | Polynomial | CoeffLike) -> RationalFunction:
        other = _coerce_ratfunc(other, self.den.var)
        return ratfunc_normalize(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __radd__(self, other: CoeffLike) -> RationalFunction:
        return self + other

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction | Polynomial | CoeffLike) -> RationalFunction:
        return self + (-_coerce_ratfunc(other, self.den.var))

    def __rsub__(self, other: CoeffLike) -> RationalFunction:
        return _coerce_ratfunc(other, self.den.var) - self

    def __mul__(self, other: RationalFunction | Polynomial | CoeffLike) -> RationalFunction:
        other = _coerce_ratfunc(other, self.den.var)
        return ratfunc_normalize(self.num * other.num, self.den * other.den)

    def __rmul__(self, other: CoeffLike) -> RationalFunction:
        return self * other

    def __truediv__(self, other: RationalFunction | Polynomial | CoeffLike) -> RationalFunction:
        other = _coerce_ratfunc(other, self.den.var)
        return ratfunc_normalize(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: CoeffLike) -> RationalFunction:
        return _coerce_ratfunc(other, self.den.var) / self

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return (1 / self) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def derivative(self) -> RationalFunction:
        return ratfunc_normalize(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        """Evaluate; composes when given a Polynomial or RationalFunction."""
        if isinstance(x, (Polynomial, RationalFunction)):
            num = self.num(x)
            den = self.den(x)
            num = num if isinstance(num, RationalFunction) else _coerce_ratfunc(num, self.var)
            den = den if isinstance(den, RationalFunction) else _coerce_ratfunc(den, self.var)
            return num / den
        return self.num(x) / self.den(x)

    def rename(self, var: str) -> RationalFunction:
        return RationalFunction(self.num.rename(var), self.den.rename(var))

    def __str__(self) -> str:
        from .render import format_rational_function

        return format_rational_function(self)


def _coerce_ratfunc(
    value: RationalFunction | Polynomial | CoeffLike, var: str
) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value)
    return RationalFunction.constant(value, var)


def ratfunc_normalize(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Canonical quotient: cancel the gcd, rescale to a monic denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in rational function")
    var = num._joined_var(den)
    if num.is_zero():
        return RationalFunction(Polynomial.zero(var), Polynomial.constant(1, var))
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = num.exact_div(g)
        den = den.exact_div(g)
    lead = den.leading_coefficient
    if lead != 1:
        num = num * (1 / lead)
        den = den.monic()
    if not num.is_constant():
        num = num.rename(var)
    if not den.is_constant():
        den = den.rename(var)
    return RationalFunction(num, den)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    ns = math.isqrt(value.numerator)
    ds = math.isqrt(value.denominator)
    if ns * ns == value.numerator and ds * ds == value.denominator:
        return Fraction(ns, ds)
    return None
