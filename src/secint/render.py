"""Deterministic plain-text rendering of every symbolic value.

Conventions, chosen once and pinned by tests:

* ASCII only; rational coefficients as ``p/q``; multiplication explicit
  (``1/2*ln|...|``); powers with ``^``.
* Inside an argument the notation is compact (``1-sin(x)``, ``u^2+1``);
  top-level antiderivative terms are joined with `` + `` / `` - `` and the
  string always ends in `` + C``.
* Univariate polynomials of degree at most one render ascending when that
  leads with a positive coefficient (``1-u``), descending otherwise
  (``u-1``); higher degrees always descend (``u^2+1``).
* A trig quotient whose denominator is a power of cos and whose numerator
  fits renders as sec/tan monomials, so (1+sin)/cos prints as
  ``sec(x)+tan(x)``; a polynomial denominator of 1 gives the plain form
  ``1+sin(x)``; anything else falls back to a fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .ratfunc import Polynomial, RationalFunction

if TYPE_CHECKING:
    from .integrate import Antiderivative
    from .trig import TrigRational


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _monomial(coefficient: Fraction, symbol: str, power: int) -> str:
    """One product like 3/2*u^2, with coefficient sign included."""
    if power == 0 or not symbol:
        return format_fraction(coefficient)
    head = symbol if power == 1 else f"{symbol}^{power}"
    if coefficient == 1:
        return head
    if coefficient == -1:
        return "-" + head
    return f"{format_fraction(coefficient)}*{head}"


def _join_compact(parts: list[str]) -> str:
    """Join already-signed monomials with +/- and no spaces."""
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += "-" + part[1:]
        else:
            out += "+" + part
    return out


def _poly_term_order(p: Polynomial) -> list[int]:
    """Exponents in render order (see module docstring)."""
    ks = [k for k, c in enumerate(p.coefficients) if c != 0]
    if not ks:
        return []
    if p.degree <= 1:
        if p.coefficients[ks[0]] > 0:
            return ks
        if p.leading_coefficient > 0:
            return list(reversed(ks))
        return ks
    return list(reversed(ks))


def format_polynomial(p: Polynomial, symbol: str | None = None) -> str:
    if p.is_zero():
        return "0"
    symbol = p.var if symbol is None else symbol
    parts = [_monomial(p.coefficient(k), symbol, k) for k in _poly_term_order(p)]
    return _join_compact(parts)


def _is_single_term(p: Polynomial) -> bool:
    return sum(1 for c in p.coefficients if c != 0) <= 1


def format_rational_function(f: RationalFunction, symbol: str | None = None) -> str:
    num = format_polynomial(f.num, symbol)
    if f.den.is_constant():
        return num
    den = format_polynomial(f.den, symbol)
    if not _is_single_term(f.num):
        num = f"({num})"
    if not _is_single_term(f.den):
        den = f"({den})"
    return f"{num}/{den}"


# ---------------------------------------------------------------------------
# trig rendering


def _trig_poly_parts(p: Polynomial, q: Polynomial) -> list[str]:
    """Monomials of A(c) + B(c)s in ascending order, written with cos/sin."""
    parts: list[str] = []
    for k, c in enumerate(p.coefficients):
        if c != 0:
            parts.append(_monomial(c, "cos(x)", k))
    for k, c in enumerate(q.coefficients):
        if c == 0:
            continue
        if k == 0:
            parts.append(_monomial(c, "sin(x)", 1))
        else:
            cos_part = "cos(x)" if k == 1 else f"cos(x)^{k}"
            coeff = "" if abs(c) == 1 else format_fraction(abs(c)) + "*"
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coeff}{cos_part}*sin(x)")
    return parts


def _sec_tan_parts(R) -> list[str] | None:
    """sec/tan monomials when the denominator is cos^k and degrees fit."""
    den = R.den
    k = den.degree
    if k < 1 or not _is_single_term(den):
        return None
    a, b = R.num.p, R.num.q
    if a.degree > k or b.degree > k - 1:
        return None
    parts: list[str] = []
    for j, c in enumerate(a.coefficients):
        if c != 0:
            parts.append(_monomial(c, "sec(x)", k - j))
    for j, c in enumerate(b.coefficients):
        if c == 0:
            continue
        sec_power = k - 1 - j
        if sec_power == 0:
            parts.append(_monomial(c, "tan(x)", 1))
        else:
            sec_part = "sec(x)" if sec_power == 1 else f"sec(x)^{sec_power}"
            coeff = "" if abs(c) == 1 else format_fraction(abs(c)) + "*"
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coeff}{sec_part}*tan(x)")
    return parts


def format_trig_rational(R) -> str:
    if R.num.is_zero():
        return "0"
    sec_tan = _sec_tan_parts(R)
    if sec_tan is not None:
        return _join_compact(sec_tan)
    num_parts = _trig_poly_parts(R.num.p, R.num.q)
    num = _join_compact(num_parts)
    if R.den.is_constant():
        return num
    den = format_polynomial(R.den, "cos(x)")
    if len(num_parts) > 1:
        num = f"({num})"
    if not _is_single_term(R.den):
        den = f"({den})"
    return f"{num}/{den}"


# ---------------------------------------------------------------------------
# antiderivatives


def _format_argument(arg) -> str:
    from .trig import TrigRational

    if isinstance(arg, TrigRational):
        return format_trig_rational(arg)
    return format_rational_function(arg)


def format_antiderivative(F) -> str:
    """Human-readable sum ending in `` + C``; deterministic per value."""
    from .integrate import AtanTerm, LogTerm, RatTerm

    bodies: list[str] = []
    for term in F.terms:
        if isinstance(term, RatTerm):
            bodies.append(_format_argument(term.payload))
        elif isinstance(term, LogTerm):
            arg = _format_argument(term.argument)
            log = f"ln|{arg}|" if term.absolute else f"ln({arg})"
            if term.coefficient == 1:
                bodies.append(log)
            elif term.coefficient == -1:
                bodies.append("-" + log)
            else:
                coeff = format_fraction(abs(term.coefficient))
                sign = "-" if term.coefficient < 0 else ""
                bodies.append(f"{sign}{coeff}*{log}")
        elif isinstance(term, AtanTerm):
            arg = _format_argument(term.argument)
            atan = f"atan({arg})"
            if term.coefficient == 1:
                bodies.append(atan)
            elif term.coefficient == -1:
                bodies.append("-" + atan)
            else:
                coeff = format_fraction(abs(term.coefficient))
                sign = "-" if term.coefficient < 0 else ""
                bodies.append(f"{sign}{coeff}*{atan}")
        else:
            raise TypeError(f"unknown antiderivative term {term!r}")
    if not bodies:
        return "0 + C"
    out = bodies[0]
    for body in bodies[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out + " + C"
