"""Text front end: a small recursive-descent grammar for sin/cos expressions.

Grammar (whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := integer | func '(' 'x' ')' | '(' expr ')'
    func   := sin | cos | tan | sec | csc | cot

Rational coefficients are written with '/', e.g. ``1/2*sec(x)``.  The
variable x may appear only as a trig argument: a bare x cannot be carried by
the cos/sin representation, so it is rejected with a diagnostic rather than
silently misread.  The typographic minus U+2212 is accepted as '-'.

Every node evaluates to a raw quotient: a (numerator, denominator) pair of
:class:`TrigPolynomial` with no common factor removed.  Sums, products and
quotients combine the pairs without a gcd; :func:`secint.trig.canonicalize`
runs once on the base of each ``^``, so a power does not raise an unreduced
base, and once on the whole expression.  Canonical forms are unique, so
``tan(x) + cos(x)/(1+sin(x))`` parses to the same :class:`TrigRational` as
``sec(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import trig
from .errors import DenominatorVanishesOnCircle, TrigParseError
from .trig import TrigPolynomial, TrigRational

# The raw input type: a string in the grammar above.
TrigExpressionSource = str

# A parse node: numerator and denominator, not reduced.
_Raw = tuple[TrigPolynomial, TrigPolynomial]

_ONE = TrigPolynomial.constant(1)
_COS = TrigPolynomial.cos()
_SIN = TrigPolynomial.sin()

_FUNCTIONS: dict[str, _Raw] = {
    "sin": (_SIN, _ONE),
    "cos": (_COS, _ONE),
    "tan": (_SIN, _COS),
    "sec": (_ONE, _COS),
    "csc": (_ONE, _SIN),
    "cot": (_COS, _SIN),
}


def _inverse(value: _Raw) -> _Raw:
    # a zero divisor is refused here: a pair with a zero denominator,
    # inverted once more, would read as the value 0
    num, den = value
    if num.is_zero():
        raise DenominatorVanishesOnCircle("denominator reduces to zero on the unit circle")
    return den, num


def _sum(a: _Raw, b: _Raw) -> _Raw:
    if a[1] == b[1]:
        return a[0] + b[0], a[1]
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _power(base: _Raw, exponent: int) -> _Raw:
    """``base ^ exponent`` of the canonical form of ``base``."""
    canonical = trig.canonicalize(*base)
    value = (canonical.num, TrigPolynomial.from_cos_polynomial(canonical.den))
    if exponent < 0:
        value = _inverse(value)
    return value[0] ** abs(exponent), value[1] ** abs(exponent)


_OPERATORS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":
            ch = "-"
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise TrigParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def accept_op(self, *ops: str) -> _Token | None:
        if self.current.kind == "op" and self.current.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise TrigParseError(f"expected {op!r}", self.current.pos)

    def parse_expr(self) -> _Raw:
        negate = False
        sign = self.accept_op("+", "-")
        if sign is not None:
            negate = sign.text == "-"
        value = self.parse_term()
        if negate:
            value = (-value[0], value[1])
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return value
            rhs = self.parse_term()
            if op.text == "-":
                rhs = (-rhs[0], rhs[1])
            value = _sum(value, rhs)

    def parse_term(self) -> _Raw:
        value = self.parse_factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return value
            rhs = self.parse_factor()
            if op.text == "/":
                rhs = _inverse(rhs)
            value = (value[0] * rhs[0], value[1] * rhs[1])

    def parse_factor(self) -> _Raw:
        value = self.parse_base()
        if self.accept_op("^"):
            minus = self.accept_op("-") is not None
            tok = self.current
            if tok.kind != "int":
                raise TrigParseError("expected integer exponent after '^'", tok.pos)
            self.advance()
            exponent = int(tok.text)
            value = _power(value, -exponent if minus else exponent)
        return value

    def parse_base(self) -> _Raw:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return TrigPolynomial.constant(int(tok.text)), _ONE
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.parse_expr()
            self.expect_op(")")
            return value
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                raise TrigParseError(
                    "bare 'x' is not representable here; use it only as a trig argument",
                    tok.pos,
                )
            value = _FUNCTIONS.get(tok.text)
            if value is None:
                raise TrigParseError(
                    f"unknown function {tok.text!r} (expected one of "
                    + ", ".join(sorted(_FUNCTIONS))
                    + ")",
                    tok.pos,
                )
            self.expect_op("(")
            arg = self.current
            if not (arg.kind == "name" and arg.text == "x"):
                raise TrigParseError(
                    f"argument of {tok.text} must be exactly 'x'", arg.pos
                )
            self.advance()
            self.expect_op(")")
            return value
        raise TrigParseError("expected a number, function call, or '('", tok.pos)


def parse_trig(text: TrigExpressionSource) -> TrigRational:
    """Parse the grammar above into a canonical :class:`TrigRational`.

    Raises :class:`TrigParseError` with a character position on syntax
    errors, and :class:`DenominatorVanishesOnCircle` if a denominator is
    identically zero on the circle (e.g. ``1/(sin(x)^2 + cos(x)^2 - 1)``).
    """
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    if parser.current.kind != "end":
        raise TrigParseError("unexpected trailing input", parser.current.pos)
    return trig.canonicalize(*value)
