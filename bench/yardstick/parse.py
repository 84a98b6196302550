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

Every node evaluates straight into a canonical :class:`TrigRational`, so
``tan(x) + cos(x)/(1+sin(x))`` parses to the same value as ``sec(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TrigParseError
from .trig import TrigRational

# The raw input type: a string in the grammar above.
TrigExpressionSource = str

_FUNCTIONS = {
    "sin": TrigRational.sin,
    "cos": TrigRational.cos,
    "tan": lambda: TrigRational.sin() / TrigRational.cos(),
    "sec": lambda: 1 / TrigRational.cos(),
    "csc": lambda: 1 / TrigRational.sin(),
    "cot": lambda: TrigRational.cos() / TrigRational.sin(),
}

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

    def parse_expr(self) -> TrigRational:
        negate = False
        sign = self.accept_op("+", "-")
        if sign is not None:
            negate = sign.text == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return value
            rhs = self.parse_term()
            value = value + rhs if op.text == "+" else value - rhs

    def parse_term(self) -> TrigRational:
        value = self.parse_factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return value
            rhs = self.parse_factor()
            value = value * rhs if op.text == "*" else value / rhs

    def parse_factor(self) -> TrigRational:
        value = self.parse_base()
        if self.accept_op("^"):
            minus = self.accept_op("-") is not None
            tok = self.current
            if tok.kind != "int":
                raise TrigParseError("expected integer exponent after '^'", tok.pos)
            self.advance()
            exponent = int(tok.text)
            value = value ** (-exponent if minus else exponent)
        return value

    def parse_base(self) -> TrigRational:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return TrigRational.constant(int(tok.text))
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
            maker = _FUNCTIONS.get(tok.text)
            if maker is None:
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
            return maker()
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
    return value
