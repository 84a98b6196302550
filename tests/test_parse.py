"""Parser: grammar coverage and positioned diagnostics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secint.errors import DenominatorVanishesOnCircle, TrigParseError
from secint.parse import parse_trig
from secint.trig import TrigRational

SIN = TrigRational.sin()
COS = TrigRational.cos()
SEC = TrigRational.sec()


def test_atoms():
    assert parse_trig("sin(x)") == SIN
    assert parse_trig("cos(x)") == COS
    assert parse_trig("sec(x)") == SEC
    assert parse_trig("tan(x)") == SIN / COS
    assert parse_trig("csc(x)") == 1 / SIN
    assert parse_trig("cot(x)") == COS / SIN
    assert parse_trig("7") == TrigRational.constant(7)


def test_sec_is_one_over_cos():
    r = parse_trig("sec(x)")
    assert r.num.p.coefficients == (1,)
    assert r.den.coefficients == (0, 1)


def test_rational_coefficients_via_slash():
    assert parse_trig("1/2*sec(x)") == SEC / 2
    assert parse_trig("3/4") == TrigRational.constant(1) * 3 / 4


def test_identity_collapses_to_sec():
    assert parse_trig("tan(x) + cos(x)/(1+sin(x))") == parse_trig("sec(x)")


def test_pythagorean_identity():
    assert parse_trig("sin(x)^2 + cos(x)^2") == TrigRational.constant(1)


def test_precedence_and_parens():
    assert parse_trig("1 + 2*cos(x)") == 1 + 2 * COS
    assert parse_trig("(1 + cos(x))^2") == (1 + COS) ** 2
    assert parse_trig("sin(x)/cos(x)/cos(x)") == SIN / COS**2


def test_unary_minus_and_unicode_minus():
    assert parse_trig("-sin(x)") == -SIN
    assert parse_trig("1 − sin(x)") == 1 - SIN
    assert parse_trig("(-1)*sin(x)") == -SIN


def test_negative_exponent():
    assert parse_trig("cos(x)^-1") == SEC
    assert parse_trig("sin(x)^-2") == 1 / SIN**2


def test_whitespace_insignificant():
    assert parse_trig(" sec( x )  ^ 2 ") == SEC**2


def test_vanishing_denominator_is_reported():
    with pytest.raises(DenominatorVanishesOnCircle):
        parse_trig("1/(sin(x)^2 + cos(x)^2 - 1)")


@pytest.mark.parametrize(
    "text, pos",
    [
        ("sec(y)", 4),
        ("2 + ", 4),
        ("sec(x", 5),
        ("foo(x)", 0),
        ("sin(x) $ 2", 7),
        ("sin(x) 2", 7),
        ("x + 1", 0),
        ("sec(x)^n", 7),
    ],
)
def test_diagnostics_carry_position(text, pos):
    with pytest.raises(TrigParseError) as excinfo:
        parse_trig(text)
    assert excinfo.value.position == pos
    assert f"position {pos}" in str(excinfo.value)


def test_bare_x_message_is_helpful():
    with pytest.raises(TrigParseError) as excinfo:
        parse_trig("x")
    assert "trig argument" in str(excinfo.value)



# Reference: each leaf and each operator evaluated by the TrigRational
# operators, which canonicalize at every node.
LEAVES = {
    "sin(x)": lambda: SIN,
    "cos(x)": lambda: COS,
    "tan(x)": lambda: SIN / COS,
    "sec(x)": lambda: 1 / COS,
    "csc(x)": lambda: 1 / SIN,
    "cot(x)": lambda: COS / SIN,
    "0": lambda: TrigRational.constant(0),
    "1": lambda: TrigRational.constant(1),
    "3": lambda: TrigRational.constant(3),
    "(sin(x)^2+cos(x)^2-1)": lambda: SIN**2 + COS**2 - 1,
}
BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

expressions = st.recursive(
    st.sampled_from(sorted(LEAVES)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(BINARY)), inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("^"), inner, st.integers(-3, 3)),
    ),
    max_leaves=8,
)


def text_of(tree):
    if isinstance(tree, str):
        return tree
    if tree[0] == "neg":
        return f"-({text_of(tree[1])})"
    if tree[0] == "^":
        return f"({text_of(tree[1])})^{tree[2]}"
    return f"({text_of(tree[1])}){tree[0]}({text_of(tree[2])})"


def value_of(tree):
    """The tree evaluated by the operators, innermost node first."""
    if isinstance(tree, str):
        return LEAVES[tree]()
    if tree[0] == "neg":
        return -value_of(tree[1])
    if tree[0] == "^":
        return value_of(tree[1]) ** tree[2]
    return BINARY[tree[0]](value_of(tree[1]), value_of(tree[2]))


@settings(max_examples=150, deadline=None)
@given(tree=expressions)
def test_parse_equals_the_operator_built_value(tree):
    try:
        expected = value_of(tree)
    except DenominatorVanishesOnCircle as vanishing:
        with pytest.raises(DenominatorVanishesOnCircle) as info:
            parse_trig(text_of(tree))
        assert str(info.value) == str(vanishing)
        return
    assert parse_trig(text_of(tree)) == expected
