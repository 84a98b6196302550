from fractions import Fraction as F

from secint.integrate import (
    AtanTerm,
    LogTerm,
    RatTerm,
    make_antiderivative,
)
from secint.parse import parse_trig
from secint.ratfunc import Polynomial, RationalFunction
from secint.render import (
    format_antiderivative,
    format_polynomial,
    format_rational_function,
    format_trig_rational,
)


def P(*coeffs, var="u"):
    return Polynomial.from_coefficients([F(c) for c in coeffs], var)


def test_polynomial_strings():
    assert format_polynomial(P(1, -1)) == "1-u"
    assert format_polynomial(P(-1, 1)) == "u-1"
    assert format_polynomial(P(1, 0, 1)) == "u^2+1"
    assert format_polynomial(P(1, 2, 1)) == "u^2+2*u+1"
    assert format_polynomial(P(0, 2)) == "2*u"
    assert format_polynomial(P(0, -1)) == "-u"
    assert format_polynomial(P(F(3, 2))) == "3/2"
    assert format_polynomial(Polynomial.zero("u")) == "0"
    assert format_polynomial(P(0, F(1, 2), 0, -3)) == "-3*u^3+1/2*u"


def test_rational_function_strings():
    two_over = RationalFunction(P(2), P(-1, 1))
    assert format_rational_function(two_over) == "2/(u-1)"
    assert format_rational_function(RationalFunction(P(0, 1), P(1, 0, 1))) == (
        "u/(u^2+1)"
    )
    assert format_rational_function(RationalFunction.from_polynomial(P(1, 1))) == "1+u"
    assert str(two_over) == "2/(u-1)"


def test_trig_strings_catch_canonical_forms():
    assert format_trig_rational(parse_trig("sec(x)")) == "sec(x)"
    assert format_trig_rational(parse_trig("tan(x) + cos(x)/(1 + sin(x))")) == "sec(x)"
    assert format_trig_rational(parse_trig("1/(2 + cos(x))")) == "1/(2+cos(x))"
    assert format_trig_rational(parse_trig("sec(x)^2")) == "sec(x)^2"
    assert format_trig_rational(parse_trig("sec(x)*tan(x)")) == "sec(x)*tan(x)"
    assert format_trig_rational(parse_trig("sec(x) + tan(x)")) == "sec(x)+tan(x)"
    assert format_trig_rational(parse_trig("1 + sin(x)")) == "1+sin(x)"
    assert format_trig_rational(parse_trig("sin(x)*cos(x)")) == "cos(x)*sin(x)"
    assert format_trig_rational(parse_trig("csc(x)")) == "-sin(x)/(cos(x)^2-1)"
    assert str(parse_trig("sec(x)")) == "sec(x)"


def test_round_trip_through_parser():
    for source in ["sec(x)", "1/(2+cos(x))", "sec(x)^2+sec(x)*tan(x)", "1+sin(x)"]:
        rendered = format_trig_rational(parse_trig(source))
        assert parse_trig(rendered) == parse_trig(source)


def test_antiderivative_strings():
    sec_tan = parse_trig("sec(x) + tan(x)")
    F1 = make_antiderivative([LogTerm(F(1), sec_tan)], "x")
    assert format_antiderivative(F1) == "ln|sec(x)+tan(x)| + C"

    one_plus = parse_trig("1 + sin(x)")
    one_minus = parse_trig("1 - sin(x)")
    F2 = make_antiderivative(
        [LogTerm(F(1, 2), one_plus), LogTerm(F(-1, 2), one_minus)], "x"
    )
    assert format_antiderivative(F2) == "1/2*ln|1+sin(x)| - 1/2*ln|1-sin(x)| + C"

    t = RationalFunction.variable("t")
    F3 = make_antiderivative(
        [LogTerm(F(1), t + 1), LogTerm(F(-1), 1 - t)], "t"
    )
    assert format_antiderivative(F3) == "ln|1+t| - ln|1-t| + C"

    u = RationalFunction.variable("u")
    F4 = make_antiderivative(
        [
            RatTerm(RationalFunction(P(-1), P(0, 1))),
            LogTerm(F(1), u),
        ],
        "u",
    )
    assert format_antiderivative(F4) == "-1/u + ln|u| + C"

    F5 = make_antiderivative([AtanTerm(F(2), t)], "t")
    assert format_antiderivative(F5) == "2*atan(t) + C"

    F6 = make_antiderivative([], "u")
    assert format_antiderivative(F6) == "0 + C"

    F7 = make_antiderivative(
        [LogTerm(F(1, 2), u * u + 1, absolute=False), AtanTerm(F(-1), u)], "u"
    )
    assert format_antiderivative(F7) == "1/2*ln(u^2+1) - atan(u) + C"

    F8 = make_antiderivative([RatTerm(u * u / 2)], "u")
    assert format_antiderivative(F8) == "1/2*u^2 + C"


def test_rendering_is_order_independent():
    t = RationalFunction.variable("t")
    terms = [
        LogTerm(F(1), t + 1),
        LogTerm(F(-1), 1 - t),
        AtanTerm(F(1, 3), t),
        RatTerm(t),
    ]
    forward = format_antiderivative(make_antiderivative(terms, "t"))
    backward = format_antiderivative(make_antiderivative(terms[::-1], "t"))
    assert forward == backward


def test_ascii_only():
    rendered = format_antiderivative(
        make_antiderivative([LogTerm(F(-3, 7), parse_trig("1 - sin(x)"))], "x")
    )
    assert rendered == "-3/7*ln|1-sin(x)| + C"
    assert rendered.isascii()
