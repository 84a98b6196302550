"""The four substitutions: maps, applicability, and back-substitution."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fourth_order_diff, random_trig_rational
from secint.errors import NotApplicable
from secint.integrate import (
    Antiderivative,
    LogTerm,
    RatTerm,
    integrate_rational,
    make_antiderivative,
    symbolic_derivative,
)
from secint.ratfunc import Polynomial, RationalFunction, ratfunc_normalize
from secint.substitution import (
    SubstitutionName,
    apply_substitution,
    back_substitute,
    builtin_substitutions,
    get_substitution,
)
from secint.trig import TrigRational, eval_trig, trig_derivative

SIN = TrigRational.sin()
COS = TrigRational.cos()
SEC = TrigRational.sec()


def RF(num, den, var):
    return ratfunc_normalize(
        Polynomial.from_coefficients(num, var),
        Polynomial.from_coefficients(den, var),
    )


def by_name(name):
    return get_substitution(name)


def test_builtin_inventory():
    subs = builtin_substitutions()
    assert [s.name.value for s in subs] == [
        "weierstrass",
        "modified-weierstrass",
        "gregory",
        "barrow",
    ]
    assert [s.param for s in subs] == ["t", "s", "u", "u"]
    lo, hi = subs[0].validity
    assert lo == pytest.approx(-math.pi / 2 + 0.1)
    assert hi == pytest.approx(math.pi / 2 - 0.1)
    assert all(s.validity == subs[0].validity for s in subs)


def test_half_angle_point():
    w = by_name("weierstrass")
    assert w.cos_expr(Fraction(1, 2)) == Fraction(3, 5)
    assert w.sin_expr(Fraction(1, 2)) == Fraction(4, 5)


def test_modified_at_one_is_angle_zero():
    m = by_name("modified-weierstrass")
    assert m.sin_expr(Fraction(1)) == 0
    assert m.cos_expr(Fraction(1)) == 1


def test_gregory_dx():
    g = by_name("gregory")
    assert g.dx_expr == RF((2,), (1, 0, 1), "u")


def test_barrow_is_structural():
    b = by_name("barrow")
    assert b.cos_expr is None
    assert b.dx_expr is None
    assert b.sin_expr == RationalFunction.variable("u")
    assert b.back_sub == SIN


@pytest.mark.parametrize("name", ["weierstrass", "modified-weierstrass", "gregory"])
def test_point_stays_on_circle_exactly(name):
    sub = by_name(name)
    identity = sub.cos_expr**2 + sub.sin_expr**2 - 1
    assert identity.is_zero()


def test_secant_under_each_substitution():
    assert apply_substitution(SEC, by_name("gregory")).integrand == RF(
        (1,), (0, 1), "u"
    )
    assert apply_substitution(SEC, by_name("modified-weierstrass")).integrand == RF(
        (1,), (0, 1), "s"
    )
    assert apply_substitution(SEC, by_name("weierstrass")).integrand == RF(
        (2,), (1, 0, -1), "t"
    )
    assert apply_substitution(SEC, by_name("barrow")).integrand == RF(
        (1,), (1, 0, -1), "u"
    )


def test_barrow_examples():
    assert apply_substitution(SIN * COS, by_name("barrow")).integrand == RF(
        (0, 1), (1,), "u"
    )
    with pytest.raises(NotApplicable):
        apply_substitution(SIN**2, by_name("barrow"))


def test_back_sub_consistency_at_sample_points():
    for sub in builtin_substitutions():
        lo, hi = sub.validity
        for i in range(20):
            x = lo + (hi - lo) * (i + 0.5) / 20
            p = eval_trig(sub.back_sub, x)
            if sub.sin_expr is not None:
                assert sub.sin_expr(p) == pytest.approx(math.sin(x), abs=1e-10)
            if sub.cos_expr is not None:
                assert sub.cos_expr(p) == pytest.approx(math.cos(x), abs=1e-10)


def test_chain_rule_numerically():
    for sub in builtin_substitutions():
        if sub.dx_expr is None:
            continue
        dback = trig_derivative(sub.back_sub)
        lo, hi = sub.validity
        for i in range(10):
            x = lo + (hi - lo) * (i + 0.5) / 10
            p = eval_trig(sub.back_sub, x)
            product = sub.dx_expr(p) * eval_trig(dback, x)
            assert product == pytest.approx(1.0, abs=1e-8)


def test_gregory_equals_modified_on_random_inputs():
    rng = random.Random(23)
    g = by_name("gregory")
    m = by_name("modified-weierstrass")
    for _ in range(50):
        r = random_trig_rational(rng)
        ig = apply_substitution(r, g).integrand
        im = apply_substitution(r, m).integrand
        assert ig == im.rename("u")


def test_back_substitute_log_of_parameter():
    for name in ("gregory", "modified-weierstrass"):
        sub = by_name(name)
        F = make_antiderivative(
            [LogTerm(Fraction(1), RationalFunction.variable(sub.param))], sub.param
        )
        G = back_substitute(F, sub)
        assert G.terms == (LogTerm(Fraction(1), (1 + SIN) / COS),)
        assert str(G) == "ln|sec(x)+tan(x)| + C"


def test_back_substitute_barrow_pair():
    sub = by_name("barrow")
    F = make_antiderivative(
        [
            LogTerm(Fraction(1, 2), RF((1, 1), (1,), "u")),
            LogTerm(Fraction(-1, 2), RF((1, -1), (1,), "u")),
        ],
        "u",
    )
    G = back_substitute(F, sub)
    assert G.terms == (
        LogTerm(Fraction(1, 2), 1 + SIN),
        LogTerm(Fraction(-1, 2), 1 - SIN),
    )
    assert str(G) == "1/2*ln|1+sin(x)| - 1/2*ln|1-sin(x)| + C"


def test_back_substitute_polynomial_payload():
    sub = by_name("barrow")
    result = apply_substitution(SIN * COS, sub)
    F = integrate_rational(result.integrand)
    G = back_substitute(F, sub)
    assert G.terms == (RatTerm(SIN**2 / 2),)
    assert symbolic_derivative(G) == SIN * COS


def test_back_substitute_variable_mismatch():
    F = make_antiderivative(
        [LogTerm(Fraction(1), RationalFunction.variable("t"))], "t"
    )
    with pytest.raises(ValueError):
        back_substitute(F, by_name("gregory"))


def test_full_secant_chain_is_exact():
    # parse-free end to end on the flagship integrand, each method
    for name in ("gregory", "modified-weierstrass", "weierstrass", "barrow"):
        sub = by_name(name)
        result = apply_substitution(SEC, sub)
        F = integrate_rational(result.integrand)
        G = back_substitute(F, sub)
        assert symbolic_derivative(G) == SEC


def test_derivative_of_back_substituted_matches_numerically():
    rng = random.Random(31)
    sub = by_name("weierstrass")
    done = 0
    while done < 10:
        r = random_trig_rational(rng, max_degree=1, bound=2)
        result = apply_substitution(r, sub)
        try:
            F = integrate_rational(result.integrand)
        except Exception:
            continue
        G = back_substitute(F, sub)
        assert symbolic_derivative(G) == r
        done += 1


def horner_composition(payload, back):
    """Reference for back-substitution: Horner over TrigRational, which
    canonicalizes at every step."""
    result = payload(back)
    if not isinstance(result, TrigRational):
        result = TrigRational.constant(result)
    return result


coefficient_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=6
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from([sub.name.value for sub in builtin_substitutions()]),
    poly=coefficient_lists,
    num=coefficient_lists,
    den=coefficient_lists.filter(lambda cs: any(c != 0 for c in cs)),
)
def test_back_substitute_matches_horner_composition(name, poly, num, den):
    sub = by_name(name)
    var = sub.param
    payloads = (
        RationalFunction.from_polynomial(Polynomial.from_coefficients(poly, var)),
        RF(num, den, var),
    )
    for payload in payloads:
        G = back_substitute(Antiderivative((RatTerm(payload),), var), sub)
        expected = horner_composition(payload, sub.back_sub)
        assert G.terms == (() if expected.is_zero() else (RatTerm(expected),))
