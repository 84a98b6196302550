"""The four substitutions: maps, applicability, and back-substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fourth_order_diff, random_trig_rational
from secint.errors import NotApplicable
from secint.integrate import (
    Antiderivative,
    AtanTerm,
    LogTerm,
    RatTerm,
    integrate_rational,
    make_antiderivative,
    symbolic_derivative,
)
from secint.ratfunc import Polynomial, RationalFunction, ratfunc_normalize
from secint.substitution import (
    SubstitutionName,
    _pull_back,
    apply_substitution,
    back_substitute,
    builtin_substitutions,
    change_of_parameter,
    get_substitution,
    moved_cofactor,
)
from secint.trig import (
    TrigPolynomial,
    TrigRational,
    canonicalize,
    is_odd_in_cos,
)

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


PROJECTIONS = ["weierstrass", "modified-weierstrass", "gregory"]


def along_maps(R, sub):
    """Reference for the forward substitution: R(cos x, sin x) with cos and
    sin replaced by the substitution's maps, by Horner over
    RationalFunction, which normalizes at every step."""
    cos, sin = sub.cos_expr, sub.sin_expr
    return (R.num.p(cos) + R.num.q(cos) * sin) / R.den(cos)


@pytest.mark.parametrize("name", PROJECTIONS)
def test_maps_pull_back_to_cos_and_sin(name):
    sub = by_name(name)
    assert _pull_back(sub.cos_expr, sub.back_sub) == COS
    assert _pull_back(sub.sin_expr, sub.back_sub) == SIN


@pytest.mark.parametrize("name", PROJECTIONS)
def test_back_sub_along_maps_is_the_parameter(name):
    sub = by_name(name)
    assert along_maps(sub.back_sub, sub) == RationalFunction.variable(sub.param)


@pytest.mark.parametrize("name", PROJECTIONS)
def test_dx_inverts_the_derivative_of_back_sub(name):
    sub = by_name(name)
    dback = along_maps(sub.back_sub.derivative(), sub)
    assert sub.dx_expr * dback == RationalFunction.constant(1, sub.param)


def test_gregory_is_modified_renamed():
    g = by_name("gregory")
    m = by_name("modified-weierstrass")
    for attr in ("cos_expr", "sin_expr", "dx_expr"):
        assert getattr(g, attr) == getattr(m, attr).rename("u")
    assert g.back_sub == m.back_sub


def test_gregory_equals_modified_on_random_inputs():
    rng = random.Random(23)
    g = by_name("gregory")
    m = by_name("modified-weierstrass")
    for _ in range(50):
        r = random_trig_rational(rng)
        ig = apply_substitution(r, g).integrand
        im = apply_substitution(r, m).integrand
        assert ig == im.rename("u")


def test_gregory_parameter_is_a_mobius_map_of_weierstrass():
    t = RationalFunction.variable("t")
    u_in_t = change_of_parameter(by_name("gregory"), by_name("weierstrass"))
    assert u_in_t == (1 + t) / (1 - t)
    # and back: t = (u-1)/(u+1)
    u = RationalFunction.variable("u")
    assert change_of_parameter(by_name("weierstrass"), by_name("gregory")) == (u - 1) / (u + 1)


def test_moved_cofactor_is_the_monic_homogeneous_composition():
    u_in_t = change_of_parameter(by_name("gregory"), by_name("weierstrass"))
    u, t = Polynomial.variable("u"), Polynomial.variable("t")
    # (1+t)^2 + (1-t)^2 = 2t^2 + 2
    assert moved_cofactor(u**2 + 1, u_in_t) == t**2 + 1
    # (1+t)^3 + 2(1-t)^3 = -t^3 + 9t^2 - 3t + 3
    assert moved_cofactor(u**3 + 2, u_in_t) == t**3 - 9 * t**2 + 3 * t - 3


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


def cpoly(coeffs):
    return Polynomial.from_coefficients(coeffs, "c")


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(PROJECTIONS),
    p=coefficient_lists,
    q=coefficient_lists,
    dp=coefficient_lists,
    dq=coefficient_lists,
)
def test_apply_substitution_matches_horner_composition(name, p, q, dp, dq):
    # a nonzero A + B*s never vanishes on the circle: A^2 = B^2(1 - c^2)
    # would need leading coefficients with a^2 = -b^2
    assume(any(c != 0 for c in dp + dq))
    R = canonicalize(
        TrigPolynomial(cpoly(p), cpoly(q)), TrigPolynomial(cpoly(dp), cpoly(dq))
    )
    sub = by_name(name)
    assert apply_substitution(R, sub).integrand == along_maps(R, sub) * sub.dx_expr


small_coefficients = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PROJECTIONS),
    p=small_coefficients,
    q=small_coefficients,
    dp=small_coefficients,
    dq=small_coefficients,
)
def test_payload_derivatives_agree_along_the_maps(name, p, q, dp, dq):
    # chain rule: d/d(param) R(cos, sin) = R'(cos, sin) * dx/d(param)
    assume(any(c != 0 for c in dp + dq))
    R = canonicalize(
        TrigPolynomial(cpoly(p), cpoly(q)), TrigPolynomial(cpoly(dp), cpoly(dq))
    )
    sub = by_name(name)
    assert along_maps(R.derivative(), sub) * sub.dx_expr == along_maps(R, sub).derivative()


# (term class, coefficient, absolute, numerator, denominator); the flag
# only matters to logs, so plain ln(...) terms are generated too
term_specs = st.lists(
    st.tuples(
        st.sampled_from([RatTerm, LogTerm, AtanTerm]),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.booleans(),
        small_coefficients,
        small_coefficients.filter(lambda cs: any(c != 0 for c in cs)),
    ),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from([sub.name.value for sub in builtin_substitutions()]), specs=term_specs)
def test_back_substitute_obeys_the_chain_rule(name, specs):
    # d/dx F(back_sub(x)) = F'(back_sub(x)) * back_sub'(x), term by term
    sub = by_name(name)
    terms = []
    for kind, coefficient, absolute, num, den in specs:
        payload = RF(num, den, sub.param)
        if kind is RatTerm:
            terms.append(RatTerm(payload))
        elif kind is LogTerm:
            terms.append(LogTerm(coefficient, payload, absolute))
        else:
            terms.append(AtanTerm(coefficient, payload))
    F = make_antiderivative(terms, sub.param)
    G = back_substitute(F, sub)
    expected = _pull_back(symbolic_derivative(F), sub.back_sub) * sub.back_sub.derivative()
    assert symbolic_derivative(G) == expected


def in_cos_squared(coeffs):
    """The polynomial in c whose coefficient of c^(2k) is coeffs[k]."""
    spread = []
    for c in coeffs:
        spread += [c, 0]
    return cpoly(spread)


@settings(max_examples=60, deadline=None)
@given(
    a=coefficient_lists,
    b=coefficient_lists,
    d=coefficient_lists.filter(lambda cs: any(c != 0 for c in cs)),
)
def test_barrow_reads_its_integrand_off_r_over_cos(a, b, d):
    # E is a function of c^2 and s, so R = E*cos is odd in cos
    E = canonicalize(
        TrigPolynomial(in_cos_squared(a), in_cos_squared(b)), in_cos_squared(d)
    )
    R = E * COS
    sub = by_name("barrow")
    assert is_odd_in_cos(R)
    integrand = apply_substitution(R, sub).integrand
    assert _pull_back(integrand, sub.back_sub) * COS == R
    # R + 1 adds an even part; R + sin*cos^2 an odd power of c in the
    # s-part of R / cos only
    for even_part in (1, SIN * COS**2):
        assert not is_odd_in_cos(R + even_part)
        with pytest.raises(NotApplicable):
            apply_substitution(R + even_part, sub)
