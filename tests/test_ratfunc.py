"""Polynomial / rational-function arithmetic: frozen cases and algebra laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secint.ratfunc import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_xgcd,
    rational_roots,
    rational_sqrt,
    ratfunc_normalize,
    squarefree_factorization,
)


def P(*coeffs, var="u"):
    """Ascending-coefficient shorthand: P(1, 0, 2) is 1 + 2u^2."""
    return Polynomial.from_coefficients(coeffs, var=var)


# ---------------------------------------------------------------------------
# polynomial basics


def test_trailing_zeros_stripped():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero()
    assert P().degree == -1


def test_arithmetic_small():
    a = P(1, 1)  # 1 + u
    b = P(-1, 1)  # -1 + u
    assert a * b == P(-1, 0, 1)
    assert a + b == P(0, 2)
    assert a - a == P()
    assert (a**3) == P(1, 3, 3, 1)


def test_divmod_euclidean():
    # u^3 - 1 = (u - 1)(u^2 + u + 1)
    num = P(-1, 0, 0, 1)
    q, r = divmod(num, P(-1, 1))
    assert q == P(1, 1, 1)
    assert r.is_zero()
    q2, r2 = divmod(P(1, 0, 1), P(0, 1))
    assert q2 == P(0, 1)
    assert r2 == P(1)


def test_mixed_variable_rejected():
    with pytest.raises(ValueError):
        P(0, 1, var="t") * P(0, 1, var="u")
    # constants are variable-agnostic
    assert P(3, var="t") * P(0, 1, var="u") == P(0, 3, var="u")


def test_derivative_and_integral():
    p = P(5, 0, 3)  # 5 + 3u^2
    assert p.derivative() == P(0, 6)
    assert p.integral().derivative() == p
    assert P(7).derivative().is_zero()


def test_evaluation_exact_and_float():
    p = P(Fraction(1, 2), 0, 1)
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p(2.0) == pytest.approx(4.5)


def test_composition():
    p = P(0, 0, 1)  # u^2
    inner = P(1, 1)  # 1 + u
    assert p(inner) == P(1, 2, 1)


# ---------------------------------------------------------------------------
# gcd / factorization  [DERIVED: hand-checked products]


def euclid_gcd(p, q):
    """Reference: monic gcd by Euclid's algorithm over Q."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def test_gcd_cases():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)  # u^2-1, u-1
    assert poly_gcd(P(1, 0, 1, var="t"), P(1, 0, -1, var="t")) == P(1, var="t")
    assert poly_gcd(P(), P()) == P()
    assert poly_gcd(P(0, 4), P()) == P(0, 1)  # gcd with zero is the monic part
    assert poly_gcd(P(), P(Fraction(3, 2), 6)) == P(Fraction(1, 4), 1)
    assert poly_gcd(P(2, 0, 3, var="t"), P(7, var="t")) == P(1, var="t")


def test_xgcd_identity():
    p, q = P(-1, 0, 1), P(-1, 1)
    g, s, t = poly_xgcd(p, q)
    assert s * p + t * q == g
    assert g == P(-1, 1)


def test_squarefree_example():
    # 3 (u-1)^2 (u+2)
    p = 3 * (P(-1, 1) ** 2) * P(2, 1)
    lead, factors = squarefree_factorization(p)
    assert lead == 3
    assert factors == [(P(2, 1), 1), (P(-1, 1), 2)]


def test_squarefree_of_squarefree():
    p = P(-1, 0, 1)
    lead, factors = squarefree_factorization(p)
    assert lead == 1
    assert factors == [(p, 1)]


def test_rational_roots_with_multiplicity():
    p = (P(-1, 1) ** 2) * P(2, 1)
    assert rational_roots(p) == [Fraction(-2), Fraction(1), Fraction(1)]
    # 2u^2 - u - 1 = (2u + 1)(u - 1)
    assert rational_roots(P(-1, -1, 2)) == [Fraction(-1, 2), Fraction(1)]
    assert rational_roots(P(1, 0, 1)) == []
    assert rational_roots(P(0, 0, 1)) == [0, 0]


# ---------------------------------------------------------------------------
# rational functions


def test_normalize_cancels_and_monics():
    # (2u+2)/(u^2-1) reduces to 2/(u-1)
    f = ratfunc_normalize(P(2, 2), P(-1, 0, 1))
    assert f.num == P(2)
    assert f.den == P(-1, 1)
    # (u^2-1)/(2u-2) reduces to (u+1)/2
    g = ratfunc_normalize(P(-1, 0, 1), P(-2, 2))
    assert g.num == P(Fraction(1, 2), Fraction(1, 2))
    assert g.den == P(1)


def test_normalize_zero_and_errors():
    assert ratfunc_normalize(P(), P(5)).is_zero()
    with pytest.raises(ZeroDivisionError):
        ratfunc_normalize(P(1), P())


def test_quotient_rule_frozen():
    # d/dt [2t/(1+t^2)] = (2 - 2t^2)/(1+t^2)^2   [DERIVED]
    f = ratfunc_normalize(P(0, 2, var="t"), P(1, 0, 1, var="t"))
    df = f.derivative()
    assert df.num == P(2, 0, -2, var="t")
    assert df.den == P(1, 0, 1, var="t") ** 2


def test_field_ops_small():
    f = ratfunc_normalize(P(1), P(0, 1))  # 1/u
    g = ratfunc_normalize(P(0, 1), P(1, 1))  # u/(1+u)
    assert (f * g) == ratfunc_normalize(P(1), P(1, 1))
    assert (f / f).constant_value() == 1
    h = f + g
    assert h(Fraction(2)) == Fraction(1, 2) + Fraction(2, 3)


def test_ratfunc_compose():
    f = ratfunc_normalize(P(1), P(0, 1))  # 1/u
    inner = ratfunc_normalize(P(1, 1), P(-1, 1))  # (1+u)/(u-1)
    assert f(inner) == ratfunc_normalize(P(-1, 1), P(1, 1))


def test_negative_power():
    f = ratfunc_normalize(P(0, 1), P(1, 1))
    assert f ** (-2) == ratfunc_normalize(P(1, 2, 1), P(0, 0, 1))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(3, 4)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(144, 169)) == Fraction(12, 13)


# ---------------------------------------------------------------------------
# algebra laws under random inputs

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

polys = st.builds(
    lambda cs: Polynomial.from_coefficients(cs),
    st.lists(small_fractions, min_size=0, max_size=5),
)

nonzero_polys = polys.filter(lambda p: not p.is_zero())

ratfuncs = st.builds(
    lambda n, d: ratfunc_normalize(n, d),
    polys,
    nonzero_polys,
)


@given(polys, nonzero_polys)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert (p % g).is_zero()
    assert (q % g).is_zero()
    assert g.leading_coefficient == 1


wide_fractions = st.builds(
    Fraction,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)

gcd_polys = st.one_of(
    polys,
    st.builds(
        lambda cs: Polynomial.from_coefficients(cs),
        st.lists(wide_fractions, min_size=0, max_size=5),
    ),
)


@settings(deadline=None)
@given(gcd_polys, gcd_polys, gcd_polys)
def test_gcd_matches_euclid(p, q, r):
    assert poly_gcd(p * r, q * r) == euclid_gcd(p * r, q * r)


@given(nonzero_polys, nonzero_polys)
def test_divmod_reconstructs(p, q):
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys)
def test_squarefree_reconstructs(p, q):
    prod = p * q  # encourages repeated factors
    lead, factors = squarefree_factorization(prod)
    rebuilt = Polynomial.constant(lead)
    for f, m in factors:
        assert f.leading_coefficient == 1
        rebuilt = rebuilt * f**m
    assert rebuilt == prod


@given(ratfuncs, ratfuncs)
def test_add_then_subtract(f, g):
    assert (f + g) - g == f


@given(ratfuncs, ratfuncs)
def test_multiply_then_divide(f, g):
    if g.is_zero():
        return
    assert (f * g) / g == f


@given(ratfuncs, ratfuncs)
def test_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@given(ratfuncs)
def test_canonical_form_invariants(f):
    assert f.den.leading_coefficient == 1
    assert poly_gcd(f.num, f.den).is_constant() or f.num.is_zero()
