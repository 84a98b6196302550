"""Hermite reduction, partial fractions, and rational antiderivatives."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secint import integrate
from secint.errors import IrrationalAtanScale, UnsupportedDenominator
from secint.integrate import (
    Antiderivative,
    AtanTerm,
    LogTerm,
    RatTerm,
    eval_antiderivative,
    hermite_reduce,
    integrate_rational,
    make_antiderivative,
    partial_fractions,
    symbolic_derivative,
)
from secint.ratfunc import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_xgcd,
    ratfunc_normalize,
    rational_sqrt,
    squarefree_factorization,
)


def P(*coeffs, var="u"):
    return Polynomial.from_coefficients(coeffs, var=var)


def RF(num, den, var="u"):
    return ratfunc_normalize(
        P(*num, var=var) if isinstance(num, tuple) else num,
        P(*den, var=var) if isinstance(den, tuple) else den,
    )


U = RationalFunction.variable("u")
ONE = Polynomial.constant(1, "u")


# ---------------------------------------------------------------------------
# hermite_reduce


def test_hermite_double_pole():
    f = RF((1,), (1, -2, 1))  # 1/(u-1)^2
    rat, rem = hermite_reduce(f)
    assert rat == RF((-1,), (-1, 1))
    assert rem.is_zero()


def test_hermite_squarefree_passthrough():
    f = RF((1,), (0, 1))
    rat, rem = hermite_reduce(f)
    assert rat.is_zero()
    assert rem == f


def test_hermite_mixed():
    f = RF((1, 1), (0, 0, 1))  # (u+1)/u^2
    rat, rem = hermite_reduce(f)
    assert rat == RF((-1,), (0, 1))
    assert rem == RF((1,), (0, 1))


@pytest.mark.parametrize(
    "num, den",
    [
        ((1,), (0, 0, 0, 1)),            # 1/u^3
        ((2, 3), (1, 2, 1)),             # (2+3u)/(u+1)^2
        ((1, 0, 1), (0, 2, 0, -4, 2)),   # repeated (u^2-1) pieces
        ((5,), (0, 1, 0, 2, 0, 1)),      # u(u^2+1)^2
    ],
)
def test_hermite_identity_holds(num, den):
    f = RF(num, den)
    rat, rem = hermite_reduce(f)
    assert rat.derivative() + rem == f
    # remainder denominator is squarefree
    g = poly_gcd(rem.den, rem.den.derivative())
    assert g.is_constant()


def iterative_hermite(f):
    """Reference: re-factor the whole denominator, lower one repeated factor
    P^m to P^(m-1) through A = B P' + C P, repeat."""
    rational_part = RationalFunction.constant(0, f.var)
    current = f
    while not current.den.is_constant():
        _, factors = squarefree_factorization(current.den)
        repeated = next(((p, m) for p, m in factors if m >= 2), None)
        if repeated is None:
            break
        P, m = repeated
        Pm = P**m
        Q = current.den.exact_div(Pm)
        N = current.num
        _, sigma, tau = poly_xgcd(Pm, Q)
        E, A = divmod(N * tau, Pm)
        over_q = ratfunc_normalize(N * sigma + E * Q, Q)
        _, inv, _ = poly_xgcd(P.derivative(), P)
        B = (A * inv) % P
        C = (A - B * P.derivative()).exact_div(P)
        rational_part = rational_part + ratfunc_normalize(-B, (m - 1) * P ** (m - 1))
        leftover = ratfunc_normalize(B.derivative() * Fraction(1, m - 1) + C, P ** (m - 1))
        current = over_q + leftover
    return rational_part, current


small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


def nonzero_polys(max_degree):
    return (
        st.lists(small_fractions, min_size=1, max_size=max_degree + 1)
        .map(Polynomial.from_coefficients)
        .filter(lambda p: not p.is_zero())
    )


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small_fractions, max_size=8).map(Polynomial.from_coefficients),
    nonzero_polys(2),
    nonzero_polys(2),
    nonzero_polys(1),
)
def test_hermite_invariants(n, p, q, r):
    f = ratfunc_normalize(n, p * q**2 * r**3)
    rat, rem = hermite_reduce(f)
    assert rat.derivative() + rem == f
    assert rat.num.degree < rat.den.degree
    assert poly_gcd(rem.den, rem.den.derivative()).is_constant()
    assert (rat, rem) == iterative_hermite(f)


def test_hermite_factors_the_denominator_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return squarefree_factorization(p)

    monkeypatch.setattr(integrate, "squarefree_factorization", counted)
    f = RF((1, 2), P(1, 0, 1) ** 3 * P(0, 0, 1))  # (1+2u)/((u^2+1)^3 u^2)
    rat, rem = hermite_reduce(f)
    assert rat.derivative() + rem == f
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# partial_fractions


def test_pf_two_linear():
    f = RF((2,), (1, 0, -1))  # 2/(1-u^2), normalized to -2/(u^2-1)
    assert partial_fractions(f) == [
        LogTerm(Fraction(1), RF((1, 1), (1,))),
        LogTerm(Fraction(-1), RF((-1, 1), (1,))),
    ]


def test_pf_half_residues():
    f = RF((1,), (1, 0, -1))  # 1/(1-u^2)
    assert partial_fractions(f) == [
        LogTerm(Fraction(1, 2), RF((1, 1), (1,))),
        LogTerm(Fraction(-1, 2), RF((-1, 1), (1,))),
    ]


def test_pf_pure_quadratic():
    f = RF((0, 2), (1, 0, 1), var="t")  # 2t/(t^2+1): a log, no atan
    assert partial_fractions(f) == [
        LogTerm(Fraction(1), RF((1, 0, 1), (1,), var="t"), absolute=False)
    ]


def test_pf_linear_and_quadratic():
    f = RF((1,), (0, 1, 0, 1))  # 1/(u(u^2+1)) = 1/u - u/(u^2+1)
    assert partial_fractions(f) == [
        LogTerm(Fraction(1), RF((0, 1), (1,))),
        LogTerm(Fraction(-1, 2), RF((1, 0, 1), (1,)), absolute=False),
    ]


def test_pf_poly_part_and_recombination():
    f = RF((1, 0, 0, 1), (-1, 0, 1))  # (u^3+1)/(u^2-1) = u + 1/(u-1)
    parts = partial_fractions(f)
    assert parts == [
        RatTerm(RF((0, 0, Fraction(1, 2)), (1,))),
        LogTerm(Fraction(1), RF((-1, 1), (1,))),
    ]
    assert symbolic_derivative(make_antiderivative(parts, "u")) == f


def test_pf_rejects_cubic_without_roots():
    # 1/(u^3+2), and 1/((u-1)(u^3+2)), where the root 1 comes out first
    for den in (P(2, 0, 0, 1), P(-1, 1) * P(2, 0, 0, 1)):
        with pytest.raises(UnsupportedDenominator) as info:
            partial_fractions(RF((1,), den))
        assert str(info.value) == "denominator factor u^3+2 of degree 3 has no rational root"
        assert info.value.cofactor == P(2, 0, 0, 1)
        copied = pickle.loads(pickle.dumps(info.value))
        assert (str(copied), copied.cofactor) == (str(info.value), info.value.cofactor)


def rootless_quadratics():
    """Monic u^2+pu+q with no rational root: any such, or (u+h)^2 + k^2,
    whose atan has the rational side k."""
    any_rootless = st.tuples(small_fractions, small_fractions).filter(
        lambda pq: rational_sqrt(pq[0] ** 2 - 4 * pq[1]) is None
    ).map(lambda pq: P(pq[1], pq[0], 1))
    rational_side = st.tuples(small_fractions, small_fractions.filter(bool)).map(
        lambda hk: P(hk[0] ** 2 + hk[1] ** 2, 2 * hk[0], 1)
    )
    return any_rootless | rational_side


@settings(deadline=None, max_examples=80)
@given(
    st.lists(small_fractions, max_size=3, unique=True),
    st.none() | rootless_quadratics(),
    nonzero_polys(7),
)
def test_pf_terms_differentiate_back(roots, quadratic, num):
    den = ONE if quadratic is None else quadratic
    for r in roots:
        den = den * P(-r, 1)
    f = ratfunc_normalize(num, den)
    try:
        parts = partial_fractions(f)
    except IrrationalAtanScale:
        return
    assert symbolic_derivative(make_antiderivative(parts, "u")) == f


def test_pf_requires_squarefree():
    with pytest.raises(ValueError):
        partial_fractions(RF((1, 1, 1), (0, 0, 1)))


# ---------------------------------------------------------------------------
# integrate_rational


def test_integral_of_reciprocal():
    F = integrate_rational(RF((1,), (0, 1), var="s"))
    assert F.terms == (LogTerm(Fraction(1), RF((0, 1), (1,), var="s")),)


def test_integral_two_logs_ordered():
    F = integrate_rational(RF((2,), (1, 0, -1), var="t"))
    assert F.terms == (
        LogTerm(Fraction(1), RF((1, 1), (1,), var="t")),
        LogTerm(Fraction(-1), RF((1, -1), (1,), var="t")),
    )


def test_integral_atan():
    F = integrate_rational(RF((2,), (1, 0, 1), var="t"))
    assert F.terms == (AtanTerm(Fraction(2), RF((0, 1), (1,), var="t")),)


def test_integral_log_plus_atan():
    # (u+1)/(u^2+1) -> 1/2 ln(u^2+1) + atan(u)
    F = integrate_rational(RF((1, 1), (1, 0, 1)))
    assert F.terms == (
        LogTerm(Fraction(1, 2), RF((1, 0, 1), (1,)), absolute=False),
        AtanTerm(Fraction(1), RF((0, 1), (1,))),
    )


def test_irrational_atan_scale():
    with pytest.raises(IrrationalAtanScale):
        integrate_rational(RF((1,), (1, 1, 1)))  # 1/(u^2+u+1)
    with pytest.raises(IrrationalAtanScale):
        integrate_rational(RF((2,), (3, 0, 1)))  # 2/(u^2+3)


def test_log_part_without_atan_is_fine_for_irrational_disc():
    # (2u+1)/(u^2+u+1): pure log derivative, no atan needed
    F = integrate_rational(RF((1, 2), (1, 1, 1)))
    assert F.terms == (
        LogTerm(Fraction(1), RF((1, 1, 1), (1,)), absolute=False),
    )


def test_negative_disc_quadratic_uses_absolute_log():
    # (2u)/(u^2-2): log|u^2-2|
    F = integrate_rational(RF((0, 2), (-2, 0, 1)))
    assert F.terms == (
        LogTerm(Fraction(1), RF((-2, 0, 1), (1,)), absolute=True),
    )


def test_polynomial_part_integrated():
    F = integrate_rational(RF((0, 0, 6), (1,)))  # 6u^2
    assert F.terms == (RatTerm(RF((0, 0, 0, 2), (1,))),)


def test_hermite_rat_term_carried():
    F = integrate_rational(RF((1, 1), (0, 0, 1)))  # (u+1)/u^2
    assert RatTerm(RF((-1,), (0, 1))) in F.terms
    assert LogTerm(Fraction(1), RF((0, 1), (1,))) in F.terms


def test_zero_integrand():
    F = integrate_rational(RF((0,), (1,)))
    assert F.terms == ()


# ---------------------------------------------------------------------------
# canonical Antiderivative construction


def test_merge_duplicate_logs():
    arg = RF((1, 1), (1,))
    F = make_antiderivative(
        [LogTerm(Fraction(1, 2), arg), LogTerm(Fraction(1, 3), arg)], "u"
    )
    assert F.terms == (LogTerm(Fraction(5, 6), arg),)


def test_cancelling_logs_vanish():
    arg = RF((1, 1), (1,))
    F = make_antiderivative(
        [LogTerm(Fraction(1), arg), LogTerm(Fraction(-1), arg)], "u"
    )
    assert F.terms == ()


def test_absolute_log_sign_normalized():
    F = make_antiderivative(
        [LogTerm(Fraction(-1), RF((-1, 1), (1,)))], "u"  # -ln|u-1|
    )
    assert F.terms == (LogTerm(Fraction(-1), RF((1, -1), (1,))),)


def test_plain_log_sign_untouched():
    arg = RF((-1, 0, -1), (1,))
    F = make_antiderivative([LogTerm(Fraction(1), arg, absolute=False)], "u")
    assert F.terms[0].argument == arg


def test_atan_argument_never_flipped():
    arg = RF((0, -1), (1,))
    F = make_antiderivative([AtanTerm(Fraction(1), arg)], "u")
    assert F.terms == (AtanTerm(Fraction(1), arg),)


def test_constant_log_dropped():
    F = make_antiderivative([LogTerm(Fraction(2), RF((5,), (1,)))], "u")
    assert F.terms == ()


def test_antiderivative_rejects_a_non_term():
    with pytest.raises(TypeError):
        Antiderivative((object(),), "x")


# ---------------------------------------------------------------------------
# round trip: symbolic derivative recovers the integrand


CORPUS = [
    RF((1,), (0, 1)),
    RF((2,), (1, 0, -1)),
    RF((2,), (1, 0, 1)),
    RF((1, 1), (0, 0, 1)),
    RF((1,), (0, 0, 1, 0, 1)),           # 1/(u^2(u^2+1))
    RF((3, 1, 4), (0, 2, 0, 2)),
    RF((1, 0, 0, 0, 1), (0, 1)),
    RF((5,), (0, 1, 0, 2, 0, 1)),
    RF((1, 2, 3), (6, -5, 1)),           # distinct roots 2, 3
]


@pytest.mark.parametrize("f", CORPUS, ids=[str(i) for i in range(len(CORPUS))])
def test_round_trip_exact(f):
    F = integrate_rational(f)
    assert symbolic_derivative(F) == f


def test_round_trip_random_substitution_class():
    # denominators of the kind the trig substitutions produce
    rng = random.Random(5)
    atoms = [P(0, 1), P(-1, 1), P(1, 1), P(-2, 1), P(2, 1), P(1, 0, 1)]
    for _ in range(60):
        den = ONE
        for atom in rng.sample(atoms, rng.randint(1, 3)):
            den = den * atom ** rng.randint(1, 2)
        num = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if num.is_zero():
            continue
        f = ratfunc_normalize(num, den)
        F = integrate_rational(f)
        assert symbolic_derivative(F) == f


def test_numeric_evaluation_spot_check():
    import math

    F = integrate_rational(RF((2,), (1, 0, 1)))  # 2 atan(u)
    assert eval_antiderivative(F, 1.0) == pytest.approx(2 * math.atan(1.0))
    G = integrate_rational(RF((1,), (0, 1)))
    assert eval_antiderivative(G, -2.0) == pytest.approx(math.log(2.0))
