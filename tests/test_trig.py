"""Canonical cos/sin arithmetic, differentiation, parity, log-derivative."""

import math
import random

import pytest

from helpers import fourth_order_diff, random_trig_polynomial, random_trig_rational
from secint.errors import DenominatorVanishesOnCircle, SingularPoint
from secint.ratfunc import Polynomial
from secint.trig import (
    TrigPolynomial,
    TrigRational,
    canonicalize,
    eval_trig,
    is_odd_in_cos,
    verify_log_derivative,
)

C = Polynomial.variable("c")
ONE = Polynomial.constant(1, "c")

SIN = TrigRational.sin()
COS = TrigRational.cos()
SEC = TrigRational.sec()
TAN = SIN / COS


def cpoly(*coeffs):
    return Polynomial.from_coefficients(coeffs, var="c")


def test_sec_canonical_shape():
    assert SEC.num == TrigPolynomial.constant(1)
    assert SEC.den == C


def test_sin_squared_reduces():
    s2 = TrigPolynomial.sin() * TrigPolynomial.sin()
    r = canonicalize(s2, ONE)
    assert r.num.p == cpoly(1, 0, -1)
    assert r.num.q.is_zero()
    assert r.den == ONE


def test_conjugate_identity_pair():
    # (1 - sin)/cos and cos/(1 + sin) are the same element
    lhs = (1 - SIN) / COS
    rhs = COS / (1 + SIN)
    assert lhs == rhs


def test_denominator_vanishing_on_circle():
    with pytest.raises(DenominatorVanishesOnCircle):
        canonicalize(TrigPolynomial.constant(1), cpoly(-1, 0, 1) + cpoly(1, 0, -1))
    with pytest.raises(DenominatorVanishesOnCircle):
        # s^2 + c^2 - 1 as a TrigPolynomial denominator
        den = TrigPolynomial.sin() ** 2 + TrigPolynomial(cpoly(-1, 0, 1), cpoly())
        canonicalize(TrigPolynomial.constant(1), den)


def test_pythagorean_collapse():
    assert SIN**2 + COS**2 == TrigRational.constant(1)


def test_derivative_of_sec():
    # (sec)' = sec tan = s/c^2
    d = SEC.derivative()
    assert d == SIN / (COS**2)


def test_derivative_of_tan():
    assert TAN.derivative() == SEC**2


def test_derivative_of_sec_plus_tan():
    u = SEC + TAN
    assert u.derivative() == SEC * u


def test_derivative_basics():
    assert SIN.derivative() == COS
    assert COS.derivative() == -SIN
    assert TrigRational.constant(5).derivative().is_zero()


def test_oddness_in_cos():
    assert is_odd_in_cos(SEC)
    assert not is_odd_in_cos(SIN)
    assert is_odd_in_cos(SIN * COS)
    assert is_odd_in_cos(COS)
    assert not is_odd_in_cos(SEC**2)
    assert not is_odd_in_cos(1 / (1 + SIN))


def test_log_derivative_pairs():
    assert verify_log_derivative(SEC, SEC + TAN)
    assert not verify_log_derivative(SEC, SEC)
    assert verify_log_derivative(SEC**2 / TAN, TAN)


def test_log_derivative_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        verify_log_derivative(SEC, TrigRational.constant(0))


def test_eval_sec():
    assert eval_trig(SEC, 0.0) == pytest.approx(1.0)
    assert eval_trig(SEC, math.pi / 3) == pytest.approx(2.0)
    with pytest.raises(SingularPoint):
        eval_trig(SEC, math.pi / 2)


def test_eval_matches_library():
    r = (2 + SIN) / (3 + COS)
    for x in (0.0, 0.7, -1.2, 2.5):
        expected = (2 + math.sin(x)) / (3 + math.cos(x))
        assert eval_trig(r, x) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# randomized structural properties


def test_canonical_equality_is_congruence():
    rng = random.Random(7)
    for _ in range(40):
        a = random_trig_rational(rng)
        # a second, non-canonical route to the same value
        while True:
            m = random_trig_polynomial(rng, max_degree=1)
            if not m.is_zero():
                break
        b = canonicalize(a.num * m, TrigPolynomial.from_cos_polynomial(a.den) * m)
        assert a == b
        c = random_trig_rational(rng, max_degree=1)
        assert a + c == b + c
        assert a * c == b * c


def test_canonicalize_preserves_value_numerically():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        num = random_trig_polynomial(rng)
        den = random_trig_polynomial(rng)
        if den.is_zero():
            continue
        r = canonicalize(num, den)
        x = rng.uniform(-3.0, 3.0)
        c, s = math.cos(x), math.sin(x)
        raw_den = den.eval(c, s)
        if abs(raw_den) < 1e-6 or abs(r.den(c)) < 1e-6:
            continue
        naive = num.eval(c, s) / raw_den
        got = eval_trig(r, x)
        assert got == pytest.approx(naive, rel=1e-10, abs=1e-10)
        checked += 1


def test_derivative_matches_finite_difference():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        r = random_trig_rational(rng)
        d = r.derivative()
        x = rng.uniform(-1.4, 1.4)
        if abs(r.den(math.cos(x))) < 1e-3 or abs(d.den(math.cos(x))) < 1e-3:
            continue
        approx = fourth_order_diff(lambda t: eval_trig(r, t), x)
        exact = eval_trig(d, x)
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-6)
        checked += 1


def test_log_derivative_numeric_consequence():
    # symbolic yes implies the numeric statement d/dx ln|u| = f
    pairs = [(SEC, SEC + TAN), (SEC**2 / TAN, TAN)]
    for f, u in pairs:
        assert verify_log_derivative(f, u)
        for x in (0.3, 0.8, 1.1):
            approx = fourth_order_diff(lambda t: math.log(abs(eval_trig(u, t))), x)
            assert approx == pytest.approx(eval_trig(f, x), rel=1e-6)
