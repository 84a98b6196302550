import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from secint.conics import (
    ConicParameter,
    ParameterKind,
    PythagoreanTriple,
    RationalPoint,
    circle_from_B,
    circle_from_D,
    enumerate_primitive_triples,
    hyperbola_from_Pplus,
    param_convert,
    parameter_from_triple,
    projection_coincidence_residual,
    triple_from_parameter,
)
from secint.errors import DegenerateParameter, PoleInConversion, SingularPoint, ZeroParameter
from secint.substitution import get_substitution

F = Fraction

rational_params = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)


def test_circle_from_B_pinned_points():
    assert circle_from_B(F(0)) == RationalPoint(F(1), F(0))
    assert circle_from_B(F(1)) == RationalPoint(F(0), F(1))
    assert circle_from_B(F(1, 2)) == RationalPoint(F(3, 5), F(4, 5))


def test_circle_from_D_pinned_points():
    assert circle_from_D(F(1)) == RationalPoint(F(1), F(0))
    assert circle_from_D(F(0)) == RationalPoint(F(0), F(-1))
    assert circle_from_D(F(2)) == RationalPoint(F(4, 5), F(3, 5))


def test_hyperbola_pinned_points():
    assert hyperbola_from_Pplus(F(1)) == RationalPoint(F(1), F(0))
    assert hyperbola_from_Pplus(F(2)) == RationalPoint(F(5, 4), F(3, 4))
    # negative parameters give the left branch
    assert hyperbola_from_Pplus(F(-1)) == RationalPoint(F(-1), F(0))
    with pytest.raises(ZeroParameter):
        hyperbola_from_Pplus(F(0))


@given(rational_params)
def test_circle_points_exactly_on_circle(t):
    p = circle_from_B(t)
    assert p.x * p.x + p.y * p.y == 1
    q = circle_from_D(t)
    assert q.x * q.x + q.y * q.y == 1


@given(rational_params.filter(lambda v: v != 0))
def test_hyperbola_points_exactly_on_hyperbola(u):
    p = hyperbola_from_Pplus(u)
    assert p.x * p.x - p.y * p.y == 1


@given(rational_params)
def test_points_agree_with_the_substitution_maps(p):
    w = get_substitution("weierstrass")
    assert circle_from_B(p) == RationalPoint(w.cos_expr(p), w.sin_expr(p))
    m = get_substitution("modified-weierstrass")
    assert circle_from_D(p) == RationalPoint(m.cos_expr(p), m.sin_expr(p))
    if p != 0:
        g = get_substitution("gregory")
        cos, sin = g.cos_expr(p), g.sin_expr(p)
        assert hyperbola_from_Pplus(p) == RationalPoint(1 / cos, sin / cos)


def test_on_curve_constructors_validate():
    RationalPoint.on_circle(F(3, 5), F(4, 5))
    RationalPoint.on_hyperbola(F(5, 4), F(3, 4))
    with pytest.raises(ValueError):
        RationalPoint.on_circle(F(1), F(1))
    with pytest.raises(ValueError):
        RationalPoint.on_hyperbola(F(1), F(1))


def test_triple_from_parameter_examples():
    assert triple_from_parameter(1, 2).as_tuple() == (3, 4, 5)
    assert triple_from_parameter(2, 3).as_tuple() == (5, 12, 13)
    # (1, 3): raw (8, 6, 10) scales back down to (3, 4, 5)
    assert triple_from_parameter(1, 3).as_tuple() == (3, 4, 5)


@pytest.mark.parametrize("a,b", [(0, 1), (2, 2), (-1, 1), (1, 0), (3, -3)])
def test_triple_from_parameter_degenerate(a, b):
    with pytest.raises(DegenerateParameter):
        triple_from_parameter(a, b)


def test_triple_invariants_enforced():
    with pytest.raises(ValueError):
        PythagoreanTriple(4, 3, 5)  # legs out of order
    with pytest.raises(ValueError):
        PythagoreanTriple(6, 8, 10)  # not primitive
    with pytest.raises(ValueError):
        PythagoreanTriple(3, 4, 6)  # not a right triangle
    assert PythagoreanTriple.normalized(-8, 6, 10).as_tuple() == (3, 4, 5)


def test_parameter_from_triple_leg_orientations():
    t345 = PythagoreanTriple(3, 4, 5)
    assert parameter_from_triple(t345, (3, 4)) == F(1, 2)
    assert parameter_from_triple(t345, (4, 3)) == F(1, 3)
    t51213 = PythagoreanTriple(5, 12, 13)
    assert parameter_from_triple(t51213, (5, 12)) == F(2, 3)
    with pytest.raises(ValueError):
        parameter_from_triple(t345, (3, 5))


def test_parameter_round_trip_both_orientations():
    tr = triple_from_parameter(2, 3)
    t = parameter_from_triple(tr, (5, 12))
    assert circle_from_B(t) == RationalPoint(F(5, 13), F(12, 13))
    t_flipped = parameter_from_triple(tr, (12, 5))
    assert circle_from_B(t_flipped) == RationalPoint(F(12, 13), F(5, 13))


def test_enumerate_small_bounds():
    assert [tr.as_tuple() for tr in enumerate_primitive_triples(5)] == [(3, 4, 5)]
    assert [tr.as_tuple() for tr in enumerate_primitive_triples(13)] == [
        (3, 4, 5),
        (5, 12, 13),
    ]
    assert len(enumerate_primitive_triples(100)) == 16
    assert enumerate_primitive_triples(4) == []
    with pytest.raises(ValueError):
        enumerate_primitive_triples(0)


def brute_force_triples(max_z):
    found = []
    for z in range(1, max_z + 1):
        for x in range(1, z):
            y2 = z * z - x * x
            y = math.isqrt(y2)
            if y * y == y2 and x <= y and math.gcd(x, y, z) == 1:
                found.append((x, y, z))
    return sorted(found, key=lambda tr: (tr[2], tr[0]))


@pytest.mark.parametrize("bound", [1, 5, 13, 85, 221, 500])
def test_enumerate_matches_brute_force(bound):
    assert [tr.as_tuple() for tr in enumerate_primitive_triples(bound)] == (
        brute_force_triples(bound)
    )


def test_generator_round_trip_odd_leg_first():
    # For coprime opposite-parity 0 < a < b the odd leg is b^2 - a^2 and
    # the slope recovered from (odd, even) ordering is exactly a/b.
    for b in range(2, 51):
        for a in range(1, b):
            if (a + b) % 2 == 1 and math.gcd(a, b) == 1:
                tr = triple_from_parameter(a, b)
                odd_leg = b * b - a * a
                even_leg = 2 * a * b
                assert parameter_from_triple(tr, (odd_leg, even_leg)) == F(a, b)


def test_param_convert_pinned():
    s = param_convert(ConicParameter(ParameterKind.T, F(1, 2)), "s")
    assert s == ConicParameter(ParameterKind.S, F(3))
    v = param_convert(ConicParameter(ParameterKind.U, F(3)), "v")
    assert v == ConicParameter(ParameterKind.V, F(3, 2))
    back = param_convert(v, "t")
    assert back == ConicParameter(ParameterKind.T, F(1, 2))


def test_param_convert_identity_and_poles():
    p = ConicParameter(ParameterKind.T, F(7, 9))
    assert param_convert(p, ParameterKind.T) == p
    with pytest.raises(PoleInConversion):
        param_convert(ConicParameter(ParameterKind.T, F(1)), "s")
    with pytest.raises(PoleInConversion):
        param_convert(ConicParameter(ParameterKind.S, F(-1)), "t")
    with pytest.raises(PoleInConversion):
        param_convert(ConicParameter(ParameterKind.V, F(-1, 2)), "t")


@given(rational_params.filter(lambda v: v != 1))
def test_param_convert_round_trip_t(t):
    s = param_convert(ConicParameter(ParameterKind.T, t), "s")
    if s.value != -1:
        assert param_convert(s, "t").value == t


def test_matched_parameters_give_matching_points():
    # Converting t to s must land the D-projection on the same circle
    # point the B-projection picked, and the u-parametrized hyperbola
    # point must pair with the circle point by x -> 1/x.
    rng = random.Random(7)
    checked = 0
    for _ in range(50):
        t = F(rng.randint(-60, 60), rng.randint(1, 40))
        if t == 1:
            continue
        s = param_convert(ConicParameter(ParameterKind.T, t), "s").value
        assert circle_from_D(s) == circle_from_B(t)
        if s != 0:
            circle = circle_from_D(s)
            hyper = hyperbola_from_Pplus(s)
            if circle.x != 0:
                assert hyper.x * circle.x == 1
                assert hyper.y / hyper.x == circle.y
        checked += 1
    assert checked >= 45


def test_projection_coincidence_residual():
    # At 0 both sides are 1 in exact arithmetic, but pi/4 is not a
    # representable double, so tan(pi/4) lands one ulp below 1.
    assert projection_coincidence_residual(0.0) < 1.2e-16
    assert projection_coincidence_residual(math.pi / 6) < 1e-12
    assert projection_coincidence_residual(1.4) < 1e-9
    for theta in [0.3, -0.7, 1.1, -1.3]:
        assert projection_coincidence_residual(theta) < 1e-10
    with pytest.raises(SingularPoint):
        projection_coincidence_residual(math.pi / 2)
