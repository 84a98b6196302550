"""Acceptance gate: the headline guarantees, one test per criterion.

Each criterion prints a single ``criterion N: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failure) and is also a
separate test, so ``pytest -v`` shows one verdict line per criterion.
"""

import math
import random
from fractions import Fraction as F

from helpers import random_trig_rational

from secint.conics import (
    circle_from_B,
    circle_from_D,
    enumerate_primitive_triples,
    hyperbola_from_Pplus,
    parameter_from_triple,
    projection_coincidence_residual,
    triple_from_parameter,
)
from secint.engine import (
    VerificationDomain,
    constant_difference_check,
    diff_check,
    integrate_trig,
)
from secint.errors import IrrationalAtanScale, NotApplicable, UnsupportedDenominator
from secint.integrate import integrate_rational, symbolic_derivative
from secint.mercator import conformality_ratio, mercator_y_numeric
from secint.parse import parse_trig
from secint.ratfunc import Polynomial, RationalFunction
from secint.render import format_antiderivative
from secint.substitution import (
    SubstitutionName,
    apply_substitution,
    builtin_substitutions,
    get_substitution,
)
from secint.trig import TrigRational, trig_derivative, verify_log_derivative

DOMAIN = VerificationDomain(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)

# Thirty-plus integrands, all inside the class the pipeline accepts, and
# including the marquee cases: secant itself, its two identity disguises,
# tangent, sin*cos, and 1/(1+sin).
CORPUS = [
    "sec(x)",
    "tan(x) + cos(x)/(1+sin(x))",
    "(1-sin(x))/cos(x)",
    "tan(x)",
    "sin(x)*cos(x)",
    "1/(1+sin(x))",
    "sin(x)",
    "cos(x)",
    "1",
    "sec(x)^2",
    "sec(x)*tan(x)",
    "sec(x)^2 + sec(x)*tan(x)",
    "cos(x)^2",
    "sin(x)^2",
    "cos(x)^3",
    "sin(x)^3",
    "sin(x)^2*cos(x)",
    "sin(x)*cos(x)^2",
    "1/(1+cos(x))",
    "1/(1-sin(x))",
    "sin(x)/(1+sin(x))",
    "cos(x)/(1+sin(x))",
    "tan(x)^2",
    "tan(x)^3",
    "sec(x)^3",
    "csc(x)",
    "cot(x)",
    "1/(1+cos(x))^2",
    "(2+3*sin(x))/(1+sin(x))",
    "sin(x)^4",
    "cos(x)^4",
    "sin(x)^2*cos(x)^2",
    "(1+cos(x))/(1-sin(x))",
    "sec(x)+tan(x)",
    "2 - 3*cos(x) + sin(x)*cos(x)",
    "sin(x)^5",
    "tan(x)*sec(x)^2",
    "1/(5+3*cos(x))",
    "1/(5-4*cos(x))",
    "(1-cos(x))/(1+cos(x))",
]


def _verdict(number, label, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number}: FAIL  {label}")
        raise
    print(f"criterion {number}: PASS  {label}")


def test_criterion_1_four_method_agreement_on_secant():
    def check():
        secant = parse_trig("sec(x)")
        flagship = "ln|sec(x)+tan(x)| + C"
        reports = {
            name: integrate_trig(secant, method=name)
            for name in SubstitutionName
        }
        for name, report in reports.items():
            assert symbolic_derivative(report.antiderivative) == secant, name
        assert (
            format_antiderivative(reports[SubstitutionName.GREGORY].antiderivative)
            == flagship
        )
        assert (
            format_antiderivative(
                reports[SubstitutionName.MODIFIED_WEIERSTRASS].antiderivative
            )
            == flagship
        )
        results = list(reports.values())
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                is_constant, constant = constant_difference_check(
                    results[i].antiderivative, results[j].antiderivative, DOMAIN
                )
                assert is_constant
                assert abs(constant) < 1e-8

    _verdict(1, "four-method agreement on secant", check)


def test_criterion_2_derivative_oracle_over_corpus():
    def check():
        assert len(CORPUS) >= 30
        for source in CORPUS:
            expression = parse_trig(source)
            report = integrate_trig(expression)
            err = diff_check(report.antiderivative, expression, DOMAIN)
            assert err < 1e-6, (source, err)

    _verdict(2, "derivative oracle on the full corpus", check)


def test_criterion_3_symbolic_identities():
    def check():
        sec = parse_trig("sec(x)")
        tan = parse_trig("tan(x)")
        assert trig_derivative(tan) == parse_trig("sec(x)^2")
        assert trig_derivative(sec) == parse_trig("sec(x)*tan(x)")
        assert trig_derivative(sec + tan) == sec * (sec + tan)
        assert verify_log_derivative(sec, sec + tan)

    _verdict(3, "derivative and log-derivative identities", check)


def test_criterion_4_parametrization_exactness():
    def check():
        rng = random.Random(20260818)
        for _ in range(1000):
            value = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = circle_from_B(value)
            assert b.x * b.x + b.y * b.y == 1
            d = circle_from_D(value)
            assert d.x * d.x + d.y * d.y == 1
            if value != 0:
                h = hyperbola_from_Pplus(value)
                assert h.x * h.x - h.y * h.y == 1

    _verdict(4, "exact rational points on both conics", check)


def test_criterion_5_triples_against_brute_force():
    def check():
        ladder = enumerate_primitive_triples(500)
        assert len(enumerate_primitive_triples(100)) == 16
        brute = []
        for z in range(1, 501):
            for x in range(1, z):
                y_squared = z * z - x * x
                y = math.isqrt(y_squared)
                if y * y == y_squared and x <= y and math.gcd(x, y, z) == 1:
                    brute.append((x, y, z))
        brute.sort(key=lambda tr: (tr[2], tr[0]))
        assert [tr.as_tuple() for tr in ladder] == brute
        for bound in range(1, 501):
            expected = [tr for tr in brute if tr[2] <= bound]
            assert [
                tr.as_tuple() for tr in enumerate_primitive_triples(bound)
            ] == expected, bound
        for b in range(2, 51):
            for a in range(1, b):
                if (a + b) % 2 == 1 and math.gcd(a, b) == 1:
                    triple = triple_from_parameter(a, b)
                    odd_leg, even_leg = b * b - a * a, 2 * a * b
                    assert parameter_from_triple(
                        triple, (odd_leg, even_leg)
                    ) == F(a, b)

    _verdict(5, "triple enumeration, oracle match, and round trip", check)


def test_criterion_6_gregory_equals_modified_weierstrass():
    def check():
        gregory = get_substitution(SubstitutionName.GREGORY)
        modified = get_substitution(SubstitutionName.MODIFIED_WEIERSTRASS)
        rng = random.Random(99)
        for _ in range(100):
            expression = random_trig_rational(rng)
            g = apply_substitution(expression, gregory)
            m = apply_substitution(expression, modified)
            assert m.integrand.rename(g.integrand.var) == g.integrand

    _verdict(6, "Gregory and modified Weierstrass integrands coincide", check)


def test_criterion_7_mercator_quadrature_and_conformality():
    def check():
        target = math.log(2 + math.sqrt(3))
        assert abs(mercator_y_numeric(math.pi / 3, 1e-10) - target) < 1e-9
        for k in range(281):
            phi = -1.4 + 0.01 * k
            assert abs(conformality_ratio(phi, 1e-4) - 1) < 1e-6, phi

    _verdict(7, "Mercator ordinate by quadrature and conformality", check)


def test_criterion_8_projection_coincidence():
    def check():
        rng = random.Random(4)
        for _ in range(100):
            theta = rng.uniform(-1.47, 1.47)
            assert projection_coincidence_residual(theta) < 1e-9, theta

    _verdict(8, "half-angle and hyperbola projections coincide", check)


def test_criterion_9_rational_round_trip_is_exact():
    def check():
        integrands: list[RationalFunction] = []
        for source in CORPUS:
            expression = parse_trig(source)
            for sub in builtin_substitutions():
                try:
                    integrands.append(apply_substitution(expression, sub).integrand)
                except NotApplicable:
                    pass
        u = Polynomial.variable("u")
        one = RationalFunction.constant(F(1), "u")
        extra = [
            RationalFunction.from_polynomial(u**3 - 2 * u + F(1, 2)),
            one / (u * u * (u - 1)),
            RationalFunction.from_polynomial(u + 1) / (u * u + 1),
            one / ((u - 1) * (u + 2) ** 2),
            RationalFunction.from_polynomial(u**4 + 1) / (u * u - 4),
        ]
        integrands.extend(extra)
        successes = 0
        for f in integrands:
            try:
                antiderivative = integrate_rational(f)
            except (IrrationalAtanScale, UnsupportedDenominator):
                continue
            assert symbolic_derivative(antiderivative) == f
            successes += 1
        assert successes >= 30, successes

    _verdict(9, "exact symbolic round trip for rational integrals", check)
