"""Pipeline reports, derivative verification, and constant-difference checks."""

import math
import random
from fractions import Fraction

import pytest

from helpers import random_trig_rational
from secint import engine
from secint.engine import (
    IntegrationReport,
    VerificationDomain,
    constant_difference_check,
    diff_check,
    integrate_trig,
)
from secint.errors import (
    IrrationalAtanScale,
    NotApplicable,
    SecintError,
    ToleranceNotMet,
)
from secint.integrate import (
    Antiderivative,
    LogTerm,
    RatTerm,
    make_antiderivative,
    symbolic_derivative,
)
from secint.parse import parse_trig
from secint.ratfunc import Polynomial, RationalFunction
from secint.render import format_antiderivative
from secint.substitution import SubstitutionName, apply_substitution, get_substitution
from secint.trig import TrigRational

SIN = TrigRational.sin()
COS = TrigRational.cos()
SEC = TrigRational.sec()

DOM = VerificationDomain(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)

FLAGSHIP = "ln|sec(x)+tan(x)| + C"


def test_secant_gregory_report():
    report = integrate_trig(SEC, "gregory")
    assert report.method is SubstitutionName.GREGORY
    assert str(report.antiderivative) == FLAGSHIP
    assert symbolic_derivative(report.antiderivative) == SEC
    assert report.failures == ()


def test_secant_barrow_report():
    report = integrate_trig(SEC, "barrow")
    assert str(report.antiderivative) == "1/2*ln|1+sin(x)| - 1/2*ln|1-sin(x)| + C"


def test_secant_auto_prefers_gregory():
    report = integrate_trig(SEC, "auto")
    assert report.method is SubstitutionName.GREGORY
    assert str(report.antiderivative) == FLAGSHIP


@pytest.mark.parametrize("method", ["gregory", "modified-weierstrass", "auto"])
def test_secant_cubed_has_one_rational_term(method):
    # the integrated polynomial quotient and Hermite's rational part are one
    # term, so nothing cancels across terms
    report = integrate_trig(SEC**3, method)
    assert str(report.antiderivative) == (
        "1/2*sec(x)*tan(x) + 1/2*ln|sec(x)+tan(x)| + C"
    )


def test_sin_cos_barrow_is_polynomial_in_sin():
    report = integrate_trig(SIN * COS, "barrow")
    assert report.antiderivative.terms == (RatTerm(SIN**2 / 2),)


def test_two_plus_cos_fails_with_irrational_scale():
    r = parse_trig("1/(2+cos(x))")
    sub = get_substitution("weierstrass")
    integrand = apply_substitution(r, sub).integrand
    assert integrand.num == Polynomial.from_coefficients([2], "t")
    assert integrand.den == Polynomial.from_coefficients([3, 0, 1], "t")
    with pytest.raises(IrrationalAtanScale):
        integrate_trig(r, "weierstrass")
    with pytest.raises(IrrationalAtanScale):
        integrate_trig(r, "auto")


def test_barrow_refuses_even_integrand():
    with pytest.raises(NotApplicable):
        integrate_trig(SIN**2, "barrow")


def test_auto_records_nonfatal_failures():
    report = integrate_trig(SIN**2, "auto")
    assert symbolic_derivative(report.antiderivative) == SIN**2
    assert ("barrow" in dict(report.failures))


def test_auto_integrates_gregory_and_modified_once(monkeypatch):
    variables = []
    original = engine.integrate_rational

    def counting(f):
        variables.append(f.var)
        return original(f)

    monkeypatch.setattr(engine, "integrate_rational", counting)
    report = integrate_trig(SEC, "auto")
    assert report.method is SubstitutionName.GREGORY
    # one call for Gregory and modified together, then Barrow, Weierstrass
    assert variables == ["u", "u", "t"]


def test_auto_shared_refusal_listed_under_both_names():
    r = parse_trig("((0)+(-1*cos(x))*sin(x))/((-1)+(-3)*sin(x))")
    report = integrate_trig(r, "auto")
    assert report.method is SubstitutionName.BARROW
    assert [name for name, _ in report.failures] == [
        "gregory",
        "modified-weierstrass",
        "weierstrass",
    ]
    assert report.failures[0][1] == report.failures[1][1]


# cos(x)^10 falls below 1e-6 near the ends of the validity window, where a
# sampled derivative check with an absolute pole guard refused these answers
@pytest.mark.parametrize(
    "k, method, rendered",
    [
        (
            10,
            "gregory",
            "1/9*sec(x)^8*tan(x)+8/63*sec(x)^6*tan(x)+16/105*sec(x)^4*tan(x)"
            "+64/315*sec(x)^2*tan(x)+128/315*tan(x) + C",
        ),
        (
            11,
            "gregory",
            "1/10*sec(x)^9*tan(x)+9/80*sec(x)^7*tan(x)+21/160*sec(x)^5*tan(x)"
            "+21/128*sec(x)^3*tan(x)+63/256*sec(x)*tan(x)"
            " + 63/256*ln|sec(x)+tan(x)| + C",
        ),
        (
            12,
            "gregory",
            "1/11*sec(x)^10*tan(x)+10/99*sec(x)^8*tan(x)+80/693*sec(x)^6*tan(x)"
            "+32/231*sec(x)^4*tan(x)+128/693*sec(x)^2*tan(x)+256/693*tan(x) + C",
        ),
    ],    ids=["sec^10", "sec^11", "sec^12"],
)
def test_auto_answers_high_secant_powers(k, method, rendered):
    r = SEC**k
    report = integrate_trig(r, "auto")
    assert report.method.value == method
    assert format_antiderivative(report.antiderivative) == rendered
    assert symbolic_derivative(report.antiderivative) == r


# deep powers, where Hermite reduction and the gcds it calls dominate
@pytest.mark.parametrize(
    "text, method, terms",
    [
        ("sin(x)^30", "gregory", 2),
        ("sec(x)^30", "gregory", 1),
        ("1/(5+3*cos(x))^14", "gregory", 2),
    ],
)
def test_auto_answers_deep_powers(text, method, terms):
    r = parse_trig(text)
    report = integrate_trig(r, "auto")
    assert report.method.value == method
    assert len(report.antiderivative.terms) == terms
    assert symbolic_derivative(report.antiderivative) == r


def test_exact_certificate_gates_every_result(monkeypatch):
    original = engine.back_substitute

    def corrupted(F, sub):
        G = original(F, sub)
        if sub.name is not SubstitutionName.GREGORY:
            return G
        return make_antiderivative(list(G.terms) + [RatTerm(SIN)], "x")

    def no_numeric_gate(*args):
        raise AssertionError("integrate_trig must not sample")

    monkeypatch.setattr(engine, "back_substitute", corrupted)
    monkeypatch.setattr(engine, "diff_check", no_numeric_gate)
    with pytest.raises(ToleranceNotMet):
        integrate_trig(SEC, "gregory")
    report = integrate_trig(SEC, "auto")
    reasons = dict(report.failures)
    assert reasons["gregory"] == reasons["modified-weierstrass"]
    assert "derivative" in reasons["gregory"]
    assert report.method in (SubstitutionName.BARROW, SubstitutionName.WEIERSTRASS)
    assert symbolic_derivative(report.antiderivative) == SEC


def test_report_input_is_rendered():
    report = integrate_trig(SEC, "gregory")
    assert report.input == "sec(x)"


# ---------------------------------------------------------------------------
# diff_check


def test_diff_check_flagship():
    report = integrate_trig(SEC, "gregory")
    assert diff_check(report.antiderivative, SEC, DOM) < 1e-6


def test_diff_check_exact_linear():
    F = Antiderivative((RatTerm(RationalFunction.variable("x")),), "x")
    # the stencil is exact for linear F; away from 0 the only residue is
    # float roundoff of x +/- h, which the small domain keeps below 1e-12
    assert diff_check(F, TrigRational.constant(1), VerificationDomain(-0.01, 0.01)) < 1e-12
    assert diff_check(F, TrigRational.constant(1), DOM) < 1e-9


def test_diff_check_detects_mismatch():
    report = integrate_trig(SEC, "gregory")
    tan = SIN / COS
    assert diff_check(report.antiderivative, tan, DOM) > 0.1


def test_diff_check_nudges_around_singularity():
    # csc has a pole at 0, which sits exactly on the 25-point grid of a
    # symmetric domain; the nudge logic must step off it
    csc = 1 / SIN
    report = integrate_trig(csc, "auto")
    err = diff_check(report.antiderivative, csc, VerificationDomain(-1.0, 1.0))
    assert err < 1e-6


def test_domain_validation():
    with pytest.raises(ValueError):
        VerificationDomain(1.0, -1.0)
    with pytest.raises(ValueError):
        VerificationDomain(0.0, 1.0, samples=0)


# ---------------------------------------------------------------------------
# constant_difference_check


def test_gregory_and_barrow_differ_by_zero():
    g = integrate_trig(SEC, "gregory").antiderivative
    b = integrate_trig(SEC, "barrow").antiderivative
    is_const, const = constant_difference_check(g, b, DOM)
    assert is_const
    assert abs(const) < 1e-8


def test_shifted_copy_differs_by_three():
    g = integrate_trig(SEC, "gregory").antiderivative
    shifted = make_antiderivative(
        list(g.terms) + [RatTerm(TrigRational.constant(3))], "x"
    )
    is_const, const = constant_difference_check(shifted, g, DOM)
    assert is_const
    assert const == pytest.approx(3.0, abs=1e-10)


def test_tiny_nonconstant_difference_is_not_constant():
    # 1e-10*sin(x) spreads by far less than any sampling tolerance, but its
    # derivative is not zero
    g = integrate_trig(SEC, "gregory").antiderivative
    nudged = make_antiderivative(
        list(g.terms) + [RatTerm(TrigRational.sin() * Fraction(1, 10**10))], "x"
    )
    is_const, _ = constant_difference_check(nudged, g, DOM)
    assert not is_const


def test_weierstrass_form_matches_flagship():
    g = integrate_trig(SEC, "gregory").antiderivative
    w = integrate_trig(SEC, "weierstrass").antiderivative
    is_const, const = constant_difference_check(g, w, DOM)
    assert is_const
    assert abs(const) < 1e-8


def test_four_way_agreement_on_secant():
    results = {
        name: integrate_trig(SEC, name).antiderivative
        for name in ("gregory", "modified-weierstrass", "barrow", "weierstrass")
    }
    names = list(results)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            is_const, const = constant_difference_check(results[a], results[b], DOM)
            assert is_const, (a, b)
            assert abs(const) < 1e-8, (a, b)


# ---------------------------------------------------------------------------
# randomized behavior


def test_gregory_modified_identical_term_for_term():
    rng = random.Random(41)
    done = 0
    while done < 25:
        r = random_trig_rational(rng, max_degree=2, bound=3)
        try:
            g = integrate_trig(r, "gregory")
        except SecintError:
            continue
        m = integrate_trig(r, "modified-weierstrass")
        assert g.antiderivative == m.antiderivative
        done += 1


def test_auto_success_implies_verified():
    rng = random.Random(43)
    succeeded = 0
    for _ in range(60):
        r = random_trig_rational(rng, max_degree=2, bound=3)
        try:
            report = integrate_trig(r, "auto")
        except SecintError:
            continue
        assert symbolic_derivative(report.antiderivative) == r
        assert sum(isinstance(t, RatTerm) for t in report.antiderivative.terms) <= 1
        succeeded += 1
    # random quadratics often leave the rational coefficient field
    # (IrrationalAtanScale) or produce rootless cubics; a healthy fraction
    # still lands inside the supported class
    assert succeeded >= 10
