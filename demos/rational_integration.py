"""The rational-function stage of the pipeline, in isolation.

Hermite reduction strips repeated denominator factors without factoring
anything over an extension field; partial fractions turn what is left
straight into antiderivative terms (a rational term for the polynomial
quotient, logs and atans for the linear and quadratic factors).
Because every coefficient is an exact fraction, the round trip
d/du (integral) = integrand is literal equality, not a tolerance check.
"""

from fractions import Fraction

from secint.integrate import (
    hermite_reduce,
    integrate_rational,
    make_antiderivative,
    partial_fractions,
    symbolic_derivative,
)
from secint.ratfunc import Polynomial, RationalFunction

u = Polynomial.variable("u")
one = RationalFunction.constant(Fraction(1), "u")

examples = [
    one / (u * u * (u - 1)),
    RationalFunction.from_polynomial(u + 1) / (u * u + 1),
    one / ((u - 1) * (u + 2) ** 2),
    RationalFunction.from_polynomial(u**4 + 1) / (u * u - 4),
    RationalFunction.from_polynomial(2 * u) / (u * u + 3) ** 2,
]

for f in examples:
    print(f"f(u) = {f}")
    rational_part, remainder = hermite_reduce(f)
    print(f"  hermite: rational part {rational_part}, remainder {remainder}")
    if not remainder.num.is_zero():
        print("  partial fractions of the remainder, as antiderivative terms:")
        for term in partial_fractions(remainder):
            body = str(make_antiderivative([term], "u")).removesuffix(" + C")
            print(f"    {type(term).__name__}: {body}")
    F = integrate_rational(f)
    print(f"  integral: {F}")
    assert symbolic_derivative(F) == f, "round trip must be exact"
    print("  d/du of the integral reproduces f exactly")
    print()
