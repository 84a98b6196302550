"""Integrate sec(x) four ways and watch the answers agree.

Each substitution turns the secant into an ordinary rational function of
one parameter.  The parametrizations look different, the intermediate
rational functions look different, and the printed antiderivatives look
different, yet every pair differs by a constant (here: by zero).
"""

import math

from secint.engine import VerificationDomain, constant_difference_check, integrate_trig
from secint.integrate import symbolic_derivative
from secint.parse import parse_trig
from secint.render import format_antiderivative
from secint.substitution import SubstitutionName, apply_substitution, get_substitution

secant = parse_trig("sec(x)")
domain = VerificationDomain(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)

print(f"integrand: {secant}")
print()

reports = {}
for name in SubstitutionName:
    sub = get_substitution(name)
    onto = apply_substitution(secant, sub)
    report = integrate_trig(secant, method=name)
    reports[name] = report
    print(f"[{name.value}]")
    print(f"  rational integrand in {sub.param}: {onto.integrand}")
    print(f"  antiderivative: {format_antiderivative(report.antiderivative)}")
    exact = symbolic_derivative(report.antiderivative) == secant
    print(f"  derivative equals the integrand exactly: {exact}")
    print()

print("pairwise constant differences over the shared validity window:")
names = list(reports)
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        is_constant, constant = constant_difference_check(
            reports[names[i]].antiderivative,
            reports[names[j]].antiderivative,
            domain,
        )
        status = "constant" if is_constant else "NOT CONSTANT"
        print(
            f"  {names[i].value:>20} vs {names[j].value:<20} "
            f"{status}, offset {constant:+.2e}"
        )
