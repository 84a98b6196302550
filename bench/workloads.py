"""The benchmark's four workloads, frozen here rather than imported.

Every workload is a list of integrand texts in the grammar of
``secint.parse``.  ``make_inputs(name, seed)`` returns the list a run
measures; the same seed always gives the same list.

corpus-auto
    The 40-integrand acceptance corpus (a copy, so that edits to the test
    suite cannot move the benchmark).  The seed shuffles the order.  Its
    cost is spread over every stage, so it shows per-call overhead.
powers-auto
    ``sec(x)^k`` (k = 1..12), ``1/(5+3*cos(x))^k`` (k = 1..10) and
    ``sin(x)^k`` (k = 1..12): high degree and repeated factors, so Hermite
    reduction and back-substitution dominate.  ``sec(x)^10..12`` are
    refused with ``SingularPoint`` by the numeric pole guard; they stay in
    on purpose so that ``answered_frac`` shows that defect.  The seed
    shuffles the order.
wide-coeffs
    ``1/(a+b*cos(x))`` and ``1/(a+b*sin(x))`` with ``a = m^2+n^2`` and
    ``b = 2mn``, so that ``a^2-b^2`` is a square and the answer exists over
    Q.  m is log-uniform in [10^2, 10^6], one draw per equal slice of
    log m so that the pool covers the range evenly, and n is in 1..9: low
    degree, wide coefficients, so nearly all the time goes into root
    finding.
random-mix
    Random quotients of ``p(c) + q(c)*sin(x)`` with ``c = cos(x)``, each
    polynomial of degree at most 2 with coefficients in [-3, 3].  Most are
    refused (``UnsupportedDenominator``, ``IrrationalAtanScale``), so this
    is the workload where the refusal paths are timed.

The wide-coeffs and random-mix pools are drawn once, from a fixed seed, and
the run seed only shuffles them.  Fresh draws per seed are not steady
enough to compare two commits: the cost of root finding depends on how many
divisors ``a`` has, so one wide-coeffs draw in about twenty takes seconds
(one took 14 s of a 28 s pass); and about one random-mix draw in seven is
answered, so over 150 fresh draws the binomial spread of that share is
about a fifth of itself.
"""

from __future__ import annotations

import random

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

POWERS = (
    [f"sec(x)^{k}" for k in range(1, 13)]
    + [f"1/(5+3*cos(x))^{k}" for k in range(1, 11)]
    + [f"sin(x)^{k}" for k in range(1, 13)]
)

WIDE_DRAWS = 30
WIDE_DECADES = (2, 6)

RANDOM_MIX_DRAWS = 150

# Both generated pools are drawn from this fixed seed (the paper's arXiv
# number), chosen before any run and never tuned.
POOL_SEED = 220411187


def _wide_coeffs(rng: random.Random) -> list[str]:
    lo, hi = WIDE_DECADES
    out = []
    for i in range(WIDE_DRAWS):
        m = round(10 ** (lo + (hi - lo) * (i + rng.random()) / WIDE_DRAWS))
        n = rng.randint(1, 9)
        trig = "cos" if i % 2 == 0 else "sin"
        out.append(f"1/({m * m + n * n}+{2 * m * n}*{trig}(x))")
    return out


def _cos_poly(rng: random.Random) -> list[int]:
    return [rng.randint(-3, 3) for _ in range(rng.randint(0, 2) + 1)]


def _poly_text(coeffs: list[int]) -> str:
    powers = ("", "*cos(x)", "*cos(x)^2")
    terms = [f"{c}{powers[k]}" for k, c in enumerate(coeffs) if c != 0]
    return "+".join(terms).replace("+-", "-") or "0"


def _trig_poly_text(p: list[int], q: list[int]) -> str:
    return f"(({_poly_text(p)})+({_poly_text(q)})*sin(x))"


def _random_mix_pool() -> list[str]:
    rng = random.Random(POOL_SEED)
    out = []
    for _ in range(RANDOM_MIX_DRAWS):
        num = _trig_poly_text(_cos_poly(rng), _cos_poly(rng))
        while True:
            p, q = _cos_poly(rng), _cos_poly(rng)
            if any(p) or any(q):
                break
        out.append(f"{num}/{_trig_poly_text(p, q)}")
    return out


WORKLOADS = ("corpus-auto", "powers-auto", "wide-coeffs", "random-mix")

def make_inputs(name: str, seed: int) -> list[str]:
    """The integrand texts one run of workload ``name`` measures."""
    rng = random.Random(seed)
    if name == "corpus-auto":
        inputs = list(CORPUS)
    elif name == "powers-auto":
        inputs = list(POWERS)
    elif name == "wide-coeffs":
        inputs = _wide_coeffs(random.Random(POOL_SEED))
    elif name == "random-mix":
        inputs = _random_mix_pool()
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(inputs)
    return inputs
