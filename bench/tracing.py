"""Spans around secint's layer functions, recorded from outside the package.

Each traced function is replaced, at every module attribute where the
package looks it up, by a wrapper that records a span: its name, the span
that called it, its start and end, and a few layer-specific counts taken
from its arguments and result.  Spans are kept in memory for one root
operation at a time and then folded into per-layer totals; a span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

from secint import engine, errors, integrate, parse, ratfunc, render, trig


def _coefficient_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coefficients),
        default=0,
    )


def _substitution_size(args, result, exc):
    if exc is not None:
        return {"method": args[1].name.value}
    f = result.integrand
    return {
        "method": args[1].name.value,
        "out_degree": max(f.num.degree, f.den.degree),
        "out_bits": max(_coefficient_bits(f.num), _coefficient_bits(f.den)),
    }


def _root_input_bits(args, result, exc):
    lowest = next((c for c in args[0].coefficients if c != 0), None)
    if lowest is None:
        return {}
    return {"const_bits": max(lowest.numerator.bit_length(), lowest.denominator.bit_length())}


def _refused_as(error_class, key):
    def annotate(args, result, exc):
        return {key: 1} if isinstance(exc, error_class) else {}

    return annotate


def _integrate_trig_outcome(args, result, exc):
    if exc is not None:
        return {}
    return {
        "winner": result.method.value,
        "failures": len(result.failures),
        "terms": len(result.antiderivative.terms),
    }


def _rendered_chars(args, result, exc):
    return {} if exc is not None else {"chars": len(result)}


# (span name, lookup sites, annotation) for every traced layer function.
LAYERS = (
    ("parse.parse_trig", ((parse, "parse_trig"),), None),
    ("engine.integrate_trig", ((engine, "integrate_trig"),), _integrate_trig_outcome),
    ("substitution.apply_substitution", ((engine, "apply_substitution"),), _substitution_size),
    ("integrate.integrate_rational", ((engine, "integrate_rational"),),
     _refused_as(errors.IrrationalAtanScale, "irrational_refused")),
    ("integrate.hermite_reduce", ((integrate, "hermite_reduce"),), None),
    ("integrate.partial_fractions", ((integrate, "partial_fractions"),),
     _refused_as(errors.UnsupportedDenominator, "refused")),
    ("ratfunc.rational_roots", ((integrate, "rational_roots"),), _root_input_bits),
    ("ratfunc.poly_gcd", ((ratfunc, "poly_gcd"), (trig, "poly_gcd"), (integrate, "poly_gcd")), None),
    ("trig.canonicalize", ((trig, "canonicalize"),), None),
    ("substitution.back_substitute", ((engine, "back_substitute"),), None),
    ("engine.diff_check", ((engine, "diff_check"),), _refused_as(errors.SingularPoint, "singular")),
    ("render.format_antiderivative", ((render, "format_antiderivative"),), _rendered_chars),
    ("integrate.symbolic_derivative", ((integrate, "symbolic_derivative"),), None),
)


class LayerStats:
    """Totals for one span name under one kind of root span."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.values = defaultdict(list)


class Tracer:
    """Install with :meth:`install`, call :meth:`root` per operation,
    restore the package with :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, attrs]
        self.stack: list[int] = []
        self.stats: dict[tuple[str, str], LayerStats] = defaultdict(LayerStats)
        self.loser_s = 0.0
        self.methods_ok = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                stack.pop()
                if annotate is not None:
                    span[4] = annotate(args, None, exc)
                raise
            span[3] = clock()
            stack.pop()
            if annotate is not None:
                span[4] = annotate(args, result, None)
            return result

        return traced

    def install(self) -> None:
        for name, sites, annotate in LAYERS:
            original = getattr(*sites[0])
            if any(getattr(module, attr) is not original for module, attr in sites):
                raise RuntimeError(f"{name} is bound to different objects at its lookup sites")
            wrapper = self._wrap(name, original, annotate)
            for module, attr in sites:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span, then fold its spans into the
        totals.  Exceptions propagate after folding."""
        try:
            return self._wrap(name, fn, None)(*args)
        finally:
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        root = spans[0][0]
        children: list[list[int]] = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span[1] >= 0:
                children[span[1]].append(index)
        for index, (name, _, start, end, attrs) in enumerate(spans):
            covered = sum(spans[c][3] - spans[c][2] for c in children[index])
            stats = self.stats[root, name]
            stats.calls += 1
            stats.total_s += end - start
            stats.self_s += (end - start) - covered
            if attrs:
                for key, value in attrs.items():
                    stats.values[key].append(value)
            if name == "engine.integrate_trig":
                self._count_methods(spans, children[index], attrs)
        spans.clear()

    def _count_methods(self, spans, child_indices, attrs) -> None:
        """Add the methods one integrate_trig call verified, and the time
        its children spent on methods other than the winner (all of it
        when no method won)."""
        winner = attrs.get("winner") if attrs else None
        tried = 0
        method = None
        for c in child_indices:
            name, _, start, end, child_attrs = spans[c]
            if name == "substitution.apply_substitution":
                method = child_attrs["method"]
                tried += 1
            if method != winner:
                self.loser_s += end - start
        if winner is not None:
            self.methods_ok += tried - attrs["failures"]
