"""Measure one workload inside a fresh interpreter.

Run by ``run.py`` as ``python3 bench/worker.py WORKLOAD SEED SECONDS TRACE``;
prints one JSON object.  One operation is ``parse_trig`` ->
``integrate_trig(method="auto")`` -> ``format_antiderivative`` on one
integrand text, run in a closed loop on this one thread.  The loop runs
whole passes over the workload's inputs and starts another pass while less
than SECONDS have elapsed, so every input is timed equally often.  Each
operation is followed, outside its timing, by the same operation on the
frozen yardstick, and times are reported on the reference machine (see
``end_to_end_metrics``).  Every answer is checked exactly after the timed
window.  With TRACE = 1 untraced
passes alternate with passes that have the layer spans of ``tracing.py``
installed, and only per-layer metrics are reported.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# An operation running this long counts as a missing answer, not a stall.
OP_TIME_CAP_S = 30.0
# The tail latency is the highest percentile with this many samples of
# every pass beyond it.
TAIL_BEYOND = 10
# Points where the parsed integrand is compared with the input text.
PARSE_CHECK_POINTS = (-1.1, -0.4, 0.3, 0.9)
PARSE_CHECK_RTOL = 1e-9

_FLOAT_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sec": lambda v: 1 / math.cos(v),
    "csc": lambda v: 1 / math.sin(v),
    "cot": lambda v: math.cos(v) / math.sin(v),
}


def reference_times() -> dict[str, float]:
    """The yardstick's time per input on the reference machine."""
    return json.loads((Path(__file__).resolve().parent / "yardstick_times.json").read_text())


def load_secint():
    """Import secint from this checkout's ``src`` and nowhere else."""
    package = SRC / "secint"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no secint package under {SRC}")
    sys.path.insert(0, str(SRC))
    import secint

    if Path(secint.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"secint was imported from {secint.__file__}, not {package}")
    return secint


class OpTimeout(BaseException):
    """Raised by the alarm when one operation exceeds OP_TIME_CAP_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(text: str):
    """The measured operation; module attributes are looked up per call so
    that the tracer's wrappers are seen."""
    from secint import engine, parse, render

    R = parse.parse_trig(text)
    report = engine.integrate_trig(R, method="auto")
    return R, report.antiderivative, render.format_antiderivative(report.antiderivative)


def yardstick_op(text: str):
    """The same operation on the frozen copy of the package in
    ``yardstick/``; its refusals are not the program's, so they return
    None."""
    import yardstick

    try:
        R = yardstick.parse_trig(text)
        report = yardstick.integrate_trig(R, method="auto")
        return yardstick.format_antiderivative(report.antiderivative)
    except yardstick.SecintError:
        return None


def timed_op(call, text: str) -> tuple[float, str, object]:
    """Time one capped operation: (seconds, outcome, value).

    The outcome is "answered", the class name of a typed refusal, or
    "timeout".  Any other exception propagates and ends the run.
    """
    from secint import SecintError

    clock = time.perf_counter
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_CAP_S)
    start = clock()
    try:
        value = call(text)
        outcome = "answered"
    except SecintError as exc:
        value, outcome = None, type(exc).__name__
    except OpTimeout:
        value, outcome = None, "timeout"
    finally:
        elapsed = clock() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, outcome, value


@dataclass
class Window:
    """Whole passes of timed operations.

    ``records`` holds (text, seconds, outcome) per operation; ``answers``
    keeps each distinct answer once, keyed by (text, rendered answer), so
    memory does not grow with the number of passes.  ``wall`` excludes the
    yardstick, whose latencies, when it ran, are in ``yardstick``.
    """

    records: list
    answers: dict
    wall: float
    passes: int
    yardstick: list


def run_passes(call, inputs: list[str], seconds: float, paired: bool = False) -> Window:
    """Whole passes until ``seconds`` have elapsed; one pass for 0.

    With ``paired`` each operation is followed, outside its own timing, by
    the same operation on the yardstick, so that both see the same moments
    of the machine.
    """
    records: list[tuple[str, float, str]] = []
    answers: dict = {}
    yardstick: list[float] = []
    gc.collect()
    start = time.perf_counter()
    passes = 0
    while True:
        for text in inputs:
            elapsed, outcome, value = timed_op(call, text)
            records.append((text, elapsed, outcome))
            if value is not None:
                R, G, rendered = value
                answers.setdefault((text, rendered), (R, G))
            if paired:
                yardstick.append(timed_op(yardstick_op, text)[0])
        passes += 1
        wall = time.perf_counter() - start - sum(yardstick)
        if wall >= seconds:
            return Window(records, answers, wall, passes, yardstick)


def exact_check(R, G) -> bool:
    """The certificate: d/dx G equals R exactly in the canonical ring."""
    from secint import integrate

    return integrate.symbolic_derivative(G) == R


def _text_value(text: str, x: float) -> float:
    namespace = dict(_FLOAT_FUNCTIONS, x=x)
    return eval(text.replace("^", "**"), {"__builtins__": {}}, namespace)


def parse_matches_text(text: str, R) -> bool:
    """Compare the parsed integrand with a float evaluation of its text,
    which does not go through secint's parser."""
    from secint import SingularPoint, eval_trig

    usable = 0
    for x in PARSE_CHECK_POINTS:
        try:
            expected = _text_value(text, x)
            got = eval_trig(R, x)
        except (ZeroDivisionError, SingularPoint):
            continue
        if abs(got - expected) > PARSE_CHECK_RTOL * max(1.0, abs(expected)):
            return False
        usable += 1
    return usable > 0


def wrong_answers(answers: dict, check=exact_check) -> list[str]:
    """Texts whose answer fails the exact check or whose parse disagrees
    with the text."""
    wrong = [text for (text, _), (R, G) in answers.items() if not check(R, G)]
    parsed = {text: R for (text, _), (R, _) in answers.items()}
    wrong.extend(text for text, R in parsed.items() if not parse_matches_text(text, R))
    return wrong


def _tail(latencies: list[float], passes: int) -> float:
    return sorted(latencies)[len(latencies) - TAIL_BEYOND * passes - 1]


def end_to_end_metrics(window: Window, reference: dict[str, float]) -> dict[str, float]:
    """End-to-end figures, each time scaled to the reference machine.

    The yardstick ran right after every operation, on the same input, so it
    saw the same moments of a machine whose speed drifts.  Each latency is
    multiplied by the yardstick's time for that input on the reference
    machine (``reference``, from yardstick_times.json) over its time right
    after the operation; the wall time by the same ratio over the window.
    """
    latencies = [
        seconds * reference[text] / yard
        for (text, seconds, _), yard in zip(window.records, window.yardstick)
    ]
    measured = sum(seconds for _, seconds, _ in window.records)
    n = len(latencies)
    answered = sum(1 for r in window.records if r[2] == "answered")
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": _tail(latencies, window.passes) * 1e3,
        "throughput_per_s": n / (window.wall * sum(latencies) / measured),
        "answered_frac": answered / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(tracer, passes: int, overhead: float):
    """Per-pass layer figures from ``tracer``."""
    from tracing import LAYERS

    def stat(name):
        return tracer.stats["op", name]

    timed = [name for name, _, _ in LAYERS if name != "integrate.symbolic_derivative"]
    metrics = {f"{name}.self_s": stat(name).self_s / passes for name in timed}
    metrics.update({f"{name}.total_s": stat(name).total_s / passes for name in timed})
    for name in ("ratfunc.rational_roots", "ratfunc.poly_gcd", "trig.canonicalize", "engine.diff_check"):
        metrics[f"{name}.calls"] = stat(name).calls / passes
    sub = stat("substitution.apply_substitution").values
    roots = stat("ratfunc.rational_roots").values
    trig_op = stat("engine.integrate_trig").values
    tried = stat("substitution.apply_substitution").calls
    metrics.update({
        "substitution.apply_substitution.out_degree": _mean(sub["out_degree"]),
        "substitution.apply_substitution.out_bits": _mean(sub["out_bits"]),
        "ratfunc.rational_roots.const_bits": max(roots["const_bits"], default=0),
        "integrate.partial_fractions.refused":
            sum(stat("integrate.partial_fractions").values["refused"]) / passes,
        "integrate.integrate_rational.irrational_refused":
            sum(stat("integrate.integrate_rational").values["irrational_refused"]) / passes,
        "engine.diff_check.singular": sum(stat("engine.diff_check").values["singular"]) / passes,
        "engine.integrate_trig.methods_tried": tried / passes,
        "engine.integrate_trig.methods_ok": tracer.methods_ok / passes,
        "engine.integrate_trig.useful_frac": len(trig_op["winner"]) / tried if tried else 0.0,
        "engine.integrate_trig.loser_s": tracer.loser_s / passes,
        "engine.integrate_trig.winner_terms": _mean(trig_op["terms"]),
        "render.format_antiderivative.chars": _mean(stat("render.format_antiderivative").values["chars"]),
        "integrate.symbolic_derivative.self_s":
            tracer.stats["check", "integrate.symbolic_derivative"].self_s / passes,
        "trace.overhead_frac": overhead,
    })
    return metrics


def _wall(windows: list[Window]) -> float:
    return sum(w.wall for w in windows)


def traced_passes(inputs: list[str], seconds: float):
    """Alternate untraced and traced passes until the untraced ones have
    taken ``seconds``; pairing them keeps drift in machine speed out of the
    tracing overhead.  Returns (records, wrong texts, per-layer metrics,
    untraced windows)."""
    from tracing import Tracer

    tracer = Tracer()
    plain: list[Window] = []
    traced: list[Window] = []
    wrong: list[str] = []
    while not plain or _wall(plain) < seconds:
        plain.append(run_passes(run_op, inputs, 0))
        wrong += wrong_answers(plain[-1].answers)
        tracer.install()
        try:
            traced.append(run_passes(lambda text: tracer.root("op", run_op, text), inputs, 0))
            wrong += wrong_answers(
                traced[-1].answers, lambda R, G: tracer.root("check", exact_check, R, G)
            )
        finally:
            tracer.uninstall()
    metrics = per_layer_metrics(tracer, len(traced), _wall(traced) / _wall(plain) - 1)
    records = [r for w in plain + traced for r in w.records]
    return records, wrong, metrics, plain


def measure(inputs: list[str], seconds: float, trace: bool, reference: dict[str, float]) -> dict:
    """Warm up, time whole passes, check every answer, and return the
    result object run.py prints (metrics without setup_s)."""
    if len(inputs) <= TAIL_BEYOND:
        raise ValueError(f"a workload needs more than {TAIL_BEYOND} inputs for its tail latency")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        run_op("sec(x)")
        if trace:
            records, wrong, metrics, windows = traced_passes(inputs, seconds)
        else:
            yardstick_op("sec(x)")
            window = run_passes(run_op, inputs, seconds, paired=True)
            records, windows = window.records, [window]
            metrics = end_to_end_metrics(window, reference)
            wrong = wrong_answers(window.answers)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    outcomes = Counter(outcome for _, _, outcome in records)
    return {
        "correct": not wrong,
        "attempted": len(records),
        "failed": outcomes["timeout"],
        "metrics": metrics,
        "info": {
            "inputs_per_pass": len(inputs),
            "passes": sum(w.passes for w in windows),
            "wall_s": _wall(windows),
            "yardstick_s": sum(windows[0].yardstick) / windows[0].passes,
            "tail_percentile": 100 * (len(inputs) - TAIL_BEYOND) / len(inputs),
            "outcomes": dict(sorted(outcomes.items())),
            "wrong": sorted(set(wrong)),
        },
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    load_secint()
    from workloads import make_inputs

    result = measure(make_inputs(name, seed), seconds, trace, reference_times())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
