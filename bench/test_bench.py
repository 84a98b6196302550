"""Self-test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import time

import pytest

import run
import worker
from workloads import WORKLOADS, make_inputs

secint = worker.load_secint()


def _tiny(name: str) -> list[str]:
    """The workload's shortest texts, just enough for a tail latency."""
    return sorted(make_inputs(name, 1), key=lambda text: (len(text), text))[: worker.TAIL_BEYOND + 1]


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = worker.measure(_tiny(name), 0, trace, worker.reference_times())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(_tiny(name)) * (2 if trace else 1)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = 0.1
    kind = "per_layer" if trace else "end_to_end"
    emitted = run.with_units(metrics, kind)
    assert {name: m["unit"] for name, m in emitted.items()} == _declared(kind)
    assert all(math.isfinite(m["value"]) for m in emitted.values())


def test_every_input_has_a_reference_time():
    reference = worker.reference_times()
    for name in WORKLOADS:
        assert set(make_inputs(name, 1)) <= set(reference), name


def test_setup_time_comes_from_fresh_interpreters():
    assert 0 < run.setup_seconds() < 10


def test_tracer_restores_the_package():
    original = secint.engine.integrate_trig
    worker.measure(_tiny("corpus-auto"), 0, True, worker.reference_times())
    assert secint.engine.integrate_trig is original


def test_exact_check_rejects_a_wrong_antiderivative():
    R = secint.parse_trig("sec(x)")
    G = secint.integrate_trig(R).antiderivative
    assert worker.exact_check(R, G)
    doubled = secint.make_antiderivative(
        [dataclasses.replace(term, coefficient=2 * term.coefficient) for term in G.terms], "x"
    )
    assert not worker.exact_check(R, doubled)
    answers = {("sec(x)", "right"): (R, G), ("sec(x)", "wrong"): (R, doubled)}
    assert worker.wrong_answers(answers) == ["sec(x)"]


def test_parse_check_compares_with_the_text():
    R = secint.parse_trig("1/(5+3*cos(x))")
    assert worker.parse_matches_text("1/(5+3*cos(x))", R)
    assert not worker.parse_matches_text("1/(5-3*cos(x))", R)


def test_time_cap_turns_a_stall_into_a_timeout(monkeypatch):
    monkeypatch.setattr(worker, "OP_TIME_CAP_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        elapsed, outcome, _ = worker.timed_op(lambda text: time.sleep(5), "stall")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome == "timeout" and elapsed < 1
