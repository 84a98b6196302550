"""Pinned outputs for the benchmark's inputs, compared record by record.

``data/golden_outputs.json`` holds integrand texts with the outcome of
``integrate_trig`` for each: the 40 acceptance-corpus and 34 powers inputs
under auto mode and under every method, and the 150 random-mix inputs under
auto mode.  An outcome is the winning method, the rendered antiderivative
and the per-method failures, or the refusal's class and message.  The file
carries its own inputs, so the tests do not import ``bench/``.

A change that alters outputs on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and lists the changed strings
in CHANGES.md.
"""

import json
from pathlib import Path

from secint.engine import integrate_trig
from secint.errors import SecintError
from secint.parse import parse_trig
from secint.render import format_antiderivative

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"


def outcome(text: str, method: str) -> dict:
    try:
        report = integrate_trig(parse_trig(text), method)
    except SecintError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "method": report.method.value,
        "antiderivative": format_antiderivative(report.antiderivative),
        "failures": [list(failure) for failure in report.failures],
    }


def test_outputs_match_golden():
    records = json.loads(GOLDEN.read_text())
    assert len(records) == 40 * 5 + 34 * 5 + 150
    changed = [
        (r["input"], r["method"], r["outcome"], got)
        for r in records
        if (got := outcome(r["input"], r["method"])) != r["outcome"]
    ]
    assert changed == []


if __name__ == "__main__":
    records = json.loads(GOLDEN.read_text())
    for r in records:
        r["outcome"] = outcome(r["input"], r["method"])
    lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
