"""Integration benchmark for secint: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of corpus-auto, powers-auto, wide-coeffs, random-mix (see
workloads.py for what each one exercises and why).  One closed-loop client
on one thread runs ``parse_trig -> integrate_trig(method="auto") ->
format_antiderivative`` over the workload's inputs, in a fresh interpreter
per workload, one workload after another.  Every answer is checked exactly
(``symbolic_derivative(G) == R``) after the timed window; a wrong answer or
an exception that is not a ``SecintError`` makes the run exit non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
``failed`` counts operations stopped by the per-call time cap.  The lines
before it record the Python version, nproc, the commit, the tail
percentile and the outcome of every operation by class.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# setup_s is the median over this many fresh interpreters.
SETUP_LAUNCHES = 9
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import secint
secint.integrate_trig(secint.parse_trig("sec(x)"))
print(time.perf_counter() - start)
"""
WORKER_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONHASHSEED="0")


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds() -> float:
    """Median time from ``import secint`` through the first
    ``integrate_trig(parse_trig("sec(x)"))`` in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_worker(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(seconds), str(trace)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker for {name} exited with {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setup = None if trace else setup_seconds()
    result = run_worker(name, seed, seconds, trace)
    info = result.pop("info")
    if setup is not None:
        result["metrics"]["setup_s"] = setup
    result["metrics"] = with_units(result["metrics"], "per_layer" if trace else "end_to_end")
    print(
        f"# {name}: seed {seed}, {info['inputs_per_pass']} inputs x {info['passes']} passes "
        f"in {info['wall_s']:.3f} s (yardstick {info['yardstick_s']:.3f} s per pass); "
        f"tail = p{info['tail_percentile']:.1f}; "
        f"outcomes {json.dumps(info['outcomes'])}"
    )
    if info["wrong"]:
        print(f"# {name}: WRONG {json.dumps(info['wrong'])}")
    return result


def with_units(metrics: dict[str, float], kind: str) -> dict[str, dict]:
    """Attach the units BENCHMARK.json declares for its "end_to_end" or
    "per_layer" metrics; a metric it does not declare is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secint" / "__init__.py").is_file():
        print(f"bench: no secint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"commit {commit_id()}, {time.strftime('%Y-%m-%dT%H:%M:%S%z')}"
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
