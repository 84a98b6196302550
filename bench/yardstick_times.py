"""Write yardstick_times.json: the yardstick's median time per input.

    python3 bench/yardstick_times.py

The yardstick is the frozen copy of the package in ``yardstick/``.  Run
this once, on the machine whose speed the reported times should refer to;
the benchmark scales every measured latency by this file's time for the
input over the yardstick's time on the same input right after it.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
from pathlib import Path

import worker
from workloads import WORKLOADS, make_inputs

ROUNDS = 5
OUT = Path(__file__).resolve().parent / "yardstick_times.json"


def main() -> int:
    worker.load_secint()
    signal.signal(signal.SIGALRM, worker._on_alarm)
    worker.yardstick_op("sec(x)")
    samples: dict[str, list[float]] = {}
    for _ in range(ROUNDS):
        for name in WORKLOADS:
            for text in make_inputs(name, 0):
                samples.setdefault(text, []).append(worker.timed_op(worker.yardstick_op, text)[0])
    times = {text: statistics.median(values) for text, values in sorted(samples.items())}
    OUT.write_text(json.dumps(times, indent=0) + "\n")
    print(f"{len(times)} inputs, {sum(times.values()):.3f} s per round", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
