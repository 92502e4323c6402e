"""The out-of-SSA stack's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (and writes the spans to ``.perfbench/``).  One line per metric goes
to standard output, then, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": k, "metrics": {name: {"value", "unit"}}}

``correct`` is false when any op emitted wrong code (see
``common.WRONG_CODE``); ``failed`` counts every op that raised, was refused or
failed a check.  DESIGN.md records why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

from common import MIN_TAIL_SAMPLES, WRONG_CODE, Speed, percentile_supported, tail_count
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Set-up runs this many times; ``setup_s`` is the median, and the last
#: set-up's state is measured.
SETUP_REPEATS = 3
#: Calibration samples taken on each side of a set-up.
SETUP_SAMPLES = 5
WORKLOADS = ("suite", "big-fn", "serve", "jit-edit")


def _workload(name: str):
    """(set-up function, module with end_to_end/per_layer/close)."""
    if name in ("suite", "big-fn"):
        import offline

        return (offline.setup_suite if name == "suite" else offline.setup_bigfn), offline
    if name == "serve":
        import serve

        return serve.setup, serve
    import jitedit

    return jitedit.setup, jitedit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase of time-bound workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still stops what it started (the serve daemon).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    setup, module = _workload(args.workload)

    speed = Speed()
    setup_seconds = []
    for repeat in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        began = time.perf_counter()
        state = setup(args.seed)
        ended = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        setup_seconds.append((ended - began) * speed.factor(began, ended))
        if repeat + 1 < SETUP_REPEATS:
            module.close(state)

    try:
        if args.trace:
            tracer = Tracer()
            metrics, outcome = module.per_layer(state, args.seconds, speed, tracer)
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics, outcome = module.end_to_end(state, args.seconds, speed)
            metrics["setup_s"] = (statistics.median(setup_seconds), "s")
    finally:
        module.close(state)

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    loop = statistics.median(seconds for _, seconds in speed.samples)
    print(f"machine: calibration loop median {loop * 1e3:.3f} ms over {len(speed.samples)} "
          f"samples; op times scaled by {outcome.scale:.4f} to reference seconds")
    for kind, count in sorted(outcome.failures.items()):
        print(f"failed op: {kind} x{count}")
    for q in (0.5, 0.9, 0.99):
        n = len(outcome.latencies)
        if not args.trace and not percentile_supported(n, q):
            print(f"note: p{round(q * 100)} has {tail_count(n, q)} of {n} samples beyond it "
                  f"(fewer than {MIN_TAIL_SAMPLES}); it is no tail estimate")
    print(json.dumps({
        "correct": not any(kind.startswith(WRONG_CODE) for kind in outcome.failures),
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
