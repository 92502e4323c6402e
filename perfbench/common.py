"""Shared pieces of the benchmark: statistics, machine-speed calibration,
the correctness oracle and the per-run bookkeeping every workload fills in.

Nothing here imports ``repro`` at module level: ``run.py`` puts the
checkout's ``src/`` on ``sys.path`` (and refuses to run without it) before
any workload module is imported.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is a tail estimate only when at least this many samples
#: lie beyond it; below that it is the noise of one or two slow ops.
MIN_TAIL_SAMPLES = 10

#: Step budget for computing a source's reference behaviour in set-up.  The
#: stress-corpus loops branch on arbitrary values and rarely terminate, so a
#: small budget decides quickly which argument vectors are defined at all.
REFERENCE_STEPS = 20_000

def argument_vectors(param_count: int) -> List[Tuple[int, ...]]:
    """The argument vectors ``repro.verify.checks.check_behaviour`` tries."""
    if param_count == 0:
        return [()]
    return [
        tuple(0 for _ in range(param_count)),
        tuple(i + 1 for i in range(param_count)),
        tuple((i * 7 + 3) % 13 for i in range(param_count)),
    ]


# --------------------------------------------------------------------------- statistics
def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-quantile rank."""
    return n - math.ceil(q * n) if n else 0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (numpy's default definition)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def percentile_supported(n: int, q: float) -> bool:
    """The reporting rule: at least :data:`MIN_TAIL_SAMPLES` beyond ``q``."""
    return tail_count(n, q) >= MIN_TAIL_SAMPLES


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """High-water resident set size of this process (or ``pid``) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------------- machine speed
#: Median seconds of :func:`calibration_loop` on the machine that defined
#: the benchmark, idle: the unit of the reported times.
REFERENCE_LOOP_SECONDS = 0.0025
#: A calibration sample is taken before an op once this many seconds have
#: passed since the last one.
SAMPLE_EVERY = 0.1
#: Samples within this many seconds of an op set its speed factor.
SPEED_WINDOW = 1.0


class _Node:
    __slots__ = ("name", "value", "successors")

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.value = value
        self.successors: List["_Node"] = []


def calibration_loop() -> float:
    """Seconds a fixed pure-Python graph walk takes right now.

    It builds and walks a small object graph through dicts, sets and
    strings, as a compiler pass does, but calls none of the program's code.
    The collector is off while it runs, so the program's heap does not
    move it; only the machine's speed does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        nodes = [_Node(f"b{i}", i) for i in range(400)]
        table = {node.name: node for node in nodes}
        for node in nodes:
            node.successors.append(nodes[(node.value * 7 + 3) % 400])
            node.successors.append(nodes[(node.value * 13 + 5) % 400])
        total = 0
        for _ in range(12):
            seen = set()
            for node in nodes:
                for successor in node.successors:
                    if successor.name not in seen:
                        seen.add(successor.name)
                        total += table[successor.name].value
            total += len([f"{node.name}={node.value}".split("=") for node in nodes[:150]])
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples over a run, to report times in reference seconds.

    The shared machine's speed drifts by tens of percent within minutes,
    for every process alike, and this loop's time follows it closely.  Each op's wall time is multiplied by
    ``REFERENCE_LOOP_SECONDS`` over the median calibration time measured
    within :data:`SPEED_WINDOW` of it: a change to the program moves the
    scaled time as it moves the wall time, a slow minute of the machine
    does not.
    """

    def __init__(self) -> None:
        #: (midpoint, seconds) of every sample, in time order.
        self.samples: List[Tuple[float, float]] = []
        #: Wall seconds spent calibrating (excluded from the timed phases).
        self.spent = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        seconds = calibration_loop()
        self.samples.append((began + seconds / 2, seconds))
        self.spent += time.perf_counter() - began

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference over actual machine speed from ``start`` to ``end``."""
        times = [t for t, _ in self.samples]
        low = bisect.bisect_left(times, start - SPEED_WINDOW)
        high = bisect.bisect_right(times, end + SPEED_WINDOW)
        if low == high:  # no sample that close: the nearest one
            nearest = min(range(len(times)), key=lambda i: abs(times[i] - start))
            low, high = nearest, nearest + 1
        return REFERENCE_LOOP_SECONDS / median([s for _, s in self.samples[low:high]])


# --------------------------------------------------------------------------- oracle
def defined_vectors(source) -> List[Tuple[int, ...]]:
    """The argument vectors on which ``source`` terminates within the
    reference budget without reading an uninitialized variable — the
    executions the interpreter differential can judge."""
    from repro.interp.interpreter import (
        ExecutionLimitExceeded,
        Interpreter,
        UninitializedRead,
    )

    defined = []
    for args in argument_vectors(len(source.params)):
        try:
            Interpreter(source, max_steps=REFERENCE_STEPS).run(args)
        except (ExecutionLimitExceeded, UninitializedRead):
            continue
        defined.append(args)
    return defined


def output_failure(source, output_text: str, vectors) -> Optional[str]:
    """``None`` when ``output_text`` is a correct translation of ``source``,
    else the name of the first failed check.

    Checks: the output parses, carries no φ-function or parallel copy, and
    behaves like the source on every defined argument vector
    (``repro.verify.checks.check_behaviour``).
    """
    from repro.ir.parser import parse_function
    from repro.verify.checks import check_behaviour, check_no_ssa_residue

    try:
        translated = parse_function(output_text)
    except Exception as exc:  # any parser failure means a wrong output
        return f"unparsable.{type(exc).__name__}"
    residue = check_no_ssa_residue(translated)
    if residue:
        return f"residue.{residue[0].code}"
    if vectors:
        diverged = check_behaviour(source, translated, argument_vectors=vectors)
        if diverged:
            return f"behaviour.{diverged[0].code}"
    return None


#: Failure kinds that mean the program emitted wrong code (the run's
#: ``correct`` flag); every other kind is an op that raised, was refused or
#: broke a bit-identity contract.
WRONG_CODE = ("unparsable.", "residue.", "behaviour.")


# --------------------------------------------------------------------------- run record
@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    #: Seconds of the timed phase (reference seconds once scaled).
    wall: float = 0.0
    #: Reference over wall seconds, op-time-weighted over the ops.
    scale: float = 1.0
    attempted: int = 0
    #: Verified-correct ops.
    ok: int = 0
    #: Failed ops by failure kind (an exception type or a failed check).
    failures: Counter = field(default_factory=Counter)
    #: Latency (seconds) of every verified-correct op.
    latencies: List[float] = field(default_factory=list)
    #: Latencies of the correct ops of each (input, engine) pair.
    per_pair: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)

    def record(self, pair: Tuple[str, str], seconds: float, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure] += 1
            return
        self.ok += 1
        self.latencies.append(seconds)
        self.per_pair.setdefault(pair, []).append(seconds)

    def pair_medians_ms(self) -> Dict[Tuple[str, str], float]:
        return {pair: median(times) * 1e3 for pair, times in self.per_pair.items()}


def outcome_of(records, wall: float, speed: Speed, traced: Optional[bool] = None) -> Outcome:
    """The outcome of ``records`` (each with ``pair``, ``began``,
    ``seconds``, ``error`` and ``traced``) in reference seconds, optionally
    only the traced or untraced ones.  The phase's wall time is scaled by
    the ops' op-time-weighted speed factor."""
    outcome = Outcome()
    raw = scaled = 0.0
    for record in records:
        if traced is None or record.traced == traced:
            seconds = record.seconds * speed.factor(record.began, record.began + record.seconds)
            raw += record.seconds
            scaled += seconds
            outcome.record(record.pair, seconds, record.error)
    outcome.scale = scaled / raw if raw else 1.0
    outcome.wall = wall * outcome.scale
    return outcome


def latency_metrics(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """The timing metrics every workload reports, from its correct ops."""
    samples = outcome.latencies
    return {
        "compile_ms_geomean": (geomean(outcome.pair_medians_ms().values()), "ms"),
        "latency_p50_ms": (percentile(samples, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(samples, 0.90) * 1e3, "ms"),
        "latency_p99_ms": (percentile(samples, 0.99) * 1e3, "ms"),
        "ops_per_s": (outcome.ok / outcome.wall, "1/s"),
        "ok_ratio": (outcome.ok / outcome.attempted, "ratio"),
    }


class Deadline:
    """The timed phase's clock: ``done()`` once ``seconds`` have passed."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def done(self) -> bool:
        return time.perf_counter() >= self.end

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
