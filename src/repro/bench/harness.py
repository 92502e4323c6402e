"""Experiment harness regenerating the paper's Figures 5, 6 and 7.

Each ``run_figureN`` function takes the synthetic suite (``{benchmark name:
[SSA functions]}``), runs the relevant engines/variants on *copies* of every
function, and returns one row per benchmark (plus a ``sum`` row, as in the
paper's plots).  The rows carry both raw values and the normalised ratios the
paper plots (Figure 5 normalises to the ``Intersect`` strategy, Figures 6 and
7 to the ``Sreedhar III`` engine).

Every experiment batches through one :class:`~repro.pipeline.Session` per
engine, so suite-level state (the resolved pipeline and its pass objects) is
built once and each function still gets its own allocation tracker.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bench.memory import MemoryFootprint, footprint_of
from repro.bench.metrics import CopyCounts, copy_counts
from repro.coalescing.variants import VARIANTS, CoalescingVariant
from repro.ir.function import Function
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig
from repro.pipeline import Session
from repro.pipeline.pipeline import EngineLike


def _figure5_engine(variant: CoalescingVariant) -> EngineConfig:
    """Engine used to compare the Figure 5 coalescing strategies: no
    interference graph, liveness checking, quadratic class checks (valid for
    every interference notion)."""
    return (
        EngineConfig.builder()
        .name(f"figure5_{variant.name}")
        .label(variant.label)
        .coalescing(variant.name)
        .liveness("check")
        .interference("query")
        .linear_class_check(False)
        .build()
    )


@dataclass
class Figure5Row:
    """Remaining copies per coalescing strategy for one benchmark."""

    benchmark: str
    static_copies: Dict[str, int] = field(default_factory=dict)
    weighted_copies: Dict[str, float] = field(default_factory=dict)
    ratios: Dict[str, float] = field(default_factory=dict)

    def compute_ratios(self, baseline: str = "intersect") -> None:
        base = self.static_copies.get(baseline, 0)
        for name, value in self.static_copies.items():
            self.ratios[name] = (value / base) if base else 1.0


def run_figure5(
    suite: Dict[str, List[Function]],
    variants: Sequence[CoalescingVariant] = tuple(VARIANTS),
) -> List[Figure5Row]:
    """Remaining static copies per benchmark and coalescing strategy."""
    rows: List[Figure5Row] = []
    totals: Dict[str, CopyCounts] = {variant.name: CopyCounts() for variant in variants}

    sessions = {variant.name: Session(_figure5_engine(variant)) for variant in variants}
    for benchmark, functions in suite.items():
        row = Figure5Row(benchmark=benchmark)
        for variant in variants:
            copies = [function.copy() for function in functions]
            sessions[variant.name].translate_many(copies)
            counts = CopyCounts()
            for copy in copies:
                counts = counts + copy_counts(copy)
            row.static_copies[variant.name] = counts.static_copies
            row.weighted_copies[variant.name] = counts.weighted_copies
            totals[variant.name] = totals[variant.name] + counts
        row.compute_ratios()
        rows.append(row)

    sum_row = Figure5Row(benchmark="sum")
    for name, counts in totals.items():
        sum_row.static_copies[name] = counts.static_copies
        sum_row.weighted_copies[name] = counts.weighted_copies
    sum_row.compute_ratios()
    rows.append(sum_row)
    return rows


# --------------------------------------------------------------------------- Figure 6
@dataclass
class Figure6Row:
    """Out-of-SSA translation time per engine for one benchmark.

    Besides the timed seconds the row carries the per-backend query counters
    (live-range intersection queries and pairwise class-check queries) —
    deterministic per engine, so they read as the *why* behind the timing
    bars: the query backends trade matrix memory for pairwise queries, the
    matrix backends trade queries for the build scan.
    """

    benchmark: str
    seconds: Dict[str, float] = field(default_factory=dict)
    ratios: Dict[str, float] = field(default_factory=dict)
    intersection_queries: Dict[str, int] = field(default_factory=dict)
    pair_queries: Dict[str, int] = field(default_factory=dict)

    def compute_ratios(self, baseline: str = "sreedhar_iii") -> None:
        base = self.seconds.get(baseline, 0.0)
        for name, value in self.seconds.items():
            self.ratios[name] = (value / base) if base else 1.0


def run_figure6(
    suite: Dict[str, List[Function]],
    engines: Sequence[EngineConfig] = tuple(ENGINE_CONFIGURATIONS),
    repeats: int = 1,
) -> List[Figure6Row]:
    """Time to go out of SSA, per benchmark and engine configuration."""
    rows: List[Figure6Row] = []
    totals: Dict[str, float] = {engine.name: 0.0 for engine in engines}
    total_intersections: Dict[str, int] = {engine.name: 0 for engine in engines}
    total_pairs: Dict[str, int] = {engine.name: 0 for engine in engines}

    sessions = {engine.name: Session(engine) for engine in engines}
    for benchmark, functions in suite.items():
        row = Figure6Row(benchmark=benchmark)
        for engine in engines:
            session = sessions[engine.name]
            best = None
            for _ in range(max(1, repeats)):
                results = session.translate_many(function.copy() for function in functions)
                elapsed = sum(result.stats.elapsed_seconds for result in results)
                best = elapsed if best is None else min(best, elapsed)
                # Deterministic per engine: any repeat reports the same counts.
                row.intersection_queries[engine.name] = sum(
                    result.stats.intersection_queries for result in results
                )
                row.pair_queries[engine.name] = sum(
                    result.stats.pair_queries for result in results
                )
            row.seconds[engine.name] = best or 0.0
            totals[engine.name] += best or 0.0
            total_intersections[engine.name] += row.intersection_queries[engine.name]
            total_pairs[engine.name] += row.pair_queries[engine.name]
        row.compute_ratios()
        rows.append(row)

    sum_row = Figure6Row(
        benchmark="sum",
        seconds=dict(totals),
        intersection_queries=dict(total_intersections),
        pair_queries=dict(total_pairs),
    )
    sum_row.compute_ratios()
    rows.append(sum_row)
    return rows


# --------------------------------------------------------------------------- Figure 7
@dataclass
class Figure7Row:
    """Memory footprint per engine (suite-wide, as in the paper's bars)."""

    metric: str                                   #: "maximum" or "total"
    measured: Dict[str, int] = field(default_factory=dict)
    evaluated_ordered: Dict[str, int] = field(default_factory=dict)
    evaluated_bitset: Dict[str, int] = field(default_factory=dict)
    #: Measured bytes of the interference bit-matrix alone (0 for the query
    #: backend) — read next to the ``ceil(n/8) * n/2`` evaluated formula.
    measured_matrix: Dict[str, int] = field(default_factory=dict)
    #: Measured bytes of the flat arena tables (``OutOfSSAStats.flat_bytes``;
    #: 0 when no arena consumer ran) — the price of the arena sweeps.
    measured_flat: Dict[str, int] = field(default_factory=dict)
    ratios: Dict[str, float] = field(default_factory=dict)

    def compute_ratios(self, baseline: str = "sreedhar_iii") -> None:
        base = self.measured.get(baseline, 0)
        for name, value in self.measured.items():
            self.ratios[name] = (value / base) if base else 1.0


def run_figure7(
    suite: Dict[str, List[Function]],
    engines: Sequence[EngineConfig] = tuple(ENGINE_CONFIGURATIONS),
) -> List[Figure7Row]:
    """Memory footprint (maximum and total) per engine configuration."""
    maxima: Dict[str, int] = {engine.name: 0 for engine in engines}
    totals: Dict[str, MemoryFootprint] = {engine.name: MemoryFootprint() for engine in engines}
    matrix_totals: Dict[str, int] = {engine.name: 0 for engine in engines}
    flat_totals: Dict[str, int] = {engine.name: 0 for engine in engines}
    sessions = {engine.name: Session(engine) for engine in engines}

    for functions in suite.values():
        for function in functions:
            for engine in engines:
                result = sessions[engine.name].translate(function.copy())
                footprint = footprint_of(result)
                totals[engine.name] = totals[engine.name] + footprint
                maxima[engine.name] = max(maxima[engine.name], footprint.measured_peak)
                matrix_totals[engine.name] += result.stats.matrix_bytes
                flat_totals[engine.name] += result.stats.flat_bytes

    # The evaluated closed forms are accumulated suite-wide, so they are only
    # meaningful next to the "total" metric; the maximum row carries none
    # (printing suite totals under "maximum" would misread as a ~20x formula
    # error when comparing against the measured peak).
    maximum_row = Figure7Row(metric="maximum", measured=dict(maxima))
    maximum_row.compute_ratios()

    total_row = Figure7Row(
        metric="total",
        measured={name: fp.measured_total for name, fp in totals.items()},
        evaluated_ordered={name: fp.evaluated_ordered_sets for name, fp in totals.items()},
        evaluated_bitset={name: fp.evaluated_bit_sets for name, fp in totals.items()},
        measured_matrix=dict(matrix_totals),
        measured_flat=dict(flat_totals),
    )
    total_row.compute_ratios()
    return [maximum_row, total_row]


# --------------------------------------------------------------------------- headline
@dataclass
class HeadlineSummary:
    """The paper's headline claims: ~2× faster, ~10× less memory."""

    speedup_vs_sreedhar: float
    memory_reduction_vs_sreedhar: float
    copies_ratio_vs_sreedhar: float


def headline_summary(
    suite: Dict[str, List[Function]],
    fast_engine: str = "us_i_linear_intercheck_livecheck",
    baseline_engine: str = "sreedhar_iii",
) -> HeadlineSummary:
    """Aggregate speed / memory / quality of the paper's engine vs Sreedhar III."""
    engines = [
        engine for engine in ENGINE_CONFIGURATIONS if engine.name in (fast_engine, baseline_engine)
    ]
    # min-of-3 timing keeps the headline ratio stable against machine noise.
    time_rows = run_figure6(suite, engines, repeats=3)
    memory_rows = run_figure7(suite, engines)
    figure5 = run_figure5(suite)

    sum_time = next(row for row in time_rows if row.benchmark == "sum")
    total_memory = next(row for row in memory_rows if row.metric == "total")
    sum_quality = next(row for row in figure5 if row.benchmark == "sum")

    speedup = (
        sum_time.seconds[baseline_engine] / sum_time.seconds[fast_engine]
        if sum_time.seconds.get(fast_engine) else 0.0
    )
    memory_reduction = (
        total_memory.measured[baseline_engine] / total_memory.measured[fast_engine]
        if total_memory.measured.get(fast_engine) else 0.0
    )
    copies_ratio = (
        sum_quality.static_copies.get("value", 0)
        / sum_quality.static_copies.get("sreedhar_iii", 1)
        if sum_quality.static_copies.get("sreedhar_iii") else 1.0
    )
    return HeadlineSummary(
        speedup_vs_sreedhar=speedup,
        memory_reduction_vs_sreedhar=memory_reduction,
        copies_ratio_vs_sreedhar=copies_ratio,
    )


# --------------------------------------------------------------------------- service concurrency
@dataclass
class ServiceConcurrencyRow:
    """One serving mode of the concurrent-clients experiment."""

    mode: str
    clients: int = 0
    requests: int = 0
    hits: int = 0
    overloaded: int = 0
    seconds: float = 0.0
    #: Daemon-side translate latency percentiles observed during the run.
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    #: High-water admission queue depth the daemon recorded.
    queue_peak: float = 0.0
    #: vs the single blocking sequential client (1.0 for that row itself).
    speedup_vs_blocking: float = 1.0

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


def run_service_concurrency() -> List[ServiceConcurrencyRow]:
    """Blocking sequential serving vs 32 pipelined concurrent clients.

    One live asyncio daemon (engine ``us_i``, 4 shards) serves the same warm
    repeat-heavy traffic, drawn from 4 stress functions of 600 blocks, two
    ways: a single blocking client issuing ``clients × requests_per_client``
    requests one at a time (the old thread-per-connection profile — each
    request pays a full round trip before the next starts), then ``clients``
    concurrent connections each pipelining ``requests_per_client`` requests
    with no per-request thread anywhere.  Every response in both phases is
    checked bit-identical to the cold pipeline reference; the pipelined row
    carries the daemon's own latency percentiles and admission-queue
    high-water mark from its ``metrics`` verb.

    The daemon runs as a *subprocess* (``python -m repro serve``), exactly
    like a deployment: in-process serving would put the clients and the
    daemon under one GIL, where pipelining can only add contention —
    cross-process, client-side serialization genuinely overlaps
    server-side serving, which is the effect this experiment measures.
    """
    import asyncio
    import os
    import subprocess
    import sys

    import repro
    from repro.bench.corpus import CorpusSpec, generate_stress_cfg
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function
    from repro.pipeline.pipeline import Pipeline
    from repro.service.client import AsyncServiceClient, ServiceClient

    clients, requests_per_client, functions, engine = 32, 12, 4, "us_i"
    pool: List[str] = []
    references: Dict[str, str] = {}
    for index in range(functions):
        spec = CorpusSpec(
            name="async_serve",
            seed=index,
            blocks=600,
            loop_depth=3,
            variables=8,
        )
        text = format_function(generate_stress_cfg(spec))
        pool.append(text)
        function = parse_function(text)
        Pipeline.for_engine(engine).run(function)
        references[text] = format_function(function)

    total = clients * requests_per_client
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "serve",
        "--engine", engine, "--shards", "4",
        "--max-pending", str(total),
    ]
    daemon = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = 0
    assert daemon.stdout is not None
    for line in daemon.stdout:
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1].split()[0])
            break
    if not port:
        daemon.wait(timeout=15)
        raise RuntimeError("repro serve subprocess exited before binding a port")
    rows: List[ServiceConcurrencyRow] = []
    try:
        # Prewarm: both timed phases measure warm serving, not translation.
        with ServiceClient(port=port) as warmup:
            for text in pool:
                if warmup.translate(text)["ir"] != references[text]:
                    raise AssertionError("warmup response diverged from cold pipeline")

        with ServiceClient(port=port) as blocking:
            hits = 0
            began = time.perf_counter()
            for index in range(total):
                response = blocking.translate(pool[index % len(pool)])
                hits += 1 if response["cached"] else 0
            blocking_seconds = time.perf_counter() - began
        rows.append(
            ServiceConcurrencyRow(
                mode="blocking[1]", clients=1, requests=total, hits=hits,
                seconds=blocking_seconds,
            )
        )

        async def run_client(client_index: int) -> List[Dict[str, object]]:
            client = AsyncServiceClient(port)
            await client.connect()
            try:
                return await client.pipeline([
                    {"verb": "translate",
                     "ir": pool[(client_index + offset) % len(pool)]}
                    for offset in range(requests_per_client)
                ])
            finally:
                await client.close()

        async def run_fleet() -> List[List[Dict[str, object]]]:
            return await asyncio.gather(
                *(run_client(index) for index in range(clients))
            )

        began = time.perf_counter()
        fleet_responses = asyncio.run(run_fleet())
        pipelined_seconds = time.perf_counter() - began

        hits = overloaded = 0
        for client_index, responses in enumerate(fleet_responses):
            for offset, response in enumerate(responses):
                if response.get("overloaded"):
                    overloaded += 1
                    continue
                text = pool[(client_index + offset) % len(pool)]
                if not response.get("ok") or response["ir"] != references[text]:
                    raise AssertionError(
                        f"pipelined client {client_index} request {offset} "
                        f"diverged from the cold reference"
                    )
                hits += 1 if response["cached"] else 0

        with ServiceClient(port=port) as probe:
            metrics = probe.metrics()
        latency = metrics["metrics"]["latency"].get("latency_translate", {})
        gauges = metrics["metrics"]["gauges"]
        rows.append(
            ServiceConcurrencyRow(
                mode=f"pipelined[{clients}]",
                clients=clients, requests=total, hits=hits,
                overloaded=overloaded, seconds=pipelined_seconds,
                p50_ms=float(latency.get("p50_ms", 0.0)),
                p95_ms=float(latency.get("p95_ms", 0.0)),
                p99_ms=float(latency.get("p99_ms", 0.0)),
                queue_peak=float(gauges.get("queue_depth_peak", 0.0)),
                speedup_vs_blocking=(
                    blocking_seconds / pipelined_seconds if pipelined_seconds else 0.0
                ),
            )
        )
    finally:
        try:
            with ServiceClient(port=port) as closer:
                closer.shutdown()
            daemon.wait(timeout=15)
        except Exception:
            daemon.kill()
            daemon.wait(timeout=15)
        finally:
            daemon.stdout.close()
    return rows


# --------------------------------------------------------------------------- verify stress
@dataclass
class VerifyStressRow:
    """Checked vs unchecked translation of one stress corpus spec."""

    blocks: int = 0
    variables: int = 0
    level: str = "fast"
    unchecked_seconds: float = 0.0
    checked_seconds: float = 0.0
    #: Median over repeats of checked over unchecked wall-clock, each repeat
    #: timing the two back to back (1.0 means the checks are free).
    overhead: float = 0.0
    verify_ms: float = 0.0
    diagnostics: int = 0
    errors: int = 0
    warnings: int = 0


def run_verify_stress(
    specs,
    level: str = "fast",
    engine: EngineLike = "us_i_linear_intercheck_livecheck",
    repeats: int = 1,
) -> List["VerifyStressRow"]:
    """Translate every corpus spec with the invariant checkers on and off.

    Each repeat regenerates the spec's function twice, before either timed
    region (translation mutates the function, so checked and unchecked runs
    each get a fresh copy), and times a plain translation against one at
    ``verify_level=level`` back to back, alternating which runs first.  The
    row carries best-of-repeats wall-clocks, the median per-repeat overhead
    (machine speed drifts between repeats far more than within one), the
    checker time the stats recorded, and the diagnostic counts — zero
    diagnostics on the clean corpus is the lane's pass condition.
    """
    from dataclasses import replace as dc_replace
    from statistics import median

    from repro.bench.corpus import generate_stress_cfg
    from repro.pipeline.pipeline import Pipeline, resolve_engine

    config = resolve_engine(engine)
    unchecked_pipeline = Pipeline.for_engine(dc_replace(config, verify_level="off"))
    checked_pipeline = Pipeline.for_engine(dc_replace(config, verify_level=level))

    rows: List[VerifyStressRow] = []
    for spec in specs:
        row = VerifyStressRow(level=level)
        best_plain = best_checked = None
        overheads: List[float] = []
        for repeat in range(max(1, repeats)):
            runs = [
                (unchecked_pipeline, generate_stress_cfg(spec)),
                (checked_pipeline, generate_stress_cfg(spec)),
            ]
            row.blocks = len(runs[0][1].blocks)
            row.variables = len(runs[0][1].variables())
            if repeat % 2:
                runs.reverse()
            timed = {}
            for pipeline, function in runs:
                # Collect first, so neither run pays for a collection the
                # other's allocations triggered.
                gc.collect()
                began = time.perf_counter()
                result = pipeline.run(function)
                timed[pipeline] = (time.perf_counter() - began, result)
            plain_seconds, _ = timed[unchecked_pipeline]
            checked_seconds, result = timed[checked_pipeline]
            overheads.append(checked_seconds / plain_seconds)

            if best_plain is None or plain_seconds < best_plain:
                best_plain = plain_seconds
            if best_checked is None or checked_seconds < best_checked:
                best_checked = checked_seconds
                row.verify_ms = result.stats.verify_ms
                row.diagnostics = result.stats.verify_diagnostics
                row.errors = result.stats.verify_errors
                row.warnings = result.stats.verify_warnings
        row.unchecked_seconds = best_plain or 0.0
        row.checked_seconds = best_checked or 0.0
        row.overhead = median(overheads)
        rows.append(row)
    return rows
