"""The ``jit-edit`` workload: warm re-translation after in-place edits.

Set-up cold-translates each hot stress function through one
``TranslationService`` per engine, which keeps its warm state.  Each op then
applies a seeded ``random_edit_batch`` to a hot function's warm copy (not
timed) and times ``TranslationService.retranslate`` on it.  Ops walk the
(function, engine) streams in rounds, engines back to back.

Functions grow under edits, so a run is a fixed number of ops, not a fixed
duration: otherwise a faster program would edit bigger functions.

After the timed phase every result must be bit-identical to a cold
``Pipeline`` translation of the edited text, and pass the semantic checks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from common import (
    Speed,
    defined_vectors,
    latency_metrics,
    outcome_of,
    output_failure,
    peak_rss_mib,
)

HOT_FUNCTIONS = 2
HOT_MIN_BLOCKS, HOT_MAX_BLOCKS = 900, 1100
#: 17 rounds x 2 functions x 3 engines = 102 ops, so p90 has ten beyond.
ROUNDS = 17
INCREMENTAL = "us_i_incremental"
ENGINES = (INCREMENTAL, "us_i", "us_i_linear_intercheck_livecheck")


def engine_config(name: str):
    """``us_i`` with incremental liveness and interference, or a named engine."""
    from repro.outofssa.config import EngineConfig, engine_by_name

    if name == INCREMENTAL:
        return (
            EngineConfig.builder("us_i").name(INCREMENTAL)
            .liveness("incremental").interference("incremental").build()
        )
    return engine_by_name(name)


@dataclass
class Stream:
    """One hot function under one engine: its service and current digest."""

    function: str
    engine: str
    service: object
    fingerprint: str
    digest: str


@dataclass
class State:
    streams: List[Stream]
    rng: random.Random


def setup(seed: int) -> State:
    from repro.bench.corpus import CorpusSpec, generate_stress_cfg
    from repro.ir.printer import format_function
    from repro.service.translator import TranslationService

    rng = random.Random(seed)
    texts = []
    for index in range(HOT_FUNCTIONS):
        spec = CorpusSpec(
            name=f"hot{index}",
            seed=rng.randrange(1 << 30),
            blocks=rng.randint(HOT_MIN_BLOCKS, HOT_MAX_BLOCKS),
            loop_depth=4,
            variables=10,
            irreducible=0.1,
        )
        texts.append((spec.name, format_function(generate_stress_cfg(spec))))
    streams = []
    for engine in ENGINES:
        service = TranslationService(engine_config(engine))
        for name, text in texts:
            cold = service.translate_text(text)
            streams.append(Stream(name, engine, service, cold.fingerprint, cold.digest))
    return State(streams, rng)


def close(state: State) -> None:
    state.streams.clear()


@dataclass
class Record:
    pair: Tuple[str, str]
    began: float
    seconds: float
    edited: str
    output: Optional[str]
    error: Optional[str]
    traced: bool
    #: The result's ``OutOfSSAStats`` fields.
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class Result:
    records: List[Record] = field(default_factory=list)
    wall: float = 0.0


def run(state: State, speed: Speed, tracer=None) -> Result:
    """The timed phase: :data:`ROUNDS` rounds over the streams.  With a
    ``tracer``, every other function row of a round runs traced (the parity
    flips each round)."""
    from repro.bench.corpus import random_edit_batch
    from repro.ir.printer import format_function

    result = Result()
    clock = time.perf_counter
    by_function: Dict[str, List[Stream]] = {}
    for stream in state.streams:
        by_function.setdefault(stream.function, []).append(stream)
    names = sorted(by_function)
    began_phase = clock()
    calibrated = speed.spent
    for round_index in range(ROUNDS):
        state.rng.shuffle(names)
        for row, name in enumerate(names):
            traced = tracer is not None and (row + round_index) % 2 == 1
            batch_seed = state.rng.randrange(1 << 30)
            for stream in list(by_function[name]):
                warm = stream.service.cache.warm_state(stream.digest, stream.fingerprint)
                log = random_edit_batch(warm.function, seed=batch_seed)
                edited = format_function(warm.function)
                output = error = None
                speed.sample_if_due()
                if traced:
                    tracer.install()
                    tracer.begin("op")
                began = clock()
                try:
                    translated = stream.service.retranslate(stream.digest, log)
                    output = translated.ir_text
                except Exception as exc:  # a failed op is counted, never fatal
                    error = type(exc).__name__
                elapsed = clock() - began
                if traced:
                    tracer.end()
                    tracer.uninstall()
                if error is None:
                    stream.digest = translated.digest
                result.records.append(Record(
                    (name, stream.engine), began, elapsed, edited, output, error, traced,
                    translated.stats if error is None else {},
                ))
                if error is not None:
                    # The stream's warm state is gone; it cannot continue.
                    state.streams.remove(stream)
                    by_function[name].remove(stream)
    result.wall = clock() - began_phase - (speed.spent - calibrated)
    return result


def check(result: Result) -> None:
    """Each result must match a cold translation of the edited text."""
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function
    from repro.pipeline import Pipeline

    pipelines = {engine: Pipeline.for_engine(engine_config(engine)) for engine in ENGINES}
    for record in result.records:
        if record.error is not None:
            continue
        source = parse_function(record.edited)
        failure = output_failure(source, record.output, defined_vectors(source))
        if failure is None:
            cold = parse_function(record.edited)
            pipelines[record.pair[1]].run(cold)
            if format_function(cold) != record.output:
                failure = "differs_from_cold_translation"
        record.error = failure


def _sessions(state: State):
    return {
        id(session): session
        for stream in state.streams
        for session in stream.service.sessions().values()
    }.values()


def end_to_end(state: State, seconds: float, speed: Speed):
    from repro.bench.metrics import copy_counts
    from repro.ir.parser import parse_function

    result = run(state, speed)
    rss = peak_rss_mib()
    peak = sum(session.peak_memory_bytes() for session in _sessions(state))
    check(result)
    outcome = outcome_of(result.records, result.wall, speed)
    metrics = latency_metrics(outcome)
    copies = [
        copy_counts(parse_function(record.output))
        for record in result.records if record.output is not None
    ]
    metrics["remaining_copies"] = (sum(c.static_copies for c in copies), "count")
    metrics["dynamic_copy_cost"] = (sum(c.weighted_copies for c in copies), "count")
    metrics["analysis_peak_kib"] = (peak / 1024.0, "KiB")
    metrics["peak_rss_mib"] = (rss, "MiB")
    return metrics, outcome


def per_layer(state: State, seconds: float, speed: Speed, tracer):
    from layers import blank, engine_metrics, footprint_metrics, overhead_pct, span_metrics

    result = run(state, speed, tracer)
    check(result)
    metrics = blank()
    traced = outcome_of(result.records, result.wall, speed, True)
    span_metrics(metrics, tracer, traced.attempted, traced.scale)
    # Every op's result (the fixed op sequence makes the sums repeat); the
    # service reports stats only, so the tracker-based mem.* stay 0.
    footprint_metrics(metrics, (
        SimpleNamespace(stats=SimpleNamespace(**record.stats), categories={})
        for record in result.records if record.error is None
    ))
    untraced = outcome_of(result.records, result.wall, speed, False)
    engine_metrics(metrics, untraced.pair_medians_ms())
    metrics["trace.overhead_pct"] = (overhead_pct(traced.per_pair, untraced.per_pair), "%")
    return metrics, outcome_of(result.records, result.wall, speed)
