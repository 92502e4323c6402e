"""In-process cold translations: the ``suite`` and ``big-fn`` workloads.

One op is: parse the input's text, run
``Pipeline.for_engine(engine, ...).run`` on it, print the result.  Ops walk
the (input, engine) pairs in rounds; each round visits the inputs in a
seeded order and, for each input, every engine back to back, so the engines
take turns op by op and machine drift hits each of them alike.

The outputs are checked after the timed phase (see :func:`check`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    Deadline,
    Speed,
    defined_vectors,
    latency_metrics,
    outcome_of,
    output_failure,
    peak_rss_mib,
)

#: The paper's engines, in Figure 6/7 order.
SUITE_ENGINES = (
    "sreedhar_iii",
    "us_iii",
    "us_iii_intercheck",
    "us_iii_intercheck_livecheck",
    "us_iii_linear_intercheck_livecheck",
    "us_i",
    "us_i_linear_intercheck_livecheck",
)
#: One slow baseline, the fast bit-set engine and the paper's default.
BIGFN_ENGINES = ("sreedhar_iii", "us_i", "us_i_linear_intercheck_livecheck")
#: p99 needs 1000 ops for ten samples beyond it.
SUITE_MIN_OPS = 1000
#: Stress inputs per big-fn run, one per stratum of 500-1000 blocks;
#: bigger inputs would push a run well past a minute.
BIGFN_STRESS_INPUTS = 12
BIGFN_MIN_BLOCKS, BIGFN_MAX_BLOCKS = 500, 1000
#: The deep-dominator-tree input: a straight chain this long.
BIGFN_CHAIN_BLOCKS = 1600
#: Rounds over all (input, engine) pairs: 3 x 13 x 3 = 117 ops, 108 of them
#: on the stress inputs, so p90 has ten samples beyond it.
BIGFN_ROUNDS = 3


@dataclass
class Input:
    name: str
    text: str
    #: The parsed source, for the interpreter differential (never mutated).
    source: object
    #: Argument vectors on which the source's behaviour is defined.
    vectors: List[Tuple[int, ...]]


@dataclass
class State:
    inputs: List[Input]
    engines: Tuple[str, ...]
    rng: random.Random
    construct_ssa: bool = False
    optimize: bool = False
    #: Stop rule: a fixed number of rounds, or the first round end after a
    #: deadline and a minimum op count.  Whole rounds give every pair the
    #: same op count, so the percentiles and ``ops_per_s`` weigh the pairs
    #: alike in every run; a part round would weigh a random subset more.
    rounds: Optional[int] = None
    min_ops: int = 0


def _make_input(name: str, function) -> Input:
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function

    text = format_function(function)
    source = parse_function(text)
    return Input(name, text, source, defined_vectors(source))


def setup_suite(seed: int) -> State:
    """The 65 functions of the CINT2000 stand-in suite at scale 1.0; the
    seed orders the rounds."""
    from repro.bench.suite import build_suite

    inputs = [
        _make_input(function.name, function)
        for functions in build_suite(1.0).values()
        for function in functions
    ]
    return State(inputs, SUITE_ENGINES, random.Random(seed), min_ops=SUITE_MIN_OPS)


def setup_bigfn(seed: int) -> State:
    """Stress-corpus functions of 500-1000 blocks (nested loops, a few
    irreducible regions), one per size stratum, plus a straight chain of
    :data:`BIGFN_CHAIN_BLOCKS` blocks.  The corpus is fixed, as the suite
    is: summed copy counts are heavy-tailed in the shapes a corpus seed
    draws (a copy in a depth-4 loop weighs 10^4), so drawing the corpus
    from the run's seed would make them differ run to run.  The seed orders
    the rounds."""
    from repro.bench.corpus import CorpusSpec, generate_stress_cfg

    inputs = []
    span = (BIGFN_MAX_BLOCKS - BIGFN_MIN_BLOCKS) / BIGFN_STRESS_INPUTS
    for index in range(BIGFN_STRESS_INPUTS):
        blocks = int(BIGFN_MIN_BLOCKS + span * (index + 0.5))
        spec = CorpusSpec(
            name=f"big{index}",
            seed=index,
            blocks=blocks,
            loop_depth=4,
            variables=10,
            irreducible=0.05,
        )
        inputs.append(_make_input(f"big{index}_{blocks}", generate_stress_cfg(spec)))
    chain = CorpusSpec(
        name="chain",
        blocks=BIGFN_CHAIN_BLOCKS,
        loop_probability=0.0,
        branch_probability=0.0,
    )
    inputs.append(_make_input(f"chain_{BIGFN_CHAIN_BLOCKS}", generate_stress_cfg(chain)))
    return State(
        inputs, BIGFN_ENGINES, random.Random(seed),
        construct_ssa=True, optimize=True, rounds=BIGFN_ROUNDS,
    )


@dataclass
class Record:
    pair: Tuple[str, str]
    began: float
    seconds: float
    output: Optional[str]
    error: Optional[str]
    traced: bool


@dataclass
class Result:
    records: List[Record] = field(default_factory=list)
    wall: float = 0.0
    #: The first result of each pair (deterministic, so any op would do).
    first: Dict[Tuple[str, str], "Footprint"] = field(default_factory=dict)


@dataclass
class Footprint:
    """What the per-pair count and memory metrics read from one result."""

    stats: object
    #: Allocation-tracker bytes by category: {"name": {"total", "peak"}}.
    categories: Dict[str, Dict[str, int]]
    peak_bytes: int

    @classmethod
    def of(cls, translation) -> "Footprint":
        return cls(
            translation.stats,
            translation.tracker.by_category(),
            translation.memory_peak_bytes,
        )


def run(state: State, seconds: float, speed: Speed, tracer=None) -> Result:
    """The timed phase.  With a ``tracer``, every other input row of a round
    runs traced (the parity flips each round), so traced and untraced ops
    cover the same pairs.  ``result.wall`` excludes the calibration samples
    taken between ops."""
    import repro.ir.parser as parser
    import repro.ir.printer as printer
    from repro.pipeline import Pipeline

    result = Result()
    clock = time.perf_counter
    deadline = Deadline(seconds)
    calibrated = speed.spent
    round_index = 0
    ops = 0
    while True:
        order = list(state.inputs)
        state.rng.shuffle(order)
        for row, item in enumerate(order):
            traced = tracer is not None and (row + round_index) % 2 == 1
            if traced:
                tracer.install()
            for engine in state.engines:
                error = output = None
                speed.sample_if_due()
                if traced:
                    tracer.begin("op")
                began = clock()
                try:
                    function = parser.parse_function(item.text)
                    translation = Pipeline.for_engine(
                        engine, construct_ssa=state.construct_ssa, optimize=state.optimize
                    ).run(function)
                    output = printer.format_function(function)
                except Exception as exc:  # a failed op is counted, never fatal
                    error = type(exc).__name__
                elapsed = clock() - began
                if traced:
                    tracer.end()
                pair = (item.name, engine)
                result.records.append(Record(pair, began, elapsed, output, error, traced))
                if error is None and pair not in result.first:
                    result.first[pair] = Footprint.of(translation)
                ops += 1
            if traced:
                tracer.uninstall()
        round_index += 1
        if state.rounds is None:
            finished = deadline.done() and ops >= state.min_ops
        else:
            finished = round_index >= state.rounds
        if finished:
            result.wall = deadline.elapsed() - (speed.spent - calibrated)
            return result


def check(state: State, result: Result) -> Dict[Tuple[str, str], object]:
    """Verify every op's output; return the parsed correct output of each
    pair.  Each distinct output is checked once; every op of a pair must
    print the same text as the pair's first op."""
    from repro.ir.parser import parse_function

    by_name = {item.name: item for item in state.inputs}
    verdicts: Dict[Tuple[Tuple[str, str], str], Optional[str]] = {}
    first_text: Dict[Tuple[str, str], str] = {}
    outputs: Dict[Tuple[str, str], object] = {}
    for record in result.records:
        if record.error is not None:
            continue
        key = (record.pair, record.output)
        if key not in verdicts:
            item = by_name[record.pair[0]]
            verdict = output_failure(item.source, record.output, item.vectors)
            expected = first_text.setdefault(record.pair, record.output)
            if verdict is None and record.output != expected:
                verdict = "nondeterministic_output"
            verdicts[key] = verdict
            if verdict is None and record.pair not in outputs:
                outputs[record.pair] = parse_function(record.output)
        record.error = verdicts[key]
    return outputs


def end_to_end(state: State, seconds: float, speed: Speed):
    from repro.bench.metrics import copy_counts

    result = run(state, seconds, speed)
    rss = peak_rss_mib()
    outputs = check(state, result)
    outcome = outcome_of(result.records, result.wall, speed)
    metrics = latency_metrics(outcome)
    copies = [copy_counts(function) for function in outputs.values()]
    metrics["remaining_copies"] = (sum(c.static_copies for c in copies), "count")
    metrics["dynamic_copy_cost"] = (sum(c.weighted_copies for c in copies), "count")
    metrics["analysis_peak_kib"] = (
        sum(result.first[pair].peak_bytes for pair in outputs) / 1024.0, "KiB"
    )
    metrics["peak_rss_mib"] = (rss, "MiB")
    return metrics, outcome


def per_layer(state: State, seconds: float, speed: Speed, tracer):
    from layers import blank, engine_metrics, footprint_metrics, overhead_pct, span_metrics

    result = run(state, seconds, speed, tracer)
    outputs = check(state, result)
    metrics = blank()
    traced = outcome_of(result.records, result.wall, speed, True)
    untraced = outcome_of(result.records, result.wall, speed, False)
    span_metrics(metrics, tracer, traced.attempted, traced.scale)
    footprint_metrics(metrics, (result.first[pair] for pair in outputs))
    engine_metrics(
        metrics,
        untraced.pair_medians_ms(),
        {pair: result.first[pair].peak_bytes for pair in outputs},
    )
    metrics["trace.overhead_pct"] = (overhead_pct(traced.per_pair, untraced.per_pair), "%")
    return metrics, outcome_of(result.records, result.wall, speed)


def close(state: State) -> None:
    state.inputs.clear()
