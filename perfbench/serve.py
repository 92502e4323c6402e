"""The ``serve`` workload: the ``repro serve`` daemon under a closed loop.

Set-up boots the daemon with its default flags except ``--capacity``, and
prefills it with the hot pool, one ``translate`` request at a time.  The
timed phase keeps :data:`IN_FLIGHT` request in flight on one connection
(``AsyncServiceClient``).  Every :data:`NEW_EVERY`-th request is a
never-seen function: a cold-pool function under a fresh name, so its digest
is new and it always misses.  These walk the cold pool in a seeded order,
reshuffled on each pass, so every cold-pool function is drawn equally often.
The other requests are Zipf draws over the hot pool.  The cache holds fewer
entries than the run's distinct functions, so hits run beside cold inserts
and LRU evictions.

Every response must be bit-identical to an in-process cold ``Pipeline``
translation of the request, and that translation must pass the semantic
checks; both are done after the timed phase.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    Deadline,
    Speed,
    defined_vectors,
    geomean,
    latency_metrics,
    median,
    outcome_of,
    output_failure,
    peak_rss_mib,
    percentile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The daemon's default engine (``repro serve --engine``).
ENGINE = "us_i"
HOT_POOL = 96
COLD_POOL = 32
#: ``--capacity`` is per shard; the daemon's default two shards hold 512.
#: The hot pool stays cached: LRU evicts never-seen entries, once about
#: 3300 requests have filled the cache.  A smaller cache also evicts rarely
#: drawn hot functions, as the stream falls, and the miss count would move
#: p90 and ``ops_per_s`` from seed to seed.
CAPACITY = 256
#: Every this-many-th request carries a never-seen function, so 12.5% of
#: requests miss: p99 and p90 lie inside the misses and p50 inside the hits.
#: A fixed share: a random one would move the miss count and the cold-pool
#: mix from seed to seed.
NEW_EVERY = 8
ZIPF_EXPONENT = 1.1
POOL_SEED = 2009
#: One request at a time.  With two, a hit that arrives while the other
#: slot's miss holds the daemon's interpreter lock on a worker thread waits
#: up to its 5 ms switch interval, and p50 measures thread scheduling.
IN_FLIGHT = 1
#: Seconds of the stream run before the timed phase.
WARMUP = 2.0
#: Seconds between calibration samples in the timed phase.
SEGMENT = 0.1
#: p99 needs 1000 requests for ten samples beyond it.
MIN_OPS = 1000
BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


@dataclass
class State:
    hot: List[str]
    cold: List[Tuple[str, str]]          #: (function name, text)
    cumulative: List[float]              #: Zipf cumulative weights over ``hot``
    rng: random.Random
    daemon: subprocess.Popen
    port: int
    #: The current pass over the cold pool, in the order it is drawn.
    order: List[int] = field(default_factory=list)


def _pool(rng: random.Random, count: int, prefix: str) -> List[Tuple[str, str]]:
    from repro.bench.generator import GeneratorConfig, generate_ssa_program
    from repro.ir.printer import format_function

    functions = []
    for index in range(count):
        config = GeneratorConfig(
            seed=rng.randrange(1 << 30),
            name=f"{prefix}{index}",
            size=rng.randint(16, 64),
            num_locals=rng.randint(4, 8),
        )
        functions.append((config.name, format_function(generate_ssa_program(config))))
    return functions


def _pin() -> None:
    """Bind this process, and so the daemon it boots, to one CPU.

    A request is a ping-pong between the two processes.  Left to the
    scheduler, they may share a CPU or use two, and move between them, which
    moves the hit latency from run to run.  With one request in flight only
    one of them runs at a time, so one CPU is enough, and the calibration
    loop times the CPU that serves."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _boot() -> Tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--capacity", str(CAPACITY)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    for line in daemon.stdout:
        match = BANNER.search(line)
        if match:
            return daemon, int(match.group(2))
    daemon.wait(timeout=10)
    raise RuntimeError(f"repro serve exited with {daemon.returncode} before listening")


def inputs(seed: int) -> Tuple[List[str], List[Tuple[str, str]], random.Random]:
    """The hot pool's texts, the cold pool, and the request stream's rng.

    The pools are fixed: which functions are hot sets the hit and miss
    latencies and the summed copy counts, and a seeded draw of them would
    make those differ run to run.  The seed draws the request stream."""
    pools = random.Random(POOL_SEED)
    hot = [text for _, text in _pool(pools, HOT_POOL, "hot")]
    return hot, _pool(pools, COLD_POOL, "new"), random.Random(seed)


def setup(seed: int) -> State:
    from repro.service.client import AsyncServiceClient

    hot, cold, rng = inputs(seed)
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(HOT_POOL)
    ))
    _pin()
    daemon, port = _boot()
    state = State(hot, cold, cumulative, rng, daemon, port)

    async def prefill() -> None:
        async with AsyncServiceClient(port) as client:
            # One ``translate`` at a time, as in the timed phase.  A
            # ``translate_batch`` answers no sooner than ~40 ms, even for one
            # cached item.
            for text in hot:
                await client.request("translate", ir=text)

    try:
        asyncio.run(prefill())
    except BaseException:
        close(state)
        raise
    return state


def close(state: State) -> None:
    """Stop the daemon and wait for it (a shutdown verb first, then kill)."""
    from repro.service.client import AsyncServiceClient

    async def shutdown() -> None:
        async with AsyncServiceClient(state.port) as client:
            await client.shutdown()

    if state.daemon.poll() is None:
        try:
            asyncio.run(asyncio.wait_for(shutdown(), timeout=10))
            state.daemon.wait(timeout=30)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            state.daemon.kill()
            state.daemon.wait()
    state.daemon.stdout.close()


@dataclass
class Request:
    key: str                 #: "hot<i>" or "new<j>": the function it carries
    text: str
    #: For a never-seen request: the fresh function name it carries.
    alias: Optional[str] = None
    began: float = 0.0
    seconds: float = 0.0
    response: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    traced: bool = False

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.key, ENGINE)


@dataclass
class Result:
    requests: List[Request] = field(default_factory=list)
    wall: float = 0.0
    before: Dict[str, object] = field(default_factory=dict)
    after: Dict[str, object] = field(default_factory=dict)
    rss_mib: float = 0.0


def _renamed(text: str, name: str, alias: str) -> str:
    return text.replace(f"function {name}(", f"function {alias}(", 1)


def _next_request(state: State, serial: int) -> Request:
    rng = state.rng
    if serial % NEW_EVERY == NEW_EVERY - 1:
        position = serial // NEW_EVERY % COLD_POOL
        if position == 0:
            state.order = rng.sample(range(COLD_POOL), COLD_POOL)
        index = state.order[position]
        name, text = state.cold[index]
        # A fresh name: a new digest, so the daemon has never seen it.
        alias = f"{name}_{serial}"
        return Request(f"new{index}", _renamed(text, name, alias), alias)
    index = bisect.bisect_left(state.cumulative, rng.random() * state.cumulative[-1])
    return Request(f"hot{index}", state.hot[index])


def run(state: State, seconds: float, speed: Speed, tracer=None) -> Result:
    """The timed phase, after :data:`WARMUP` seconds of the stream, in
    segments of :data:`SEGMENT` seconds.  Between
    segments the in-flight requests drain and a calibration sample is taken
    in this process, outside any request.  With a ``tracer``, every other
    request is recorded as a ``service.request`` span around the client
    call.  The workers interleave, so the spans are recorded whole rather
    than opened and closed; the daemon runs in its own process and its
    spans are not recorded."""
    from repro.service.client import AsyncServiceClient

    result = Result()
    clock = time.perf_counter
    serial = 0

    async def worker(client, segment_end: float, timed: bool = True) -> None:
        nonlocal serial
        while clock() < segment_end:
            request = _next_request(state, serial)
            request.traced = timed and tracer is not None and serial % 2 == 1
            serial += 1
            request.began = clock()
            try:
                request.response = await client.request("translate", ir=request.text)
            except Exception as exc:  # a failed request is counted, never fatal
                request.error = type(exc).__name__
            ended = clock()
            request.seconds = ended - request.began
            if request.traced:
                tracer.record("service.request", request.began, ended)
            if timed:
                result.requests.append(request)

    async def main() -> None:
        async with AsyncServiceClient(state.port) as client:
            # The same stream, untimed and unchecked: the hit path has not
            # run yet, since the prefill only missed.
            await worker(client, clock() + WARMUP, timed=False)
            result.before = await client.metrics()
            deadline = Deadline(seconds)
            calibrated = speed.spent
            while not (deadline.done() and len(result.requests) >= MIN_OPS):
                speed.sample()
                segment_end = clock() + SEGMENT
                await asyncio.gather(*(worker(client, segment_end) for _ in range(IN_FLIGHT)))
            result.wall = deadline.elapsed() - (speed.spent - calibrated)
            result.after = await client.metrics()
        result.rss_mib = peak_rss_mib(state.daemon.pid)

    # The client is the load generator, not the program under test: its
    # collector's pauses over the growing list of responses would land in
    # the daemon's latency tail.
    enabled = gc.isenabled()
    gc.disable()
    try:
        asyncio.run(main())
    finally:
        if enabled:
            gc.enable()
    return result


@dataclass
class Expected:
    """The in-process cold translation a response must match."""

    output: str
    failure: Optional[str]
    peak_bytes: int


def check(state: State, result: Result) -> Dict[str, Expected]:
    """Verify every response; return the expected translation of each hot
    text."""
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function
    from repro.pipeline import Pipeline

    expected: Dict[str, Expected] = {}

    def cold(text: str) -> Expected:
        if text not in expected:
            function = parse_function(text)
            translation = Pipeline.for_engine(ENGINE).run(function)
            output = format_function(function)
            source = parse_function(text)
            failure = output_failure(source, output, defined_vectors(source))
            expected[text] = Expected(output, failure, translation.memory_peak_bytes)
        return expected[text]

    def expected_output(request: Request) -> Tuple[Expected, Optional[str]]:
        """The reference for one request.  A never-seen request is its
        cold-pool base under another name: the base's translation with the
        name replaced.  The first variant of each base is also translated
        directly, which checks that renaming commutes with translation."""
        if request.alias is None:
            reference = cold(request.text)
            return reference, reference.output
        name, base = state.cold[int(request.key[3:])]
        reference = cold(base)
        output = _renamed(reference.output, name, request.alias)
        if base not in renaming_commutes:
            renaming_commutes[base] = cold(request.text).output == output
        return reference, output if renaming_commutes[base] else None

    renaming_commutes: Dict[str, bool] = {}
    for request in result.requests:
        if request.error is not None:
            continue
        response = request.response
        if not response.get("ok"):
            request.error = "overloaded" if response.get("overloaded") else "error"
            continue
        reference, output = expected_output(request)
        if reference.failure is not None:
            request.error = reference.failure
        elif output is None:
            request.error = "renaming_changes_translation"
        elif response.get("ir") != output:
            request.error = "differs_from_cold_pipeline"
    return {text: cold(text) for text in state.hot}


def end_to_end(state: State, seconds: float, speed: Speed):
    from repro.bench.metrics import copy_counts
    from repro.ir.parser import parse_function

    result = run(state, seconds, speed)
    hot = check(state, result).values()
    outcome = outcome_of(result.requests, result.wall, speed)
    metrics = latency_metrics(outcome)
    # Over the never-seen pairs only: each of their requests compiles, and
    # the 32 cold-pool functions are drawn equally often in every run.  A
    # hot pair's requests are hits.
    metrics["compile_ms_geomean"] = (geomean(
        median(times) * 1e3 for (key, _), times in outcome.per_pair.items()
        if key.startswith("new")
    ), "ms")
    copies = [copy_counts(parse_function(reference.output)) for reference in hot]
    metrics["remaining_copies"] = (sum(c.static_copies for c in copies), "count")
    metrics["dynamic_copy_cost"] = (sum(c.weighted_copies for c in copies), "count")
    metrics["analysis_peak_kib"] = (sum(r.peak_bytes for r in hot) / 1024.0, "KiB")
    metrics["peak_rss_mib"] = (result.rss_mib, "MiB")
    return metrics, outcome


def per_layer(state: State, seconds: float, speed: Speed, tracer):
    from layers import blank, overhead_pct

    result = run(state, seconds, speed, tracer)
    check(state, result)
    metrics = blank()
    served = [r for r in result.requests if r.error is None]
    hits = [r.seconds for r in served if r.response.get("cached")]
    misses = [r.seconds for r in served if not r.response.get("cached")]
    before, after = result.before["metrics"], result.after["metrics"]

    def counted(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    translate = after["latency"].get("latency_translate", {})
    client_p50 = percentile([r.seconds for r in served], 0.5) * 1e3
    metrics["service.hit_ratio"] = (len(hits) / len(served), "ratio")
    metrics["service.hit_latency_p50_ms"] = (percentile(hits, 0.5) * 1e3, "ms")
    metrics["service.miss_latency_p50_ms"] = (percentile(misses, 0.5) * 1e3, "ms")
    metrics["service.wait_p50_ms"] = (client_p50 - translate.get("p50_ms", 0.0), "ms")
    metrics["service.queue_depth_peak"] = (after["gauges"].get("queue_depth_peak", 0), "count")
    metrics["service.overloaded_total"] = (counted("overloaded_total"), "count")
    metrics["service.daemon_translate_p99_ms"] = (translate.get("p99_ms", 0.0), "ms")
    metrics["service.cold_total"] = (counted("cold_total"), "count")
    traced = outcome_of(result.requests, result.wall, speed, True)
    untraced = outcome_of(result.requests, result.wall, speed, False)
    metrics["trace.overhead_pct"] = (overhead_pct(traced.per_pair, untraced.per_pair), "%")
    # The share of the client's in-flight slots spent inside requests.
    busy = sum(r.seconds for r in result.requests)
    metrics["trace.coverage"] = (busy / (result.wall * IN_FLIGHT), "ratio")
    return metrics, outcome_of(result.requests, result.wall, speed)
