"""Property tests: the warm service cache never changes a single bit.

The content-addressed cache and the warm machinery behind it are pure
representation choices — a served translation must be indistinguishable from
a cold one.  Five claims:

1. *Warm ≡ cold for every engine* — for all seven Figure 6/7 engine
   configurations × both interference backends, the service's cold
   response equals a direct cold pipeline run of the same text, and the
   subsequent cache hit returns byte-identical text, on both IR cores.
2. *Randomized streams* — under arbitrary interleavings of programs,
   repeats and flushes, every response equals the cold reference for its
   program (Hypothesis-driven).
3. *The parallel coalescing prefilter is invisible* — service shards with
   ``parallel_coalescing`` enabled translate bit-identically to the serial
   pipeline (the monotonicity argument of
   :func:`repro.service.scheduler.parallel_coalesce`, checked end to end).
4. *Behavioural differential* — interpreting cached vs freshly translated
   outputs on corpus samples yields the same observable behaviour (return
   value + print trace), under every engine.
5. *Warm retranslation ≡ cold* — after every batch of a random sequence of
   materialization-shaped edits to a hot stress-corpus function,
   ``TranslationService.retranslate`` returns exactly the IR text and stats
   counters a fresh :class:`~repro.pipeline.Session` produces for an
   in-memory copy of the edited function (Hypothesis-driven, all seven
   engines on both IR cores).
"""

import itertools
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.interp import run_function
from repro.ir import format_function, parse_function
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig, INTERFERENCE_BACKENDS
from repro.pipeline import Pipeline, Session
from repro.service import TranslationService

ENGINE_BACKEND_MATRIX = [
    pytest.param(config, backend, id=f"{config.name}-{backend}")
    for config, backend in itertools.product(
        ENGINE_CONFIGURATIONS, sorted(INTERFERENCE_BACKENDS)
    )
]


def _program_text(seed: int, size: int = 28) -> str:
    return format_function(generate_ssa_program(GeneratorConfig(seed=seed, size=size)))


def _cold_reference(text: str, config: EngineConfig) -> str:
    function = parse_function(text)
    Pipeline.for_engine(config).run(function)
    return format_function(function)


def _assert_served_like_cold(derived: EngineConfig) -> None:
    service = TranslationService(derived)
    for seed in (2, 17):
        text = _program_text(seed)
        reference = _cold_reference(text, derived)
        cold = service.translate_text(text)
        assert cold.kind == "cold"
        assert cold.ir_text == reference, f"{derived.name}: cold response diverged"
        hit = service.translate_text(text)
        assert hit.kind == "hit"
        assert hit.ir_text == reference, f"{derived.name}: cached response diverged"
        assert hit.digest == cold.digest and hit.fingerprint == cold.fingerprint


@pytest.mark.parametrize("config, backend", ENGINE_BACKEND_MATRIX)
def test_warm_cache_is_bit_identical_to_cold_for_every_engine(config, backend):
    """All 7 engines × both interference backends: cold response == direct
    pipeline output, hit response == cold response, byte for byte."""
    _assert_served_like_cold(EngineConfig.builder(config).interference(backend).build())


@pytest.mark.parametrize("config, backend", ENGINE_BACKEND_MATRIX)
def test_warm_cache_is_bit_identical_to_cold_on_the_objects_core(config, backend):
    """The same matrix with the analyses built from the object graph."""
    _assert_served_like_cold(
        EngineConfig.builder(config).interference(backend).core("objects").build()
    )


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=5),
    repeats=st.integers(min_value=1, max_value=3),
    flush_at=st.integers(min_value=0, max_value=10),
)
def test_random_request_streams_always_match_cold(seeds, repeats, flush_at):
    service = TranslationService("us_i")
    references = {}
    stream = [seed for seed in seeds for _ in range(repeats)]
    for index, seed in enumerate(stream):
        text = _program_text(seed, size=20)
        if seed not in references:
            references[seed] = _cold_reference(text, service.default_config)
        if index == flush_at:
            service.flush()
        result = service.translate_text(text)
        assert result.ir_text == references[seed], (
            f"request {index} (seed {seed}, {result.kind}) diverged after "
            f"{'a flush' if index >= flush_at else 'no flush'}"
        )


@pytest.mark.parametrize(
    "engine", ["us_i", "us_iii", "sreedhar_iii", "us_i_linear_intercheck_livecheck"]
)
def test_parallel_coalescing_is_bit_identical(engine):
    """Shards with the class-row prefilter translate exactly like the serial
    pipeline — including engines where the prefilter must disable itself
    (Sreedhar's skip-pair rule, the linear class check)."""
    serial = TranslationService(engine, capacity=0)
    parallel = TranslationService(engine, capacity=0, parallel_coalescing=4)
    for seed in (5, 23, 71):
        text = _program_text(seed, size=32)
        assert (
            parallel.translate_text(text).ir_text
            == serial.translate_text(text).ir_text
        ), f"{engine} diverged under parallel coalescing (seed {seed})"


@pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
def test_cached_outputs_behave_like_fresh_outputs(config):
    """Differential check: run the interpreter on the served (cached) output
    and on a freshly translated copy — observable behaviour must agree."""
    service = TranslationService(config)
    for seed in (4, 31):
        program = generate_ssa_program(GeneratorConfig(seed=seed, size=24))
        text = format_function(program)
        expected = run_function(parse_function(text), [3, 5]).observable()

        service.translate_text(text)            # prime the cache
        served = service.translate_text(text)   # the cached response
        assert served.cached

        fresh = parse_function(text)
        Pipeline.for_engine(config).run(fresh)

        cached_behaviour = run_function(parse_function(served.ir_text), [3, 5]).observable()
        fresh_behaviour = run_function(fresh, [3, 5]).observable()
        assert cached_behaviour == fresh_behaviour == expected, (
            f"{config.name}: cached and fresh outputs behave differently (seed {seed})"
        )


#: Stats fields that measure wall-clock time, not the translation itself.
_TIMING_FIELDS = ("elapsed_seconds", "lowering_ms", "verify_ms")


def _counters(stats) -> dict:
    return {name: value for name, value in stats.items() if name not in _TIMING_FIELDS}


@pytest.mark.parametrize("core", ["flat", "objects"])
@pytest.mark.parametrize("engine", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=8, max_value=300),
    depth=st.integers(min_value=1, max_value=5),
    irreducible=st.sampled_from([0.0, 0.05, 0.1, 0.15]),
    batch_seeds=st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=4),
)
def test_retranslate_is_bit_identical_to_cold(
    engine, core, seed, blocks, depth, irreducible, batch_seeds
):
    """15 examples for each of the 14 engine × core cases (210 in all)."""
    engine = EngineConfig.builder(engine).core(core).build()
    service = TranslationService(engine)
    function = generate_stress_cfg(
        CorpusSpec(
            seed=seed, blocks=blocks, loop_depth=depth, variables=6,
            irreducible=irreducible,
        )
    )
    result = service.translate_function(function)
    for step, batch_seed in enumerate(batch_seeds):
        state = service.cache.warm_state(result.digest, result.fingerprint)
        log = random_edit_batch(state.function, seed=batch_seed)
        cold_copy = state.function.copy()      # preserves fresh-name counters
        result = service.retranslate(result.digest, log)
        cold = Session(engine).translate(cold_copy)
        assert result.kind == "warm"
        assert result.ir_text == format_function(cold_copy), (
            f"{engine.name}: warm retranslation diverged from cold at step {step}"
        )
        assert _counters(result.stats) == _counters(asdict(cold.stats)), (
            f"{engine.name}: warm stats diverged from cold at step {step}"
        )
