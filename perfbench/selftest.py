"""The benchmark's own tests (no workload is run).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default ``pytest`` collection
(``test_*.py``); the workload runs themselves are far too slow for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import layers  # noqa: E402
import offline  # noqa: E402
import serve  # noqa: E402


def _digests(texts):
    return [hashlib.sha256(text.encode()).hexdigest() for text in texts]


# --------------------------------------------------------------------------- determinism
def _schedule(state):
    """The first round's op order, as the run draws it."""
    rng = offline.random.Random()
    rng.setstate(state.rng.getstate())
    order = list(state.inputs)
    rng.shuffle(order)
    return [item.name for item in order]


@pytest.mark.parametrize("setup", [offline.setup_suite, offline.setup_bigfn])
def test_offline_inputs_are_fixed_and_the_seed_orders_them(setup):
    first, again, other = setup(3), setup(3), setup(4)
    texts = [item.text for item in first.inputs]
    assert _digests(texts) == _digests(item.text for item in again.inputs)
    assert _digests(texts) == _digests(item.text for item in other.inputs)
    assert _schedule(first) == _schedule(again)
    assert _schedule(first) != _schedule(other)


def test_bigfn_input_sizes():
    state = offline.setup_bigfn(0)
    blocks = [item.source.blocks for item in state.inputs]
    assert all(
        offline.BIGFN_MIN_BLOCKS <= len(b) <= offline.BIGFN_MAX_BLOCKS for b in blocks[:-1]
    )
    assert len(blocks[-1]) >= offline.BIGFN_CHAIN_BLOCKS
    assert len(state.inputs) * len(state.engines) * offline.BIGFN_ROUNDS >= 100 + len(
        state.engines
    ) * offline.BIGFN_ROUNDS


def test_serve_stream_follows_the_seed():
    hot, cold, rng = serve.inputs(7)
    hot2, cold2, rng2 = serve.inputs(7)
    assert _digests(hot) == _digests(hot2)
    assert _digests(text for _, text in cold) == _digests(text for _, text in cold2)
    state = serve.State(hot, cold, [1.0] * len(hot), rng, None, 0)
    state2 = serve.State(hot2, cold2, [1.0] * len(hot), rng2, None, 0)
    stream = [serve._next_request(state, n).text for n in range(50)]
    assert _digests(stream) == _digests(serve._next_request(state2, n).text for n in range(50))
    state3 = serve.State(hot, cold, [1.0] * len(hot), serve.inputs(8)[2], None, 0)
    assert _digests(stream) != _digests(serve._next_request(state3, n).text for n in range(50))


def test_serve_draws_every_cold_function_equally_often():
    hot, cold, rng = serve.inputs(7)
    state = serve.State(hot, cold, [1.0] * len(hot), rng, None, 0)
    passes = 3
    requests = [
        serve._next_request(state, n) for n in range(serve.NEW_EVERY * serve.COLD_POOL * passes)
    ]
    new = [request.key for request in requests if request.alias is not None]
    assert len(new) == len(requests) // serve.NEW_EVERY
    assert all(new.count(f"new{index}") == passes for index in range(serve.COLD_POOL))
    assert new[:serve.COLD_POOL] != new[serve.COLD_POOL:2 * serve.COLD_POOL]


def test_a_renamed_function_translates_to_the_renamed_translation():
    from repro.ir.printer import format_function
    from repro.ir.parser import parse_function
    from repro.pipeline import Pipeline

    _, cold, _ = serve.inputs(1)
    name, text = cold[0]

    def translate(source):
        function = parse_function(source)
        Pipeline.for_engine(serve.ENGINE).run(function)
        return format_function(function)

    alias = f"{name}_42"
    assert serve._renamed(translate(text), name, alias) == translate(
        serve._renamed(text, name, alias)
    )


# --------------------------------------------------------------------------- statistics
def test_percentile_needs_ten_samples_beyond_it():
    assert common.tail_count(1000, 0.99) == 10
    assert common.percentile_supported(1000, 0.99)
    assert not common.percentile_supported(999, 0.99)
    assert common.percentile_supported(100, 0.90)
    assert not common.percentile_supported(99, 0.90)
    assert common.percentile_supported(20, 0.50)
    assert not common.percentile_supported(19, 0.50)


def test_percentile_interpolates_like_numpy():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert common.percentile(samples, 0.5) == 2.5
    assert common.percentile(samples, 0.0) == 1.0
    assert common.percentile(samples, 1.0) == 4.0
    assert common.percentile(samples, 0.9) == pytest.approx(3.7)


def test_geomean():
    assert common.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert common.geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        common.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        common.geomean([])


def test_compile_geomean_weighs_every_pair_equally():
    outcome = common.Outcome(wall=1.0)
    for seconds in (0.001, 0.001, 0.003):      # median 1 ms
        outcome.record(("f", "fast"), seconds, None)
    outcome.record(("f", "slow"), 0.1, None)   # median 100 ms
    outcome.record(("f", "slow"), 0.2, "RecursionError")
    metrics = common.latency_metrics(outcome)
    assert metrics["compile_ms_geomean"][0] == pytest.approx(10.0)
    assert metrics["ok_ratio"][0] == pytest.approx(4 / 5)
    assert outcome.failures == {"RecursionError": 1}


def test_times_are_scaled_by_the_nearby_machine_speed():
    from types import SimpleNamespace

    speed = common.Speed()
    slow = 2 * common.REFERENCE_LOOP_SECONDS
    # A machine at half speed for the first seconds, then at full speed.
    speed.samples = [(0.0, slow), (0.5, slow), (10.0, common.REFERENCE_LOOP_SECONDS)]
    assert speed.factor(0.2, 0.3) == pytest.approx(0.5)
    assert speed.factor(9.5, 9.6) == pytest.approx(1.0)
    assert speed.factor(5.0, 5.1) == pytest.approx(0.5)    # no sample near: nearest
    records = [
        SimpleNamespace(pair=("f", "e"), began=0.1, seconds=0.2, error=None, traced=False),
        SimpleNamespace(pair=("f", "e"), began=9.6, seconds=0.2, error=None, traced=True),
    ]
    outcome = common.outcome_of(records, wall=1.0, speed=speed)
    assert outcome.latencies == pytest.approx([0.1, 0.2])
    assert outcome.scale == pytest.approx(0.75)
    assert outcome.wall == pytest.approx(0.75)
    assert common.outcome_of(records, 1.0, speed, traced=True).latencies == pytest.approx([0.2])


# --------------------------------------------------------------------------- catalogue
def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert len(layers.PER_LAYER) <= 128
    assert {m["name"] for m in spec["end_to_end"]} == {
        "compile_ms_geomean", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
        "ops_per_s", "remaining_copies", "dynamic_copy_cost", "analysis_peak_kib",
        "peak_rss_mib", "ok_ratio", "setup_s",
    }


def test_the_spans_cover_an_op():
    from repro.ir.printer import format_function
    from spans import Tracer

    state = offline.setup_suite(0)
    state.inputs[:] = state.inputs[:2]
    state.rounds = 1                                        # row 0 plain, row 1 traced
    tracer = Tracer()
    result = offline.run(state, 0.0, common.Speed(), tracer)
    assert all(record.error is None for record in result.records)
    assert tracer.calls["op"] == len(state.engines)          # one traced row
    assert tracer.calls["pipeline.run"] == len(state.engines)
    assert tracer.coverage() > 0.9
    # Uninstalled after the row: the program's own functions are back.
    import repro.ir.printer as printer

    assert printer.format_function is format_function


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
