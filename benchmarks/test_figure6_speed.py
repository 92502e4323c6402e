"""Figure 6 — out-of-SSA translation speed per engine configuration.

One pytest-benchmark entry per engine configuration (the seven bars of the
paper's Figure 6), timing the translation of the small suite with fresh
function copies prepared outside the timed region.  The table test regenerates
the per-benchmark normalised ratios and records them.
"""

import os

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_figure6
from repro.bench.reporting import format_figure6
from repro.outofssa.driver import ENGINE_CONFIGURATIONS, destruct_ssa


@pytest.mark.parametrize("engine", ENGINE_CONFIGURATIONS, ids=lambda e: e.name)
def test_benchmark_engine_speed(benchmark, small_suite, engine):
    functions = [fn for functions in small_suite.values() for fn in functions]

    def setup():
        return ([function.copy() for function in functions],), {}

    def run(copies):
        for function in copies:
            destruct_ssa(function, engine)

    benchmark.pedantic(run, setup=setup, rounds=5, warmup_rounds=1)


def test_figure6_table_and_headline_speed(benchmark, suite, results_dir):
    # min-of-2 per engine: filters scheduler/GC spikes out of the ratio.
    rows = benchmark.pedantic(
        run_figure6, args=(suite,), kwargs={"repeats": 2}, rounds=1, iterations=1
    )
    table = format_figure6(rows)
    write_result(results_dir, "figure6_speed.txt", table)

    sum_row = next(row for row in rows if row.benchmark == "sum")
    fast = sum_row.seconds["us_i_linear_intercheck_livecheck"]
    baseline = sum_row.seconds["sreedhar_iii"]
    # The paper reports ~2x against its Sreedhar III implementation.  Our
    # baseline runs on the bit-set liveness backend (as the paper's did) —
    # already a harder target than the original ordered-set strawman — and
    # since the flat arena it is harder still: the gap was dominated by
    # the interference-graph build the fast engine skips, and the arena
    # edge scan made exactly that build several times cheaper, so
    # the measured margin compressed from ~1.25x to ~1.05-1.2x on this
    # small-function workload.  Keep the direction strict (`fast <
    # baseline`) and require a floor below the compressed margin so the
    # assertion survives machine noise while still catching a reversal of
    # the claim; shared CI runners lower the floor further via the
    # environment (see .github/workflows/ci.yml).
    minimum_ratio = float(os.environ.get("REPRO_SPEED_RATIO_MIN", "1.02"))
    assert fast < baseline
    assert baseline / fast > minimum_ratio
