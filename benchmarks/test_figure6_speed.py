"""Figure 6 — out-of-SSA translation speed per engine configuration.

One pytest-benchmark entry per engine configuration (the seven bars of the
paper's Figure 6), timing the translation of the small suite with fresh
function copies prepared outside the timed region; nothing here asserts on
the timings.  The per-benchmark normalised ratios, their table
(``benchmarks/results/figure6_speed.txt``) and the speed floor over Sreedhar
III are in ``benchmarks/timing_floors.py``, outside tier-1.
"""

import pytest

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
