"""Ablation — linear vs quadratic congruence-class interference checking.

The paper's §IV-B replaces the quadratic number of variable-to-variable tests
by a linear sweep; Figure 6 shows the "Linear" configurations are consistently
faster.  This ablation isolates that design choice: the same engine (no graph,
liveness checking) is run with and without the linear check, and the number of
pairwise queries is recorded alongside the timings.
"""

import pytest

from benchmarks.conftest import write_result
from repro.outofssa.driver import EngineConfig, destruct_ssa


def _config(linear: bool) -> EngineConfig:
    return EngineConfig(
        name=f"ablation_{'linear' if linear else 'quadratic'}",
        label="ablation",
        coalescing="value",
        liveness="check",
        interference="query",
        linear_class_check=linear,
    )


@pytest.mark.parametrize("linear", [False, True], ids=["quadratic", "linear"])
def test_benchmark_class_check(benchmark, small_suite, linear):
    functions = [fn for functions in small_suite.values() for fn in functions]
    config = _config(linear)

    def setup():
        return ([function.copy() for function in functions],), {}

    def run(copies):
        return sum(destruct_ssa(fn, config).stats.pair_queries for fn in copies)

    benchmark.pedantic(run, setup=setup, rounds=5, warmup_rounds=1)


def test_linear_check_issues_fewer_pair_queries(benchmark, small_suite, results_dir):
    functions = [fn for functions in small_suite.values() for fn in functions]

    def measure():
        counts = {}
        for linear in (False, True):
            config = _config(linear)
            counts[linear] = sum(
                destruct_ssa(fn.copy(), config).stats.pair_queries for fn in functions
            )
        return counts

    queries = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result(
        results_dir,
        "ablation_class_check.txt",
        "pairwise interference queries during coalescing\n"
        f"  quadratic class check: {queries[False]}\n"
        f"  linear class check:    {queries[True]}\n",
    )
    assert queries[True] <= queries[False]
