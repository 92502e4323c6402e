"""Figure 5 — remaining copies per coalescing strategy.

Regenerates the paper's Figure 5: for every synthetic benchmark and every
coalescing variant (Intersect, Sreedhar I, Chaitin, Value, Sreedhar III,
Value + IS, Sharing), the number of copies remaining after out-of-SSA
translation, normalised to the Intersect strategy.  The pytest-benchmark
entries time one full quality run per variant; the plain test writes the
table and checks the orderings the paper reports.
"""

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_figure5
from repro.bench.metrics import copy_counts
from repro.bench.reporting import format_figure5
from repro.coalescing.variants import VARIANTS
from repro.outofssa.driver import EngineConfig, destruct_ssa


def _variant_config(name: str) -> EngineConfig:
    return EngineConfig(
        name=f"fig5_{name}", label=name, coalescing=name,
        liveness="check", interference="query", linear_class_check=False,
    )


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_benchmark_variant_quality_run(benchmark, small_suite, variant):
    """Time one full coalescing-quality run of a single variant (per-variant bars)."""
    functions = [fn for functions in small_suite.values() for fn in functions]
    config = _variant_config(variant.name)

    def run():
        total = 0
        for function in functions:
            copy = function.copy()
            destruct_ssa(copy, config)
            total += copy_counts(copy).static_copies
        return total

    remaining = benchmark(run)
    assert remaining >= 0


def test_figure5_table_and_orderings(benchmark, suite, results_dir):
    rows = benchmark.pedantic(run_figure5, args=(suite,), rounds=1, iterations=1)
    table = format_figure5(rows)
    write_result(results_dir, "figure5_quality.txt", table)

    sum_row = next(row for row in rows if row.benchmark == "sum")
    copies = sum_row.static_copies
    # Shape of the paper's Figure 5: interference accuracy buys copies.
    assert copies["value"] < copies["intersect"]
    assert copies["value"] <= copies["chaitin"] <= copies["intersect"]
    assert copies["sreedhar_i"] <= copies["intersect"]
    assert copies["sreedhar_iii"] <= copies["intersect"]
    assert copies["value_is"] <= copies["value"]
    assert copies["sharing"] <= copies["value_is"]
    # And the value-based family ends well below the intersection baseline.
    assert sum_row.ratios["sharing"] < 0.85
