"""Tests for the experiment harness (Figures 5-7) and the memory model."""

import inspect
import typing

import pytest

from repro.bench import harness, reporting
from repro.bench.corpus import scaled_specs
from repro.bench.harness import (
    ServiceConcurrencyRow,
    headline_summary,
    run_figure5,
    run_figure6,
    run_figure7,
    run_verify_stress,
)
from repro.bench.memory import MemoryFootprint, category_breakdown, footprint_of
from repro.bench.reporting import (
    format_figure5,
    format_figure6,
    format_figure7,
    format_service_concurrency,
    format_verify_stress,
)
from repro.bench.suite import build_suite
from repro.coalescing.variants import VARIANTS
from repro.outofssa.driver import ENGINE_CONFIGURATIONS, destruct_ssa, engine_by_name


@pytest.fixture(scope="module")
def tiny_suite():
    return build_suite(scale=0.25, benchmarks=["164.gzip", "181.mcf"])


class TestFigure5Harness:
    def test_rows_structure_and_ratios(self, tiny_suite):
        rows = run_figure5(tiny_suite)
        assert [row.benchmark for row in rows] == ["164.gzip", "181.mcf", "sum"]
        for row in rows:
            assert set(row.static_copies) == {variant.name for variant in VARIANTS}
            assert row.ratios["intersect"] == pytest.approx(1.0)
            for ratio in row.ratios.values():
                assert 0.0 <= ratio <= 1.0 + 1e-9

    def test_more_precise_interference_removes_more_copies(self, tiny_suite):
        sum_row = next(row for row in run_figure5(tiny_suite) if row.benchmark == "sum")
        copies = sum_row.static_copies
        assert copies["value"] <= copies["chaitin"] <= copies["intersect"]
        assert copies["sreedhar_i"] <= copies["intersect"]
        assert copies["value_is"] <= copies["value"]
        assert copies["sharing"] <= copies["value_is"]
        # The headline separation of Figure 5: the value-based strategies
        # remove strictly more copies than plain intersection.
        assert copies["value"] < copies["intersect"]

    def test_report_formatting(self, tiny_suite):
        text = format_figure5(run_figure5(tiny_suite))
        assert "Intersect" in text and "Sharing" in text and "sum" in text


class TestFigure6Harness:
    def test_rows_and_ratios(self, tiny_suite):
        rows = run_figure6(tiny_suite, engines=ENGINE_CONFIGURATIONS[:3])
        assert rows[-1].benchmark == "sum"
        for row in rows:
            assert row.ratios["sreedhar_iii"] == pytest.approx(1.0)
            assert all(seconds >= 0 for seconds in row.seconds.values())
        text = format_figure6(rows)
        assert "Sreedhar III" in text

    def test_sum_row_totals_the_benchmarks(self, tiny_suite):
        engines = [engine_by_name("sreedhar_iii"), engine_by_name("us_i_linear_intercheck_livecheck")]
        rows = run_figure6(tiny_suite, engines=engines)
        *benchmarks, sum_row = rows
        for engine in engines:
            name = engine.name
            assert sum_row.seconds[name] == pytest.approx(sum(row.seconds[name] for row in benchmarks))
            assert sum_row.intersection_queries[name] == sum(
                row.intersection_queries[name] for row in benchmarks
            )
            assert sum_row.pair_queries[name] == sum(row.pair_queries[name] for row in benchmarks)

    def test_query_counts_are_the_same_on_every_run(self, tiny_suite):
        """The query counters explain the timing bars, so they must not move
        between runs or repeats the way the seconds do."""
        engines = ENGINE_CONFIGURATIONS[:3]
        once = run_figure6(tiny_suite, engines=engines)
        twice = run_figure6(tiny_suite, engines=engines, repeats=2)
        assert [row.intersection_queries for row in once] == [
            row.intersection_queries for row in twice
        ]
        assert [row.pair_queries for row in once] == [row.pair_queries for row in twice]


class TestFigure7Harness:
    def test_memory_rows(self, tiny_suite):
        engines = [engine_by_name("sreedhar_iii"), engine_by_name("us_i_linear_intercheck_livecheck")]
        rows = run_figure7(tiny_suite, engines=engines)
        assert [row.metric for row in rows] == ["maximum", "total"]
        for row in rows:
            assert row.measured["sreedhar_iii"] > 0
        total_row = rows[1]
        # The headline claim: dropping the graph and the liveness sets shrinks
        # the footprint by a large factor.
        assert total_row.measured["us_i_linear_intercheck_livecheck"] * 4 < total_row.measured["sreedhar_iii"]
        text = format_figure7(rows)
        assert "maximum" in text and "total" in text

    def test_footprint_of_single_run(self):
        from repro.gallery import figure4_lost_copy_problem

        baseline = destruct_ssa(figure4_lost_copy_problem(), engine_by_name("sreedhar_iii"))
        fast = destruct_ssa(
            figure4_lost_copy_problem(), engine_by_name("us_i_linear_intercheck_livecheck")
        )
        baseline_footprint = footprint_of(baseline)
        fast_footprint = footprint_of(fast)
        assert baseline_footprint.measured_total > fast_footprint.measured_total
        assert baseline_footprint.evaluated_ordered_sets > 0
        assert baseline_footprint.evaluated_bit_sets > 0
        # The baseline engines now run on the bit-set liveness backend, whose
        # measured rows land in their own tracker category.
        assert "liveness_bitsets" in category_breakdown(baseline)
        assert "livecheck" in category_breakdown(fast)

    def test_memory_footprint_addition(self):
        total = MemoryFootprint(1, 2, 3, 4) + MemoryFootprint(10, 20, 30, 40)
        assert (total.measured_total, total.measured_peak) == (11, 22)
        assert (total.evaluated_ordered_sets, total.evaluated_bit_sets) == (33, 44)


class TestHeadline:
    def test_headline_summary_reads_the_figure_rows(self, tiny_suite):
        """The memory and copies ratios are those of the Figure 7 total and
        Figure 5 sum rows.  Their floors are in
        ``benchmarks/test_headline_claims.py``; the speed-up is a wall-clock
        reading, so its floor is in ``benchmarks/timing_floors.py``."""
        fast, baseline = "us_i_linear_intercheck_livecheck", "sreedhar_iii"
        summary = headline_summary(tiny_suite)
        engines = [engine_by_name(baseline), engine_by_name(fast)]
        memory = next(row for row in run_figure7(tiny_suite, engines) if row.metric == "total")
        quality = next(row for row in run_figure5(tiny_suite) if row.benchmark == "sum")
        assert summary.memory_reduction_vs_sreedhar == pytest.approx(
            memory.measured[baseline] / memory.measured[fast]
        )
        assert summary.copies_ratio_vs_sreedhar == pytest.approx(
            quality.static_copies["value"] / quality.static_copies[baseline]
        )


class TestVerifyStressHarness:
    def test_clean_corpus_has_no_diagnostics(self):
        rows = run_verify_stress(scaled_specs([150, 300]), level="fast", repeats=2)
        assert [row.level for row in rows] == ["fast", "fast"]
        assert rows[0].blocks < rows[1].blocks
        for row in rows:
            assert (row.diagnostics, row.errors, row.warnings) == (0, 0, 0)
            assert row.unchecked_seconds > 0 and row.checked_seconds > 0
            assert row.overhead > 0
        text = format_verify_stress(rows)
        assert "overhead" in text and "diags" in text


class TestServiceConcurrencyReport:
    def test_rates_and_table(self):
        idle = ServiceConcurrencyRow(mode="blocking")
        assert (idle.requests_per_second, idle.hit_rate) == (0.0, 0.0)
        busy = ServiceConcurrencyRow(
            mode="pipelined[32]", clients=32, requests=40, hits=30, seconds=2.0,
            p50_ms=1.5, queue_peak=3, speedup_vs_blocking=2.5,
        )
        assert busy.requests_per_second == pytest.approx(20.0)
        assert busy.hit_rate == pytest.approx(0.75)
        lines = format_service_concurrency([idle, busy]).splitlines()
        assert "req/s" in lines[0] and "queue peak" in lines[0]
        busy_line = next(line for line in lines if line.startswith("pipelined[32]"))
        for cell in ("75%", "20.0", "1.50", "2.5x"):
            assert cell in busy_line


@pytest.mark.parametrize("module", [harness, reporting], ids=lambda m: m.__name__)
def test_public_function_annotations_resolve(module):
    """Every annotation of the harness' public functions names something
    importable (``from __future__ import annotations`` defers the lookup, so
    a missing import only shows when the hints are resolved)."""
    functions = [
        value for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ == module.__name__
    ]
    assert functions
    for function in functions:
        typing.get_type_hints(function)
