"""Tests for result reporting, the public top-level API and small leftovers."""

import pytest

import repro
from repro.bench.harness import Figure5Row, Figure6Row, Figure7Row
from repro.bench.reporting import format_figure5, format_figure6, format_figure7
from repro.coalescing.variants import VARIANTS
from repro.outofssa.driver import ENGINE_CONFIGURATIONS


class TestTopLevelAPI:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.3.0"
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_round_trip_through_top_level_functions(self):
        text = (
            "function double(x) {\n"
            "  entry:\n"
            "    y = add x, x\n"
            "    ret y\n"
            "}\n"
        )
        function = repro.parse_function(text)
        assert repro.run_function(function, [4]).return_value == 8
        assert "double" in repro.format_function(function)

    def test_engine_and_variant_lookup(self):
        assert repro.engine_by_name("us_i").name == "us_i"
        assert repro.variant_by_name("value").name == "value"
        assert repro.DEFAULT_ENGINE in repro.ENGINE_CONFIGURATIONS

    def test_engine_descriptions_are_distinct(self):
        descriptions = {config.describe() for config in ENGINE_CONFIGURATIONS}
        assert len(descriptions) == len(ENGINE_CONFIGURATIONS) - 1 or len(descriptions) == len(
            ENGINE_CONFIGURATIONS
        )
        for config in ENGINE_CONFIGURATIONS:
            assert config.label
            assert config.describe()


class TestReportFormatting:
    def _figure5_rows(self):
        row = Figure5Row(benchmark="bench")
        for index, variant in enumerate(VARIANTS):
            row.static_copies[variant.name] = 10 - index
            row.weighted_copies[variant.name] = float(20 - index)
        row.compute_ratios()
        return [row]

    def test_format_figure5(self):
        text = format_figure5(self._figure5_rows())
        assert "bench" in text
        assert "1.000" in text           # the Intersect baseline ratio
        lines = text.splitlines()
        assert len(lines) == 3           # header, rule, one row

    def test_figure5_ratio_baseline_of_zero(self):
        row = Figure5Row(benchmark="empty")
        for variant in VARIANTS:
            row.static_copies[variant.name] = 0
        row.compute_ratios()
        assert all(ratio == 1.0 for ratio in row.ratios.values())

    def test_format_figure6_handles_missing_engines(self):
        row = Figure6Row(benchmark="b", seconds={"sreedhar_iii": 2.0, "us_i": 1.0})
        row.compute_ratios()
        text = format_figure6([row])
        assert "0.50" in text
        assert "-" in text               # engines without data print a dash

    def test_format_figure7(self):
        row = Figure7Row(
            metric="total",
            measured={config.name: 1024 * (index + 1) for index, config in enumerate(ENGINE_CONFIGURATIONS)},
        )
        row.compute_ratios()
        text = format_figure7([row])
        assert "total" in text and "KiB" in text
        assert row.ratios["sreedhar_iii"] == pytest.approx(1.0)


class TestSmallLeftovers:
    def test_copy_counts_weighting_uses_block_frequencies(self):
        from repro.bench.metrics import copy_counts
        from repro.gallery import figure4_lost_copy_problem
        from repro.outofssa.driver import DEFAULT_ENGINE, destruct_ssa

        function = figure4_lost_copy_problem()
        destruct_ssa(function, DEFAULT_ENGINE)
        counts = copy_counts(function)
        # The surviving copy lives in the loop: weighted count exceeds static.
        assert counts.weighted_copies > counts.static_copies
