"""Integration tests for the out-of-SSA driver and its engine configurations."""

import pytest

from repro.interp import run_function
from repro.ir.instructions import ParallelCopy, Phi
from repro.ir.validate import validate_function
from repro.outofssa.boissinot import translate_us_i, translate_us_iii
from repro.outofssa.sreedhar import translate_sreedhar_iii
from repro.outofssa.driver import (
    DEFAULT_ENGINE,
    ENGINE_CONFIGURATIONS,
    EngineConfig,
    destruct_ssa,
    engine_by_name,
)
from tests.helpers import GALLERY_PROGRAMS, generated_programs


def assert_fully_lowered(function):
    """No φ-functions and no parallel copies may remain after translation."""
    for block in function:
        assert not block.phis
        assert block.entry_pcopy is None
        assert block.exit_pcopy is None
        assert not any(isinstance(instr, ParallelCopy) for instr in block.body)
        assert not any(isinstance(instr, Phi) for instr in block.body)


class TestEngineConfigurations:
    def test_the_seven_paper_configurations_exist(self):
        names = [config.name for config in ENGINE_CONFIGURATIONS]
        assert names == [
            "sreedhar_iii",
            "us_iii",
            "us_iii_intercheck",
            "us_iii_intercheck_livecheck",
            "us_iii_linear_intercheck_livecheck",
            "us_i",
            "us_i_linear_intercheck_livecheck",
        ]
        assert engine_by_name("us_i").interference == "matrix"
        assert engine_by_name("us_i_linear_intercheck_livecheck").interference == "query"
        assert engine_by_name("us_iii_intercheck_livecheck").liveness == "check"
        with pytest.raises(KeyError):
            engine_by_name("does_not_exist")
        assert "LiveCheck" in DEFAULT_ENGINE.describe()

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    @pytest.mark.parametrize("name,maker,args", GALLERY_PROGRAMS)
    def test_gallery_programs_translate_correctly(self, config, name, maker, args):
        expected = run_function(maker(), args).observable()
        function = maker()
        result = destruct_ssa(function, config)
        validate_function(function)
        assert_fully_lowered(function)
        assert run_function(function, args).observable() == expected
        assert result.stats.elapsed_seconds >= 0.0

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_generated_programs_translate_correctly(self, config):
        for function in generated_programs(count=3, size=32):
            for args in ([1, 2], [0, 7]):
                expected = run_function(function.copy(), args).observable()
                copy = function.copy()
                destruct_ssa(copy, config)
                validate_function(copy)
                assert_fully_lowered(copy)
                assert run_function(copy, args).observable() == expected


class TestLivenessBackendPluggability:
    def test_all_backends_translate_identically(self):
        """The liveness backend is an implementation detail: swapping it must
        not change a single instruction of the translated output."""
        import dataclasses

        from repro.ir.printer import format_function

        for function in generated_programs(count=3, size=30):
            outputs = {}
            for backend in ("sets", "bitsets", "check"):
                config = dataclasses.replace(
                    engine_by_name("us_i"), name=f"us_i_{backend}", liveness=backend
                )
                copy = function.copy()
                destruct_ssa(copy, config)
                outputs[backend] = format_function(copy)
            assert outputs["sets"] == outputs["bitsets"] == outputs["check"]

    def test_unknown_backend_is_rejected(self):
        import dataclasses

        config = dataclasses.replace(engine_by_name("us_i"), name="bogus", liveness="bogus")
        with pytest.raises(ValueError):
            destruct_ssa(next(iter(generated_programs(count=1, size=15))).copy(), config)

    def test_set_based_engines_use_the_bitset_backend(self):
        for name in ("sreedhar_iii", "us_iii", "us_iii_intercheck", "us_i"):
            assert engine_by_name(name).liveness == "bitsets"


class TestStatsAndResults:
    def test_stats_are_populated(self):
        from repro.gallery import figure4_lost_copy_problem

        function = figure4_lost_copy_problem()
        result = destruct_ssa(function, engine_by_name("us_i"))
        stats = result.stats
        assert stats.inserted_phi_copies == 3
        assert stats.affinities >= 3
        assert stats.coalesced >= 2
        assert stats.remaining_copies == 1        # the x2 copy in the loop
        assert stats.candidate_variables > 0
        assert stats.num_blocks == 3
        assert stats.liveness_set_entries > 0
        # Matrix-backed engines answer class-vs-class checks from merged
        # matrix rows; every check shows up in exactly one of the counters.
        assert stats.pair_queries + stats.class_row_checks > 0
        assert stats.interference_backend == "matrix"
        assert result.memory_total_bytes > 0
        assert result.memory_peak_bytes > 0

    def test_livecheck_engines_report_no_liveness_set_entries(self):
        from repro.gallery import figure4_lost_copy_problem

        function = figure4_lost_copy_problem()
        result = destruct_ssa(function, engine_by_name("us_i_linear_intercheck_livecheck"))
        assert result.stats.liveness_set_entries == 0
        assert "interference_graph" not in result.tracker.by_category()

    def test_swap_needs_a_sequentialization_temporary(self):
        from repro.gallery import figure3_swap_problem

        function = figure3_swap_problem()
        result = destruct_ssa(function, DEFAULT_ENGINE)
        assert result.stats.sequentialization_temps == 1
        assert result.stats.remaining_copies == 3

    def test_rename_map_targets_class_representatives(self):
        from repro.gallery import figure4_lost_copy_problem

        function = figure4_lost_copy_problem()
        result = destruct_ssa(function, DEFAULT_ENGINE)
        # x1 and x3 end up coalesced with the φ-node, x2 stays separate.
        assert result.rename_map  # non-empty
        targets = set(result.rename_map.values())
        assert all(var not in result.rename_map for var in targets)

    def test_dynamic_copy_cost_weighs_loops(self):
        from repro.gallery import figure4_lost_copy_problem

        function = figure4_lost_copy_problem()
        result = destruct_ssa(function, DEFAULT_ENGINE)
        # The single remaining copy sits in the loop: its dynamic cost exceeds
        # its static count.
        assert result.stats.dynamic_copy_cost > result.stats.remaining_copies


class TestConvenienceWrappers:
    def test_translate_us_i_and_us_iii_and_sreedhar(self):
        from repro.gallery import figure3_swap_problem

        args = (4, 3, 8)
        expected = run_function(figure3_swap_problem(), args).observable()
        for translate, fast in [
            (translate_us_i, True),
            (translate_us_i, False),
            (translate_us_iii, True),
            (translate_us_iii, False),
        ]:
            function = figure3_swap_problem()
            result = translate(function, fast=fast)
            assert run_function(function, args).observable() == expected
            assert ("LiveCheck" in result.config.describe()) == fast

        function = figure3_swap_problem()
        result = translate_sreedhar_iii(function)
        assert result.config.name == "sreedhar_iii"
        assert run_function(function, args).observable() == expected
