"""Unit tests: edit logs, the analysis-cache generation guard, and the
liveness checker's edit-log patching."""

import pytest

from repro.bench.suite import build_suite
from repro.ir.editlog import EditLog
from repro.ir.flat import FlatFunction
from repro.ir.instructions import Copy, Variable
from repro.ir.positions import DefUseIndex
from repro.liveness.bitsets import BitLivenessSets
from repro.outofssa.config import engine_by_name
from repro.pipeline import Pipeline
from repro.pipeline.analysis import AnalysisCache, StaleAnalysisError

from tests.helpers import diamond_function, loop_function


# --------------------------------------------------------------------------- edit log
class TestEditLog:
    def test_collects_blocks_and_variables(self):
        log = EditLog()
        a, b = Variable("a"), Variable("b")
        log.copy_inserted("entry", a, b)
        log.block_split("entry", "join", "entry_join.1")
        log.block_rewritten("join", [b])
        assert [edit.blocks for edit in log] == [
            ("entry",), ("entry", "entry_join.1", "join"), ("join",)
        ]
        assert log.affected_variables() == [a, b]
        assert len(log) == 3 and bool(log)

    def test_empty_log_is_falsy(self):
        log = EditLog()
        assert not log and len(log) == 0


# --------------------------------------------------------------------------- generation guard
class TestGenerationGuard:
    def test_undeclared_mutation_raises(self):
        function = diamond_function()
        cache = AnalysisCache(function)
        cache.get(BitLivenessSets)
        function.split_edge("entry", "left")  # mutate without invalidating
        with pytest.raises(StaleAnalysisError):
            cache.get(BitLivenessSets)

    def test_cached_is_the_unchecked_escape_hatch(self):
        function = diamond_function()
        cache = AnalysisCache(function)
        live = cache.get(BitLivenessSets)
        function.split_edge("entry", "left")
        assert cache.cached(BitLivenessSets) is live

    def test_preserve_vouches_and_restamps(self):
        function = diamond_function()
        cache = AnalysisCache(function)
        index = cache.get(DefUseIndex)
        function.split_edge("entry", "left")
        cache.preserve(DefUseIndex)
        assert cache.get(DefUseIndex) is index

    def test_invalidate_clears_the_stamp(self):
        function = diamond_function()
        cache = AnalysisCache(function)
        cache.get(BitLivenessSets)
        function.split_edge("entry", "left")
        cache.invalidate(BitLivenessSets, DefUseIndex)
        # A rebuild at the current generation serves cleanly.
        rebuilt = cache.get(BitLivenessSets)
        assert rebuilt is cache.get(BitLivenessSets)

    def test_rebuild_over_a_stale_def_use_index_raises(self):
        # The liveness rows and the arena are rebuilt, but the def/use index
        # they read was computed before the edit and not invalidated.
        function = diamond_function()
        cache = AnalysisCache(function)
        cache.get(BitLivenessSets)
        function.split_edge("entry", "left")
        cache.invalidate(BitLivenessSets, FlatFunction)
        with pytest.raises(StaleAnalysisError, match="DefUseIndex"):
            cache.get(BitLivenessSets)

    def test_generation_advances_on_cfg_edits(self):
        function = diamond_function()
        before = function.generation
        function.split_edge("entry", "left")
        assert function.generation > before

    def test_read_only_validation_does_not_invalidate(self):
        from repro.ir.validate import validate_function

        function = diamond_function()
        cache = AnalysisCache(function)
        live = cache.get(BitLivenessSets)
        validate_function(function)  # read-only: must not look like a mutation
        assert cache.get(BitLivenessSets) is live


# --------------------------------------------------------------------------- livecheck invalidation
class TestLiveCheckInvalidation:
    """``LivenessChecker.apply_edits``: patch the per-variable answer caches
    from edit logs instead of rebuilding the oracle (ROADMAP follow-up)."""

    def _checker(self, function):
        from repro.liveness.livecheck import LivenessChecker

        return LivenessChecker(function)

    def _assert_matches_fresh(self, checker, function):
        from repro.liveness.livecheck import LivenessChecker

        fresh = LivenessChecker(function)
        for label in function.blocks:
            for var in function.variables():
                assert checker.is_live_in(label, var) == fresh.is_live_in(label, var), (
                    f"live-in mismatch for {var} at {label}"
                )
                assert checker.is_live_out(label, var) == fresh.is_live_out(label, var), (
                    f"live-out mismatch for {var} at {label}"
                )

    def test_patched_checker_matches_fresh_after_edit_batches(self):
        from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch

        for seed in (0, 7, 23):
            function = generate_stress_cfg(CorpusSpec(seed=seed, blocks=40, variables=6))
            checker = self._checker(function)
            # Warm the per-variable caches before editing.
            for var in function.variables():
                checker.is_live_in(function.entry_label, var)
            for batch in range(3):
                log = random_edit_batch(function, seed=seed ^ (batch + 1))
                checker.apply_edits(log)
                self._assert_matches_fresh(checker, function)

    def test_unaffected_cached_walks_survive(self):
        function = loop_function()
        checker = self._checker(function)
        for var in function.variables():
            checker.is_live_in(function.entry_label, var)
        cached_before = set(checker._live_in_blocks)
        target = function.variables()[0]
        log = EditLog()
        fresh = function.new_variable("patch")
        block = next(iter(function.blocks))
        function.blocks[block].body.insert(0, Copy(fresh, target))
        log.copy_inserted(block, fresh, target)
        checker.apply_edits(log)
        # Only the two variables the edit mentions were dropped.
        assert cached_before - set(checker._live_in_blocks) <= {target, fresh}
        assert len(cached_before) - len(set(checker._live_in_blocks) & cached_before) <= 1
        self._assert_matches_fresh(checker, function)

    def test_split_edges_drop_crossing_walks(self):
        function = diamond_function()
        checker = self._checker(function)
        for var in function.variables():
            checker.is_live_out(function.entry_label, var)
        log = EditLog()
        new_block = function.split_edge("entry", "left")
        log.block_split("entry", "left", new_block.label)
        checker.apply_edits(log)
        self._assert_matches_fresh(checker, function)

    def test_pipeline_patches_the_checker_through_materialization(self):
        from repro.liveness.livecheck import LivenessChecker

        config = engine_by_name("us_iii_intercheck_livecheck")
        function = build_suite(scale=0.3, benchmarks=["164.gzip"])["164.gzip"][0]
        cache = AnalysisCache(function, config)
        Pipeline.for_engine(config).run(function, cache=cache)
        # Built once (by the interference pass) and patched — not rebuilt —
        # by the materialization pass.
        assert cache.constructions[LivenessChecker] == 1
        checker = cache.cached(LivenessChecker)
        assert checker is not None
        self._assert_matches_fresh(checker, function)
