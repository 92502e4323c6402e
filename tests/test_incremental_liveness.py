"""Unit tests: edit logs, the incremental re-solver, and its pipeline wiring."""

import pytest

from repro.bench.suite import build_suite
from repro.ir.editlog import EditLog
from repro.ir.instructions import Copy, Variable
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.incremental import IncrementalBitLiveness
from repro.liveness.numbering import VariableNumbering
from repro.outofssa.config import EngineConfig, engine_by_name
from repro.outofssa.method_i import insert_phi_copies
from repro.pipeline import Pipeline
from repro.pipeline.analysis import AnalysisCache, StaleAnalysisError

from tests.helpers import diamond_function, loop_function


def assert_rows_match_cold(live, function):
    cold = BitLivenessSets(function)
    for label in function.blocks:
        assert set(live.live_in_variables(label)) == set(
            cold.live_in_variables(label)
        ), f"live-in mismatch at {label}"
        assert set(live.live_out_variables(label)) == set(
            cold.live_out_variables(label)
        ), f"live-out mismatch at {label}"


INCREMENTAL = EngineConfig.builder("us_i").liveness("incremental").build()


# --------------------------------------------------------------------------- edit log
class TestEditLog:
    def test_collects_blocks_and_variables(self):
        log = EditLog()
        a, b = Variable("a"), Variable("b")
        log.copy_inserted("entry", a, b)
        log.block_split("entry", "join", "entry_join.1")
        log.block_rewritten("join", [b])
        assert log.touched_blocks() == {"entry", "join", "entry_join.1"}
        assert log.affected_variables() == [a, b]
        assert log.new_blocks == ["entry_join.1"]
        assert len(log) == 3 and bool(log)

    def test_removed_classification(self):
        log = EditLog()
        a, b, fresh = Variable("a"), Variable("b"), Variable("fresh")
        # An inserted copy: the source only gains a use, the destination
        # gains a kill point (conservatively removed-from).
        log.copy_inserted("entry", fresh, a)
        assert log.removed_variables() == [fresh]
        # A rename removes every occurrence of the old name.
        log.variables_renamed({a: b})
        assert log.removed_variables() == [fresh, a]

    def test_empty_log_is_falsy(self):
        log = EditLog()
        assert not log and len(log) == 0
        assert log.touched_blocks() == set()


# --------------------------------------------------------------------------- re-solver
class TestIncrementalResolve:
    def test_empty_log_is_a_noop(self):
        function = loop_function()
        live = IncrementalBitLiveness(function)
        before = {label: live.live_in[label].bits for label in function.blocks}
        delta = live.apply_edits(EditLog())
        assert delta.iterations == 0 and delta.rows_changed == 0
        assert {label: live.live_in[label].bits for label in function.blocks} == before

    def test_manual_copy_insertion(self):
        function = loop_function()
        live = IncrementalBitLiveness(function)
        log = EditLog()
        body = function.blocks["body"]
        fresh = function.new_variable("patch")
        src = body.body[0].defs()[0]
        body.body.insert(1, Copy(fresh, src))
        log.copy_inserted("body", fresh, src)
        live.apply_edits(log)
        assert_rows_match_cold(live, function)

    def test_manual_edge_split(self):
        function = diamond_function()
        live = IncrementalBitLiveness(function)
        log = EditLog()
        new_block = function.split_edge("entry", "left")
        log.block_split("entry", "left", new_block.label)
        live.apply_edits(log)
        assert_rows_match_cold(live, function)

    def test_manual_rename(self):
        function = loop_function()
        live = IncrementalBitLiveness(function)
        old = next(var for var in function.variables() if var.name == "s2")
        new = function.new_variable("renamed")
        mapping = {old: new}
        log = EditLog()
        for label, block in function.blocks.items():
            changed = False
            for instruction in block.instructions():
                if old in instruction.uses() or old in instruction.defs():
                    instruction.replace_uses(mapping)
                    instruction.replace_defs(mapping)
                    changed = True
            if changed:
                log.block_rewritten(label, [old, new])
        log.variables_renamed(mapping)
        live.apply_edits(log)
        assert_rows_match_cold(live, function)
        # The old name is gone from every row.
        for label in function.blocks:
            assert old not in set(live.live_in_variables(label))
            assert old not in set(live.live_out_variables(label))

    def test_isolation_edit_log_patch(self):
        for functions in build_suite(scale=0.3, benchmarks=["164.gzip"]).values():
            for function in functions:
                live = IncrementalBitLiveness(function)
                insertion = insert_phi_copies(function)
                delta = live.apply_edits(insertion.edit_log())
                assert delta.edits == len(insertion.edit_log().edits) or delta.edits > 0
                assert_rows_match_cold(live, function)

    def test_views_share_one_universe_after_edits(self):
        """Patched and untouched rows alike must track the grown universe
        (BitSet equality and footprint accounting are universe-sensitive)."""
        function = loop_function()
        live = IncrementalBitLiveness(function)
        log = EditLog()
        body = function.blocks["body"]
        fresh = function.new_variable("patch")
        src = body.body[0].defs()[0]
        body.body.insert(1, Copy(fresh, src))
        log.copy_inserted("body", fresh, src)
        live.apply_edits(log)
        universes = {row.universe for row in live.live_in.values()}
        universes |= {row.universe for row in live.live_out.values()}
        assert universes == {len(live.numbering)}
        cold = BitLivenessSets(function)
        assert live.footprint_bytes() == cold.footprint_bytes()

    def test_derived_queries_refresh_after_edits(self):
        function = loop_function()
        live = IncrementalBitLiveness(function)
        log = EditLog()
        body = function.blocks["body"]
        fresh = function.new_variable("patch")
        src = body.body[0].defs()[0]
        body.body.append(Copy(fresh, src))
        log.copy_inserted("body", fresh, src)
        live.apply_edits(log)
        # The new copy's definition point is visible without a manual refresh.
        assert live.definition_of(fresh) is not None
        assert live.definition_of(fresh).block == "body"


# --------------------------------------------------------------------------- pipeline wiring
class TestPipelineWiring:
    def test_engine_output_identical_to_bitsets(self):
        suite = build_suite(scale=0.3, benchmarks=["176.gcc"])
        from repro.ir.printer import format_function

        bitset_engine = EngineConfig.builder("us_i").liveness("bitsets").build()
        for functions in suite.values():
            for function in functions:
                a, b = function.copy(), function.copy()
                Pipeline.for_engine(INCREMENTAL).run(a)
                Pipeline.for_engine(bitset_engine).run(b)
                assert format_function(a) == format_function(b)

    def test_warm_cache_is_patched_not_recomputed(self):
        function = build_suite(scale=0.3, benchmarks=["164.gzip"])["164.gzip"][0]
        cache = AnalysisCache(function, INCREMENTAL)
        live = cache.get(IncrementalBitLiveness)
        Pipeline.for_engine(INCREMENTAL).run(function, cache=cache)
        # Same instance, still cached, exactly one construction; patched by
        # both the isolation and the materialization pass.
        assert cache.cached(IncrementalBitLiveness) is live
        assert cache.constructions[IncrementalBitLiveness] == 1
        assert cache.constructions[VariableNumbering] == 1
        assert live.resolve_count == 2
        # The patched rows describe the *materialized* function.
        assert_rows_match_cold(live, function)

    def test_builder_and_engine_name_accept_incremental(self):
        config = EngineConfig.builder("us_iii").liveness("incremental").build()
        assert config.liveness == "incremental"
        with pytest.raises(ValueError):
            EngineConfig.builder().liveness("nonsense")
        # Unmodified engines are untouched by the new backend.
        assert engine_by_name("us_i").liveness == "bitsets"


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
        numbering = cache.get(VariableNumbering)
        function.split_edge("entry", "left")
        cache.preserve(VariableNumbering)
        assert cache.get(VariableNumbering) is numbering

    def test_invalidate_clears_the_stamp(self):
        function = diamond_function()
        cache = AnalysisCache(function)
        cache.get(BitLivenessSets)
        function.split_edge("entry", "left")
        cache.invalidate(BitLivenessSets, VariableNumbering)
        # A rebuild at the current generation serves cleanly.
        rebuilt = cache.get(BitLivenessSets)
        assert rebuilt is cache.get(BitLivenessSets)

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


# --------------------------------------------------------------------------- incremental interference wiring
class TestIncrementalInterferenceWiring:
    def test_incremental_backend_cached_and_patched_through_materialization(self):
        from repro.interference.graph import IncrementalMatrixInterference, MatrixInterference
        from repro.liveness.intersection import IntersectionOracle

        config = (
            EngineConfig.builder("us_i")
            .liveness("incremental")
            .interference("incremental")
            .build()
        )
        function = build_suite(scale=0.3, benchmarks=["164.gzip"])["164.gzip"][0]
        cache = AnalysisCache(function, config)
        Pipeline.for_engine(config).run(function, cache=cache)
        backend = cache.cached(IncrementalMatrixInterference)
        assert backend is not None
        assert cache.constructions[IncrementalMatrixInterference] == 1
        assert cache.constructions[VariableNumbering] == 1
        assert backend.resolve_count == 1     # patched by materialization
        # The patched matrix describes the *materialized* function: a cold
        # rebuild over the same universe ordering is bit-identical.
        cold = MatrixInterference(
            function,
            IntersectionOracle(function, BitLivenessSets(function)),
            backend.kind,
            backend.values,
            universe=backend.graph.variables(),
        )
        assert backend.graph.row_bits() == cold.graph.row_bits()

    def test_all_engines_bit_identical_under_incremental_backend(self):
        from repro.ir.printer import format_function

        suite = build_suite(scale=0.3, benchmarks=["181.mcf"])
        for base in ("us_i", "us_iii", "sreedhar_iii"):
            config = engine_by_name(base)
            derived = EngineConfig.builder(config).interference("incremental").build()
            for functions in suite.values():
                for function in functions:
                    a, b = function.copy(), function.copy()
                    Pipeline.for_engine(config).run(a)
                    Pipeline.for_engine(derived).run(b)
                    assert format_function(a) == format_function(b)
