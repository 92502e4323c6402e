"""Tests for the pass pipeline, the analysis cache and the batch session."""

import dataclasses
import sys
from unittest import mock

import pytest

from repro.bench.corpus import CorpusSpec, generate_stress_cfg
from repro.cfg.dominance import DominatorTree
from repro.cfg.frequency import estimate_block_frequencies
from repro.coalescing.engine import AggressiveCoalescer, collect_affinities
from repro.coalescing.sharing import apply_copy_sharing
from repro.coalescing.variants import variant_by_name
from repro.gallery import figure2_branch_with_decrement
from repro.interference.base import QueryInterference
from repro.interference.congruence import CongruenceClasses
from repro.interference.graph import InterferenceGraph, MatrixInterference
from repro.interp import run_function
from repro.ir import format_function
from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.ir.instructions import Return
from repro.ir.parser import parse_function
from repro.ir.positions import DefUseIndex
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.liveness.livecheck import LivenessChecker
from repro.outofssa.config import DEFAULT_ENGINE, ENGINE_CONFIGURATIONS, EngineConfig, engine_by_name
from repro.outofssa.driver import destruct_ssa
from repro.outofssa.method_i import insert_phi_copies
from repro.outofssa.pinning import pinned_register_groups
from repro.outofssa.result import OutOfSSAStats
from repro.pipeline import (
    AnalysisCache,
    BlockFrequencies,
    ConstructSSAPass,
    FoldCopiesPass,
    IsolationPass,
    PassManager,
    Pipeline,
    PipelineContext,
    RemoveDeadCodePass,
    Session,
    ValueNumberPass,
    resolve_engine,
)
from repro.pipeline.analysis import StaleAnalysisError
from repro.pipeline.phases import (
    build_rename_map,
    candidate_universe,
    materialize,
    out_of_ssa_passes,
)
from repro.ssa.values import ValueTable
from repro.utils.instrument import AllocationTracker, track_allocations
from tests.helpers import diamond_function, generated_programs, loop_function, non_ssa_max_function


# --------------------------------------------------------------------------- legacy reference
def legacy_destruct_ssa(function, config):
    """The seed's monolithic driver, re-inlined as the equivalence reference.

    Private analyses per run, each structure built by hand — exactly what
    ``destruct_ssa`` did before the pipeline split.  The pipeline must
    reproduce its output and statistics bit-for-bit.
    """
    stats = OutOfSSAStats()
    variant = variant_by_name(config.coalescing)
    tracker = AllocationTracker()

    with track_allocations(tracker):
        insertion = insert_phi_copies(function, on_branch_def=config.on_branch_def)
        stats.inserted_phi_copies = insertion.inserted_copy_count
        stats.split_blocks = len(insertion.split_blocks)

        frequencies = estimate_block_frequencies(function)

        domtree = DominatorTree(function)
        liveness = {
            "sets": LivenessSets,
            "bitsets": BitLivenessSets,
            "check": LivenessChecker,
        }[config.liveness](function)
        oracle = IntersectionOracle(function, liveness, domtree)
        values = ValueTable(function, domtree)

        affinities = collect_affinities(function, insertion, frequencies)
        stats.affinities = len(affinities)

        universe = candidate_universe(function, insertion, affinities)
        stats.candidate_variables = len(universe)
        stats.num_blocks = len(function.blocks)
        if isinstance(liveness, (LivenessSets, BitLivenessSets)):
            stats.liveness_set_entries = sum(
                len(s) for s in liveness.live_in.values()
            ) + sum(len(s) for s in liveness.live_out.values())

        # Direct (cache-free) construction of the configured backend — what an
        # ad-hoc driver writes by hand since the interference stack became
        # pluggable; the pipeline must reproduce it bit-for-bit.
        if config.interference == "matrix":
            test = MatrixInterference(
                function, oracle, variant.interference, values, universe=universe
            )
        else:
            test = QueryInterference(function, oracle, variant.interference, values)
        stats.interference_backend = config.interference

        classes = CongruenceClasses(test, use_linear_check=config.linear_class_check)
        for members in insertion.phi_nodes:
            classes.make_class(members)
        for register, group in pinned_register_groups(function).items():
            classes.make_class(list(group), register=register)

        coalescer = AggressiveCoalescer(
            classes, skip_copy_pair=variant.skip_copy_pair, ordering=variant.ordering
        )
        run_stats = coalescer.run(affinities)
        stats.coalesced = run_stats.coalesced
        if variant.sharing:
            stats.shared = apply_copy_sharing(classes, test, run_stats.remaining_affinities)

        rename_map = build_rename_map(classes)
        shared_destinations = {
            affinity.dst for affinity in run_stats.remaining_affinities if affinity.shared
        }
        materialize(function, rename_map, shared_destinations, frequencies, stats)

        stats.pair_queries = classes.pair_queries
        stats.class_row_checks = classes.class_row_checks
        stats.intersection_queries = oracle.query_count
        stats.matrix_bytes = test.matrix_bytes()

    return stats, rename_map


_STAT_FIELDS = [
    field.name
    for field in dataclasses.fields(OutOfSSAStats)
    # Wall-clock measurements vary run to run, and the arena fields describe
    # *how* the run was represented, not what it computed: neither is part
    # of identity.
    if field.name not in ("elapsed_seconds", "lowering_ms", "flat_bytes")
]


def _stat_dict(stats):
    return {name: getattr(stats, name) for name in _STAT_FIELDS}


class TestPipelineMatchesLegacy:
    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_bit_identical_output_on_generator_suite(self, config):
        for program in generated_programs(count=4, size=32):
            legacy_fn = program.copy()
            legacy_stats, legacy_rename = legacy_destruct_ssa(legacy_fn, config)

            pipeline_fn = program.copy()
            result = Pipeline.for_engine(config).run(pipeline_fn)

            assert format_function(pipeline_fn) == format_function(legacy_fn)
            assert result.rename_map == legacy_rename
            assert _stat_dict(result.stats) == _stat_dict(legacy_stats)

    def test_destruct_ssa_is_the_pipeline(self):
        program = loop_function()
        via_wrapper = program.copy()
        via_pipeline = program.copy()
        wrapper_result = destruct_ssa(via_wrapper, engine_by_name("us_iii"))
        pipeline_result = Pipeline.for_engine("us_iii").run(via_pipeline)
        assert format_function(via_wrapper) == format_function(via_pipeline)
        assert _stat_dict(wrapper_result.stats) == _stat_dict(pipeline_result.stats)


class TestOneNumbering:
    """The cache's :class:`DefUseIndex` is the one variable numbering of a
    translation: the liveness oracle, the intersection oracle's tables, the
    flat arena, the matrix scan and the congruence classes all resolve a
    variable to its index id."""

    #: Engines that enable both bit-set liveness and the interference graph.
    GRAPH_AND_BITSET_ENGINES = [
        config
        for config in ENGINE_CONFIGURATIONS
        if config.liveness == "bitsets" and config.interference == "matrix"
    ]

    def test_the_paper_engines_include_graph_and_bitset_configs(self):
        names = {config.name for config in self.GRAPH_AND_BITSET_ENGINES}
        assert names == {"sreedhar_iii", "us_iii", "us_i"}

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_every_layer_resolves_a_variable_to_its_index_id(self, config):
        for function in [figure2_branch_with_decrement(), loop_function()]:
            cache = AnalysisCache(function, config)
            ctx = PipelineContext(
                function=function,
                config=config,
                analyses=cache,
                stats=OutOfSSAStats(),
                tracker=AllocationTracker(),
                variant=variant_by_name(config.coalescing),
            )
            # Stop before materialization, which rewrites the function.
            PassManager(out_of_ssa_passes()[:3]).run(ctx)
            index = cache.get(DefUseIndex)
            assert cache.constructions[DefUseIndex] == 1
            assert cache.liveness().index is index
            assert ctx.test.oracle.index is index
            assert ctx.classes.index is index
            ids = index.ids
            for cls in ctx.classes.classes():
                for ident, var in zip(cls.ids, cls.members):
                    assert ids[var] == ident
            for var in ctx.universe:
                assert ctx.classes._slots[ids[var]] == (
                    -1 if ctx.test.slot(var) is None else ctx.test.slot(var)
                )
            flat = cache.cached(FlatFunction)
            # The arena backs the bit-set liveness solve and the matrix scan.
            assert (flat is not None) == (
                config.liveness == "bitsets" or config.interference == "matrix"
            )
            if flat is None:
                continue
            assert flat.index is index
            for label, block in function.blocks.items():
                rows = flat.instruction_rows(label)
                instructions = list(block.phis) + list(block.instructions(include_phis=False))
                assert [row[0] for row in rows] == [
                    tuple(ids[var] for var in instruction.defs())
                    for instruction in instructions
                ]

    def test_graph_membership_is_the_universe(self):
        """Universe-restricted graphs must answer 'not in graph' for function
        variables outside the universe, so the pairwise fallback still runs
        for them."""
        variables = loop_function().variables()
        member, outsider = variables[0], variables[-1]
        graph = InterferenceGraph([member])
        assert member in graph
        assert outsider not in graph
        assert graph.variables() == [member]
        assert len(graph) == 1

    def test_restricted_universe_keeps_the_matrix_small(self):
        """The matrix stays at candidates²/2 bits even though the arena it
        scans numbers every function variable (paper §IV's restricted
        universe)."""
        function = loop_function()
        oracle = IntersectionOracle(function, BitLivenessSets(function))
        high_id_candidates = oracle.index.variables[-2:]
        backend = MatrixInterference(
            function, oracle, variant_by_name("intersect").interference,
            universe=high_id_candidates,
        )
        assert backend.matrix_bytes() == InterferenceGraph(high_id_candidates).footprint_bytes()


class TestPinsOutsideTheCode:
    """A pin may name a variable no instruction mentions: a typo'd or
    stale ``pin`` line, or a pinned definition the optimizer deleted.  The
    index numbers it after the mentioned variables, so it still joins its
    register's congruence class; having no definition, it sorts first there
    and becomes the class's representative."""

    DIAMOND = """
function f(a, b) {{
{pins}
  entry:
    {entry}br a, l, r
  l:
    x1 = add a, b
    jump j
  r:
    x2 = sub a, b
    jump j
  j:
    x3 = phi [l: x1, r: x2]
    ret x3
}}
"""
    CASES = {
        "pin_alone": (
            dict(pins="  pin ghost r0", entry=""),
            False,
            """function f(a, b) {
  pin ghost r0
  entry:
    br a, l, r
  l:
    x2 = add a, b
    jump j
  r:
    x2 = sub a, b
    jump j
  j:
    ret x2
}""",
        ),
        "pin_shares_a_register": (
            dict(pins="  pin ghost r0\n  pin x3 r0", entry=""),
            False,
            """function f(a, b) {
  pin ghost r0
  pin x3 r0
  entry:
    br a, l, r
  l:
    ghost = add a, b
    jump j
  r:
    ghost = sub a, b
    jump j
  j:
    ret ghost
}""",
        ),
        "dead_pinned_definition": (
            dict(pins="  pin d r1", entry="d = mul a, 7\n    "),
            True,
            """function f(a, b) {
  pin d r1
  entry:
    br a, l, r
  l:
    x2 = add a, b
    jump j
  r:
    x2 = sub a, b
    jump j
  j:
    ret x2
}""",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_every_engine_translates_it(self, config, case):
        fields, optimize, expected = self.CASES[case]
        function = parse_function(self.DIAMOND.format(**fields))
        Pipeline.for_engine(config, optimize=optimize).run(function)
        assert format_function(function).strip() == expected
        assert run_function(function, [1, 2]).return_value == 3
        assert run_function(function, [0, 2]).return_value == -2


class TestAnalysisCache:
    def test_get_caches_and_counts_constructions(self):
        cache = AnalysisCache(loop_function(), DEFAULT_ENGINE)
        first = cache.get(DominatorTree)
        assert cache.get(DominatorTree) is first
        assert cache.constructions[DominatorTree] == 1

    def test_unknown_analysis_raises_key_error(self):
        cache = AnalysisCache(loop_function(), DEFAULT_ENGINE)
        with pytest.raises(KeyError):
            cache.get(int)

    def test_liveness_selection_follows_config(self):
        function = loop_function()
        assert isinstance(
            AnalysisCache(function, engine_by_name("us_i")).liveness(), BitLivenessSets
        )
        assert isinstance(
            AnalysisCache(function.copy(), DEFAULT_ENGINE).liveness(), LivenessChecker
        )
        bad = dataclasses.replace(DEFAULT_ENGINE, liveness="bogus")
        with pytest.raises(ValueError):
            AnalysisCache(function.copy(), bad).liveness()

    def test_invalidate_drops_dependents_transitively(self):
        cache = AnalysisCache(loop_function(), engine_by_name("us_i"))
        cache.get(IntersectionOracle)   # depends on liveness and the domtree
        cache.get(ValueTable)           # depends on the domtree
        cache.get(BlockFrequencies)     # depends on the domtree
        cache.invalidate(DominatorTree)
        assert cache.cached(DominatorTree) is None
        assert cache.cached(IntersectionOracle) is None
        assert cache.cached(ValueTable) is None
        assert cache.cached(BlockFrequencies) is None
        # The liveness rows do not read the dominator tree: still cached.
        assert cache.cached(BitLivenessSets) is not None

    def test_invalidate_all_preserve(self):
        cache = AnalysisCache(loop_function(), engine_by_name("us_i"))
        domtree = cache.get(DominatorTree)
        cache.get(ValueTable)
        cache.invalidate_all(preserve=(DominatorTree,))
        assert cache.cached(DominatorTree) is domtree
        assert cache.cached(ValueTable) is None

    def test_put_serves_precomputed_instances(self):
        function = loop_function()
        cache = AnalysisCache(function, DEFAULT_ENGINE)
        frequencies = BlockFrequencies({label: 1.0 for label in function.blocks})
        cache.put(BlockFrequencies, frequencies)
        assert cache.get(BlockFrequencies) is frequencies


class TestOneDefUseWalk:
    """Every consumer of def/use positions in a translation reads the cache's
    one :class:`DefUseIndex`; nothing walks ``Function.variables`` again, and
    no layer builds a private index — whoever owns the cache, and on the
    service's re-translation path too."""

    @staticmethod
    def _index_builds(action) -> int:
        built = []
        original = DefUseIndex.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        with mock.patch.object(DefUseIndex, "__init__", counting):
            action()
        return len(built)

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_one_index_per_translation_and_no_variables_walk(self, config):
        programs = [figure2_branch_with_decrement()] + generated_programs(count=2, size=30)
        for function in programs:
            cache = AnalysisCache(function, config)
            walked = mock.patch.object(
                Function, "variables", side_effect=AssertionError("Function.variables walked")
            )
            with walked:
                builds = self._index_builds(
                    lambda: Pipeline.for_engine(config).run(function, cache=cache)
                )
            assert cache.constructions[DefUseIndex] == 1
            assert builds == 1

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_one_index_per_plain_run(self, config):
        for function in [figure2_branch_with_decrement()] + generated_programs(count=2, size=30):
            assert self._index_builds(lambda: Pipeline.for_engine(config).run(function)) == 1

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_one_index_per_retranslation(self, config):
        from repro.bench.corpus import random_edit_batch
        from repro.service import TranslationService

        service = TranslationService(config)
        first = service.translate_function(
            generate_stress_cfg(CorpusSpec(seed=13, blocks=40, variables=6))
        )
        state = service.cache.warm_state(first.digest, first.fingerprint)
        log = random_edit_batch(state.function, seed=5)
        assert self._index_builds(lambda: service.retranslate(first.digest, log, config)) == 1


def stress_input(seed=7, blocks=80):
    """A non-SSA stress-corpus function with loops and an irreducible region."""
    return generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=blocks, loop_depth=3, variables=8, irreducible=0.1)
    )


class TestLeanFrontHalf:
    """The SSA front half reads the pipeline's one dominator tree, builds no
    arena or def/use index for its pruning liveness, charges nothing to the
    allocation tracker, and needs no raised recursion limit."""

    FRONT_HALF = (ConstructSSAPass, ValueNumberPass, FoldCopiesPass, RemoveDeadCodePass)

    @staticmethod
    def _builds(analysis_type, action) -> int:
        built = []
        original = analysis_type.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        with mock.patch.object(analysis_type, "__init__", counting):
            action()
        return len(built)

    def test_front_half_builds_one_dominator_tree(self):
        function = stress_input()
        front = Pipeline([pass_type() for pass_type in self.FRONT_HALF])
        cache = AnalysisCache(function, front.config)
        assert self._builds(DominatorTree, lambda: front.run(function, cache=cache)) == 1
        assert cache.constructions[DominatorTree] == 1

    def test_construct_ssa_builds_no_arena_or_index(self):
        function = stress_input()
        construct = Pipeline([ConstructSSAPass()])
        builds = [
            self._builds(analysis_type, lambda: construct.run(function.copy()))
            for analysis_type in (FlatFunction, DefUseIndex, BitLivenessSets, LivenessSets)
        ]
        assert builds == [0, 0, 0, 0]

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_a_front_half_translation_builds_at_most_two_trees(self, config):
        pipeline = Pipeline.for_engine(config, construct_ssa=True, optimize=True)
        for function in (stress_input(), non_ssa_max_function()):
            assert self._builds(DominatorTree, lambda: pipeline.run(function)) <= 2

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_front_half_charges_nothing_to_the_tracker(self, config):
        """Figure 7 bytes of a front-half run are those of the out-of-SSA
        passes alone, run on a copy of the front half's output."""
        function = stress_input()
        Pipeline([pass_type() for pass_type in self.FRONT_HALF]).run(function)
        alone = Pipeline.for_engine(config).run(function.copy())
        whole = Pipeline.for_engine(config, construct_ssa=True, optimize=True).run(
            stress_input()
        )
        assert whole.tracker.by_category() == alone.tracker.by_category()
        if config.liveness == "check":
            assert "liveness_bitsets" not in whole.tracker.by_category()

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_a_long_chain_translates_at_the_default_recursion_limit(self, config):
        """2500 blocks in a row make a dominator tree 2500 deep; every walk
        over it keeps an explicit stack."""
        function = generate_stress_cfg(
            CorpusSpec(name="chain", blocks=2500, loop_probability=0.0, branch_probability=0.0)
        )
        exit_label = next(b.label for b in function if isinstance(b.terminator, Return))
        assert len(DominatorTree(function).dominators_of(exit_label)) >= 2500
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            Pipeline.for_engine(config, construct_ssa=True, optimize=True).run(function)
        finally:
            sys.setrecursionlimit(limit)
        assert not function.has_phis()


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


class TestInvalidationDuringRuns:
    def _context(self, function, config):
        cache = AnalysisCache(function, config)
        return cache, PipelineContext(
            function=function,
            config=config,
            analyses=cache,
            stats=OutOfSSAStats(),
            tracker=AllocationTracker(),
            variant=variant_by_name(config.coalescing),
        )

    def test_stale_domtree_is_dropped_when_isolation_splits_a_block(self):
        function = figure2_branch_with_decrement()
        cache, ctx = self._context(function, DEFAULT_ENGINE)
        stale = cache.get(DominatorTree)
        PassManager([IsolationPass()]).run(ctx)
        assert ctx.stats.split_blocks > 0
        assert cache.cached(DominatorTree) is None
        fresh = cache.get(DominatorTree)
        assert fresh is not stale
        # The fresh tree covers the blocks created by the split; the stale
        # tree cannot have known them.
        assert set(fresh.idom) == set(function.blocks)
        assert not set(stale.idom) >= set(function.blocks)

    @pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
    def test_full_run_leaves_no_cached_analyses(self, config):
        function = loop_function()
        cache = AnalysisCache(function, config)
        stale = cache.get(DominatorTree)
        Pipeline.for_engine(config).run(function, cache=cache)
        # Materialization rewrote the function: nothing may survive, the
        # liveness checker of the LiveCheck engines included.
        assert [t.__name__ for t in cache.known_types() if t in cache] == []
        fresh = cache.get(DominatorTree)
        assert fresh is not stale
        assert fresh.idom == DominatorTree(function).idom

    def test_run_rejects_a_cache_of_another_function(self):
        cache = AnalysisCache(loop_function(), DEFAULT_ENGINE)
        with pytest.raises(ValueError):
            Pipeline.for_engine(DEFAULT_ENGINE).run(loop_function(), cache=cache)

    def test_run_rejects_a_cache_of_another_engine(self):
        """A mismatched cache would build the cache's liveness backend while
        the result claims this pipeline's engine ran."""
        function = loop_function()
        cache = AnalysisCache(function, DEFAULT_ENGINE)
        with pytest.raises(ValueError, match="engine"):
            Pipeline.for_engine("us_i").run(function, cache=cache)


class TestEngineConfigBuilder:
    def test_noop_builder_returns_the_base(self):
        assert EngineConfig.builder("us_i").build() == engine_by_name("us_i")

    def test_liveness_override_derives_name_and_label(self):
        config = EngineConfig.builder("us_i").liveness("sets").build()
        assert config.liveness == "sets"
        assert config.name == "us_i_sets"
        assert config.label == "Us I [sets]"

    def test_explicit_name_and_label_win(self):
        config = (
            EngineConfig.builder()
            .name("custom").label("Custom")
            .coalescing("intersect").interference("query")
            .build()
        )
        assert (config.name, config.label) == ("custom", "Custom")
        assert config.coalescing == "intersect"
        assert config.interference == "query"

    def test_multiple_overrides_stack_suffixes(self):
        config = (
            EngineConfig.builder("us_i")
            .liveness("check")
            .interference("query")
            .build()
        )
        assert config.name == "us_i_check_intercheck"
        assert config.label == "Us I [check, intercheck]"

    def test_validation(self):
        with pytest.raises(KeyError):
            EngineConfig.builder("bogus")
        with pytest.raises(KeyError):
            EngineConfig.builder().coalescing("bogus")
        with pytest.raises(ValueError):
            EngineConfig.builder().liveness("bogus")
        with pytest.raises(ValueError):
            EngineConfig.builder().on_branch_def("bogus")

    def test_resolve_engine_accepts_all_spellings(self):
        config = engine_by_name("us_iii")
        assert resolve_engine("us_iii") is config
        assert resolve_engine(config) is config
        assert resolve_engine(EngineConfig.builder("us_iii")) == config
        with pytest.raises(TypeError):
            resolve_engine(42)


class TestPipelineComposition:
    def test_out_of_ssa_pass_names(self):
        pipeline = Pipeline.for_engine("us_i")
        assert [p.name for p in pipeline.passes] == [
            "isolate", "interference", "coalesce", "materialize",
        ]
        assert "isolate -> interference -> coalesce -> materialize" in pipeline.describe()

    def test_front_half_flags_prepend_passes(self):
        pipeline = Pipeline.for_engine("us_i", construct_ssa=True, optimize=True, abi=True)
        assert [p.name for p in pipeline.passes] == [
            "construct-ssa", "value-number", "fold-copies", "remove-dead-code",
            "calling-convention",
            "isolate", "interference", "coalesce", "materialize",
        ]

    def test_full_pipeline_preserves_behaviour_from_non_ssa_input(self):
        reference = run_function(non_ssa_max_function(), [3, 9]).observable()
        function = non_ssa_max_function()
        result = Pipeline.for_engine(
            "us_iii", construct_ssa=True, optimize=True, abi=True
        ).run(function)
        assert run_function(function, [3, 9]).observable() == reference
        assert not any(block.phis for block in function)
        assert set(result.pass_seconds) == {
            "construct-ssa", "value-number", "fold-copies", "remove-dead-code",
            "calling-convention",
            "isolate", "interference", "coalesce", "materialize",
        }

    def test_explicit_frequencies_are_honoured(self):
        function = loop_function()
        frequencies = {label: 2.5 for label in function.blocks}
        result = destruct_ssa(function, engine_by_name("us_iii"), frequencies=frequencies)
        if result.stats.remaining_copies:
            assert result.stats.dynamic_copy_cost == pytest.approx(
                2.5 * result.stats.remaining_copies
            )


class TestSession:
    def test_translate_many_matches_per_function_runs(self):
        programs = generated_programs(count=4, size=30)
        config = engine_by_name("us_iii")

        session = Session(config)
        batch = [program.copy() for program in programs]
        results = session.translate_many(batch)

        assert session.functions_translated == len(programs)
        for program, result in zip(programs, results):
            solo = program.copy()
            solo_result = destruct_ssa(solo, config)
            assert format_function(result.function) == format_function(solo)
            assert _stat_dict(result.stats) == _stat_dict(solo_result.stats)
            assert result.tracker.total() == solo_result.tracker.total()

        assert session.total_memory_bytes() == sum(r.tracker.total() for r in results)
        assert session.peak_memory_bytes() == max(r.tracker.peak() for r in results)
        assert session.total_seconds == pytest.approx(
            sum(r.stats.elapsed_seconds for r in results)
        )

    def test_session_accepts_engine_names_and_builders(self):
        assert Session("us_i").config.name == "us_i"
        built = Session(EngineConfig.builder("us_i").liveness("sets")).config
        assert built.liveness == "sets"

    def test_session_with_front_half_translates_non_ssa_input(self):
        reference = run_function(non_ssa_max_function(), [7, 2]).observable()
        session = Session("us_i", construct_ssa=True, optimize=True)
        function = non_ssa_max_function()
        session.translate_many([function])
        assert run_function(function, [7, 2]).observable() == reference
