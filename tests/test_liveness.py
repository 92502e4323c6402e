"""Tests for liveness analyses and live-range intersection."""

import pytest

from repro.bench.corpus import CorpusSpec, generate_stress_cfg
from repro.cfg.dominance import DominatorTree
from repro.cfg.traversal import reverse_postorder
from repro.ir.editlog import EditLog
from repro.ir.instructions import Variable
from repro.ir.positions import terminator_index
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle, live_ranges_intersect
from repro.liveness.livecheck import LivenessChecker
from repro.gallery import figure1_branch_use, figure3_swap_problem, figure4_lost_copy_problem
from repro.ssa.construction import construct_ssa
from tests.helpers import diamond_function, generated_programs, loop_function


def v(name: str) -> Variable:
    return Variable(name)


def irreducible_ssa_function():
    """A small stress-corpus function in SSA form with a multi-entry loop."""
    spec = CorpusSpec(seed=3, blocks=60, loop_depth=3, variables=5, irreducible=0.5)
    function = construct_ssa(generate_stress_cfg(spec))
    # A retreating edge whose target does not dominate its source enters a
    # loop somewhere other than its header.
    position = {label: index for index, label in enumerate(reverse_postorder(function))}
    domtree = DominatorTree(function)
    assert any(
        position[target] <= position[source] and not domtree.dominates(target, source)
        for source in position
        for target in function.successors(source)
    ), "expected an irreducible (multi-entry) loop"
    return function


class TestLivenessSets:
    def test_loop_liveness(self):
        function = loop_function()
        liveness = LivenessSets(function)
        # φ-results are not live-in of their own block.
        assert not liveness.is_live_in("header", v("i1"))
        # φ-arguments are live-out of the predecessor they flow from.
        assert liveness.is_live_out("entry", v("i0"))
        assert liveness.is_live_out("body", v("i2"))
        # The loop-carried sum is live out of the header into the exit.
        assert liveness.is_live_in("exit", v("s1"))
        assert liveness.is_live_out("header", v("s1"))
        # The parameter is live throughout the loop.
        assert liveness.is_live_in("header", v("n"))
        assert liveness.is_live_out("body", v("n"))
        # Nothing is live out of the exit block.
        assert not any(liveness.is_live_out("exit", var) for var in function.variables())

    def test_branch_condition_live_at_exit_copy_point(self):
        """Figure 1: the branch's use keeps ``u`` live past the copy point."""
        function = figure1_branch_use()
        liveness = LivenessSets(function)
        block = function.blocks["B2"]
        from repro.ir.positions import exit_pcopy_index

        assert liveness.is_live_after("B2", exit_pcopy_index(block), v("u"))
        assert not liveness.is_live_after("B2", terminator_index(block), v("u"))

    def test_is_live_after_respects_later_definition(self):
        function = loop_function()
        liveness = LivenessSets(function)
        # s2 is defined in 'body' at index 2; before that point it is not live.
        assert not liveness.is_live_after("body", 0, v("s2"))
        assert liveness.is_live_after("body", 2, v("s2"))

    def test_footprints(self):
        function = loop_function()
        liveness = LivenessSets(function)
        assert liveness.footprint_bytes() > 0
        assert liveness.evaluated_bitset_footprint(32) == 4 * len(function.blocks) * 2
        assert liveness.evaluated_ordered_footprint() == liveness.footprint_bytes()


class TestBitLivenessSets:
    @pytest.mark.parametrize("maker", [loop_function, diamond_function,
                                       figure1_branch_use, figure3_swap_problem,
                                       figure4_lost_copy_problem])
    def test_matches_ordered_sets(self, maker):
        function = maker()
        sets = LivenessSets(function)
        bits = BitLivenessSets(function)
        for block in function.blocks:
            for var in function.variables():
                assert sets.is_live_in(block, var) == bits.is_live_in(block, var), (block, var)
                assert sets.is_live_out(block, var) == bits.is_live_out(block, var), (block, var)

    def test_loop_liveness_semantics(self):
        function = loop_function()
        liveness = BitLivenessSets(function)
        # φ-results are not live-in of their own block.
        assert not liveness.is_live_in("header", v("i1"))
        # φ-arguments are live-out of the predecessor they flow from.
        assert liveness.is_live_out("entry", v("i0"))
        assert liveness.is_live_out("body", v("i2"))
        assert liveness.is_live_in("header", v("n"))
        assert not any(liveness.is_live_out("exit", var) for var in function.variables())

    def test_unknown_variable_is_not_live(self):
        function = loop_function()
        liveness = BitLivenessSets(function)
        assert not liveness.is_live_in("header", v("nosuchvar"))
        assert not liveness.is_live_out("header", v("nosuchvar"))

    def test_row_decoding(self):
        function = loop_function()
        sets = LivenessSets(function)
        bits = BitLivenessSets(function)
        for block in function.blocks:
            assert set(bits.live_in_variables(block)) == set(sets.live_in[block])
            assert set(bits.live_out_variables(block)) == set(sets.live_out[block])

    def test_measured_footprint_realises_the_bitset_formula(self):
        function = loop_function()
        liveness = BitLivenessSets(function)
        universe = len(liveness.numbering)
        blocks = len(function.blocks)
        assert liveness.footprint_bytes() == ((universe + 7) // 8) * blocks * 2
        assert liveness.evaluated_bitset_footprint(universe) == liveness.footprint_bytes()


class TestVariableNumbering:
    def test_stable_dense_indices(self):
        from repro.liveness.numbering import VariableNumbering

        numbering = VariableNumbering([v("a"), v("b"), v("a")])
        assert len(numbering) == 2
        assert numbering.index_of(v("a")) == 0
        assert numbering.ensure(v("c")) == 2          # append-only growth
        assert numbering.ensure(v("b")) == 1          # idempotent
        assert numbering.get(v("zz")) is None
        assert numbering.variable(2) == v("c")
        assert list(numbering) == [v("a"), v("b"), v("c")]

    def test_of_function_covers_all_variables(self):
        from repro.liveness.numbering import VariableNumbering

        function = loop_function()
        numbering = VariableNumbering.of_function(function)
        for var in function.variables():
            assert var in numbering


class TestLivenessChecker:
    @pytest.mark.parametrize("maker", [loop_function, diamond_function,
                                       figure1_branch_use, figure3_swap_problem,
                                       figure4_lost_copy_problem])
    def test_matches_dataflow_sets(self, maker):
        function = maker()
        sets = LivenessSets(function)
        checker = LivenessChecker(function)
        for block in function.blocks:
            for var in function.variables():
                assert sets.is_live_in(block, var) == checker.is_live_in(block, var), (block, var)
                assert sets.is_live_out(block, var) == checker.is_live_out(block, var), (block, var)

    def test_matches_dataflow_on_generated_programs(self):
        for function in generated_programs(count=4, size=30):
            sets = LivenessSets(function)
            checker = LivenessChecker(function)
            for block in function.blocks:
                for var in function.variables():
                    assert sets.is_live_in(block, var) == checker.is_live_in(block, var)
                    assert sets.is_live_out(block, var) == checker.is_live_out(block, var)

    @pytest.mark.parametrize("maker", [loop_function, irreducible_ssa_function])
    def test_matches_dataflow_sets_after_block_splits(self, maker):
        """Warm walk caches patched through ``BLOCK_SPLIT`` edits answer like
        a cold ``LivenessSets`` of the split function."""
        function = maker()
        checker = LivenessChecker(function)
        for block in function.blocks:
            for var in function.variables():
                checker.is_live_in(block, var)
                checker.is_live_out(block, var)
        log = EditLog()
        joins = [label for label in function.blocks if len(function.predecessors(label)) > 1]
        for target in joins:
            for source in list(function.predecessors(target)):
                log.block_split(source, target, function.split_edge(source, target).label)
        assert len(log.new_blocks) >= 2
        checker.apply_edits(log)
        sets = LivenessSets(function)
        for block in function.blocks:
            for var in function.variables():
                assert sets.is_live_in(block, var) == checker.is_live_in(block, var), (block, var)
                assert sets.is_live_out(block, var) == checker.is_live_out(block, var), (block, var)

    def test_cfg_only_footprint(self):
        function = loop_function()
        checker = LivenessChecker(function)
        blocks = len(function.blocks)
        assert checker.footprint_bytes() == ((blocks + 7) // 8) * blocks * 2


class TestIntersection:
    def test_lost_copy_interferences(self):
        function = figure4_lost_copy_problem()
        liveness = LivenessSets(function)
        oracle = IntersectionOracle(function, liveness)
        assert oracle.intersect(v("x2"), v("x3"))       # the copy that must remain
        assert not oracle.intersect(v("x1"), v("x3"))
        assert oracle.intersect(v("x2"), v("x2"))

    def test_swap_interferences(self):
        function = figure3_swap_problem()
        liveness = LivenessSets(function)
        oracle = IntersectionOracle(function, liveness)
        assert oracle.intersect(v("a"), v("b"))
        assert oracle.intersect(v("a0"), v("b0"))

    def test_undefined_variable_does_not_intersect(self):
        function = loop_function()
        oracle = IntersectionOracle(function, LivenessSets(function))
        assert not oracle.intersect(v("nonexistent"), v("i1"))

    def test_convenience_wrapper(self):
        function = figure4_lost_copy_problem()
        assert live_ranges_intersect(function, v("x2"), v("x3"))

    def test_dominance_order_key_sorts_by_definition(self):
        function = loop_function()
        oracle = IntersectionOracle(function, LivenessSets(function))
        ordered = sorted(
            [v("s2"), v("i0"), v("i1"), v("n")], key=oracle.dominance_order_key
        )
        assert ordered[0] == v("n")          # parameter: defined before everything
        assert ordered[1] == v("i0")
        assert ordered[-1] == v("s2")

    def test_query_counter(self):
        function = loop_function()
        oracle = IntersectionOracle(function, LivenessSets(function))
        oracle.intersect(v("i0"), v("i1"))
        oracle.intersect(v("i1"), v("s1"))
        assert oracle.query_count == 2
