"""Unit tests for blocks, functions, the builder and program positions."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.ir.instructions import Copy, Jump, Op, ParallelCopy, Phi, Variable
from repro.ir.positions import (
    ENTRY_PCOPY_INDEX,
    PHI_INDEX,
    ProgramPoint,
    block_schedule,
    definition_points,
    edge_index,
    exit_pcopy_index,
    terminator_index,
    use_points,
)
from tests.helpers import diamond_function, loop_function


class TestBasicBlock:
    def test_append_rejects_phis_and_terminators(self):
        fb = FunctionBuilder("f")
        block = fb.block("entry")
        with pytest.raises(TypeError):
            block.append(Phi(Variable("x")))
        with pytest.raises(TypeError):
            block.append(Jump("entry"))

    def test_pcopy_slots(self):
        fb = FunctionBuilder("f")
        block = fb.block("entry")
        assert block.get_entry_pcopy() is None
        entry_copy = block.get_entry_pcopy(create=True)
        exit_copy = block.get_exit_pcopy(create=True)
        assert block.get_entry_pcopy() is entry_copy
        assert block.get_exit_pcopy() is exit_copy
        block.drop_empty_pcopies()
        assert block.get_entry_pcopy() is None and block.get_exit_pcopy() is None

    def test_instruction_order(self):
        function = diamond_function()
        join = function.blocks["join"]
        join.get_entry_pcopy(create=True).add(Variable("t"), Variable("x"))
        kinds = [type(instr).__name__ for instr in join.instructions()]
        assert kinds[0] == "Phi"
        assert kinds[1] == "ParallelCopy"
        assert kinds[-1] == "Return"


class TestFunction:
    def test_duplicate_block_label_rejected(self):
        function = Function("f")
        function.add_block("entry")
        with pytest.raises(ValueError):
            function.add_block("entry")

    def test_predecessors_and_edges(self):
        function = diamond_function()
        assert set(function.predecessors("join")) == {"left", "right"}
        assert function.successors("entry") == ["left", "right"]
        assert ("entry", "left") in function.edges()

    def test_unknown_branch_target_raises(self):
        fb = FunctionBuilder("f")
        entry = fb.block("entry")
        with fb.at(entry):
            fb.jump("missing")
        with pytest.raises(KeyError):
            fb.finish().predecessors("entry")

    def test_variables_are_ordered_and_complete(self):
        function = loop_function()
        names = [v.name for v in function.variables()]
        assert names[0] == "n"  # parameter first
        assert {"i0", "i1", "i2", "s0", "s1", "s2", "cond"} <= set(names)

    def test_new_variable_is_fresh(self):
        function = loop_function()
        new = function.new_variable("i1")
        assert new.name not in {v.name for v in loop_function().variables()}
        another = function.new_variable("i1")
        assert another != new

    def test_new_label_is_fresh(self):
        function = diamond_function()
        label = function.new_label("join")
        assert label not in function.blocks

    def test_copy_is_deep_and_equivalent(self):
        function = loop_function()
        clone = function.copy()
        assert clone is not function
        from repro.ir.printer import format_function

        assert format_function(clone) == format_function(function)
        # Mutating the clone does not affect the original.
        clone.blocks["body"].body.clear()
        assert len(function.blocks["body"].body) == 2

    def test_split_edge_rewrites_phis(self):
        function = diamond_function()
        new_block = function.split_edge("left", "join")
        phi = function.blocks["join"].phis[0]
        assert new_block.label in phi.args
        assert "left" not in phi.args
        assert function.successors("left") == [new_block.label]
        assert function.successors(new_block.label) == ["join"]

    def test_pinning(self):
        function = diamond_function()
        var = Variable("a")
        function.pin(var, "R0")
        assert function.pinned[var] == "R0"


class TestBuilder:
    def test_requires_current_block(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        with pytest.raises(RuntimeError):
            fb.const(1)

    def test_builder_produces_valid_function(self):
        from repro.ir.validate import validate_function

        validate_function(diamond_function())
        validate_function(loop_function())


class TestPositions:
    def test_block_schedule_indices(self):
        function = diamond_function()
        join = function.blocks["join"]
        schedule = block_schedule(join)
        indices = [index for index, _ in schedule]
        assert indices[0] == PHI_INDEX
        assert indices[-1] == terminator_index(join)
        assert exit_pcopy_index(join) < terminator_index(join) < edge_index(join)
        assert ENTRY_PCOPY_INDEX == 1

    def test_definition_points_include_params(self):
        function = loop_function()
        points = definition_points(function)
        param = function.params[0]
        assert points[param].block == "entry" and points[param].index == -1
        assert points[Variable("i1")].index == PHI_INDEX

    def test_phi_uses_attributed_to_predecessor_edges(self):
        function = loop_function()
        uses = use_points(function)
        i2_uses = uses[Variable("i2")]
        assert any(
            point.block == "body" and point.index == edge_index(function.blocks["body"])
            for point in i2_uses
        )

    def test_point_dominance_within_block(self):
        from repro.cfg.dominance import DominatorTree

        function = loop_function()
        domtree = DominatorTree(function)
        early = ProgramPoint("header", 0)
        late = ProgramPoint("header", 3)
        assert early.dominates(late, domtree)
        assert not late.strictly_before(early, domtree)
        other = ProgramPoint("body", 2)
        assert early.dominates(other, domtree)
        assert not other.dominates(early, domtree)


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
