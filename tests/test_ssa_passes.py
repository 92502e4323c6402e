"""Tests for SSA construction, copy folding, value numbering and cleanups."""

import ast
from pathlib import Path

import pytest

from repro.interp import run_function
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Copy, Op, Variable
from repro.ir.validate import validate_ssa
from repro.ssa.cleanup import remove_dead_code, remove_trivial_phis
from repro.ssa.construction import construct_ssa
from repro.ssa.copy_folding import fold_copies, value_number
from repro.ssa.cssa import is_conventional
from tests.helpers import assert_same_behaviour, non_ssa_max_function


def count_copies(function):
    return sum(1 for block in function for instr in block.body if isinstance(instr, Copy))


class TestConstructSSA:
    def test_max_function(self):
        original = non_ssa_max_function()
        function = non_ssa_max_function()
        construct_ssa(function)
        validate_ssa(function)
        # A φ is needed at the join block for m.
        assert function.blocks["done"].phis
        assert_same_behaviour(original, function, [(3, 7), (9, 2), (5, 5)])

    def test_loop_accumulator(self):
        fb = FunctionBuilder("acc", params=("n",))
        entry, header, body, done = fb.blocks("entry", "header", "body", "done")
        with fb.at(entry):
            fb.copy("s", 0)
            fb.copy("i", 0)
            fb.jump(header)
        with fb.at(header):
            c = fb.op("cmp_lt", "i", "n", name="c")
            fb.branch(c, body, done)
        with fb.at(body):
            fb.op("add", "s", "i", name="s")
            fb.op("add", "i", 1, name="i")
            fb.jump(header)
        with fb.at(done):
            fb.print("s")
            fb.ret("s")
        original = fb.finish()

        function = original.copy()
        construct_ssa(function)
        validate_ssa(function)
        # φs for i and s at the loop header.
        assert len(function.blocks["header"].phis) == 2
        assert_same_behaviour(original, function, [(0,), (1,), (5,)])

    def test_freshly_constructed_ssa_is_conventional(self):
        function = non_ssa_max_function()
        construct_ssa(function)
        assert is_conventional(function)

    def test_rejects_existing_phis(self):
        from tests.helpers import loop_function

        with pytest.raises(ValueError):
            construct_ssa(loop_function())

    def test_variable_live_on_one_path_only(self):
        fb = FunctionBuilder("partial", params=("c",))
        entry, then, join = fb.blocks("entry", "then", "join")
        with fb.at(entry):
            fb.copy("x", 1)
            fb.branch("c", then, join)
        with fb.at(then):
            fb.copy("x", 2)
            fb.jump(join)
        with fb.at(join):
            fb.print("x")
            fb.ret("x")
        original = fb.finish()
        function = original.copy()
        construct_ssa(function)
        validate_ssa(function)
        assert_same_behaviour(original, function, [(0,), (1,)])


class TestCopyFolding:
    def test_folds_and_preserves_semantics(self):
        fb = FunctionBuilder("fold", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            a = fb.op("add", "p", 2, name="a")
            fb.copy("b", a)
            fb.copy("c", "b")
            r = fb.op("mul", "c", "b", name="r")
            fb.print(r)
            fb.ret(r)
        original = fb.finish()
        function = original.copy()
        removed = fold_copies(function)
        assert removed == 2
        assert count_copies(function) == 0
        assert_same_behaviour(original, function, [(1,), (4,)])

    def test_predicate_can_keep_copies(self):
        fb = FunctionBuilder("keep", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            a = fb.op("add", "p", 2, name="a")
            fb.copy("b", a)
            fb.print("b")
            fb.ret("b")
        function = fb.finish()
        removed = fold_copies(function, should_fold=lambda copy: False)
        assert removed == 0
        assert count_copies(function) == 1

    def test_does_not_fold_volatile_counters(self):
        from repro.gallery import figure2_branch_with_decrement

        function = figure2_branch_with_decrement()
        fold_copies(function)
        # The counter initialisation copy u = n must survive.
        assert any(
            isinstance(instr, Copy) and instr.dst == Variable("u")
            for instr in function.blocks["entry"].body
        )

    def test_phi_arguments_rewritten(self):
        original = non_ssa_max_function()
        function = non_ssa_max_function()
        construct_ssa(function)
        fold_copies(function)
        validate_ssa(function)
        assert count_copies(function) == 0
        assert_same_behaviour(original, function, [(3, 7), (9, 2)])


class TestValueNumbering:
    def test_removes_redundant_computation(self):
        fb = FunctionBuilder("vn", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            x = fb.op("add", "p", 1, name="x")
            y = fb.op("add", "p", 1, name="y")
            z = fb.op("add", 1, "p", name="z")     # commutative duplicate
            r = fb.op("add", x, y, name="r")
            r2 = fb.op("add", r, z, name="r2")
            fb.print(r2)
            fb.ret(r2)
        original = fb.finish()
        function = original.copy()
        removed = value_number(function)
        assert removed == 2
        assert_same_behaviour(original, function, [(0,), (3,)])

    def test_respects_dominance(self):
        fb = FunctionBuilder("vn2", params=("c", "p"))
        entry, left, right, join = fb.blocks("entry", "left", "right", "join")
        with fb.at(entry):
            fb.branch("c", left, right)
        with fb.at(left):
            l = fb.op("add", "p", 1, name="l")
            fb.print(l)
            fb.jump(join)
        with fb.at(right):
            r = fb.op("add", "p", 1, name="r")
            fb.print(r)
            fb.jump(join)
        with fb.at(join):
            j = fb.op("add", "p", 1, name="j")
            fb.print(j)
            fb.ret(j)
        original = fb.finish()
        function = original.copy()
        removed = value_number(function)
        # l and r do not dominate each other: neither may be removed; j is not
        # dominated by either, so it must stay as well.
        assert removed == 0
        assert_same_behaviour(original, function, [(0, 4), (1, 4)])

    def test_skips_calls_and_volatile(self):
        fb = FunctionBuilder("vn3", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            a = fb.call("get", "p", name="a")
            b = fb.call("get", "p", name="b")
            r = fb.op("add", a, b, name="r")
            fb.ret(r)
        function = fb.finish()
        assert value_number(function) == 0


class TestCleanup:
    def test_remove_dead_code(self):
        fb = FunctionBuilder("dead", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            fb.op("add", "p", 1, name="unused")
            fb.copy("alive", "p")
            fb.print("alive")
            fb.ret("alive")
        function = fb.finish()
        removed = remove_dead_code(function)
        assert removed == 1
        assert all(instr.defs() != [Variable("unused")] for instr in function.blocks["entry"].body)

    def test_remove_dead_code_is_transitive(self):
        fb = FunctionBuilder("dead2", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            a = fb.op("add", "p", 1, name="a")
            fb.op("add", a, 1, name="b")     # b dead, then a becomes dead
            fb.ret("p")
        function = fb.finish()
        assert remove_dead_code(function) == 2

    def test_calls_and_prints_are_kept(self):
        fb = FunctionBuilder("effects", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            fb.call("effectful", "p")
            fb.print("p")
            fb.ret()
        function = fb.finish()
        assert remove_dead_code(function) == 0

    def test_remove_trivial_phis(self):
        fb = FunctionBuilder("trivial", params=("c",))
        entry, a, b, join = fb.blocks("entry", "a", "b", "join")
        with fb.at(entry):
            x = fb.const(7, name="x")
            fb.branch("c", a, b)
        with fb.at(a):
            fb.jump(join)
        with fb.at(b):
            fb.jump(join)
        with fb.at(join):
            fb.phi("y", a=x, b=x)
            fb.print("y")
            fb.ret("y")
        original = fb.finish()
        function = original.copy()
        removed = remove_trivial_phis(function)
        assert removed == 1
        assert not function.blocks["join"].phis
        assert_same_behaviour(original, function, [(0,), (1,)])


def _self_recursive_functions(path):
    """``name:line`` of each function in ``path`` that calls itself by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if (isinstance(callee, ast.Name) and callee.id == node.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == node.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                found.append(f"{path.name}:{node.name}:{node.lineno}")
    return found


def test_no_recursive_walks_over_the_cfg_or_the_dominator_tree():
    """A walk that recurses per block overflows Python's stack on a
    dominator tree a few thousand blocks deep; keep explicit stacks."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    files = sorted((package / "ssa").glob("*.py")) + sorted((package / "cfg").glob("*.py"))
    assert files
    assert [name for path in files for name in _self_recursive_functions(path)] == []
