"""Shared helpers for the test-suite: small hand-built programs and checks."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.gallery import (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
from repro.interp import run_function
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function


def diamond_function() -> Function:
    """entry -> (left | right) -> join, one φ at the join."""
    fb = FunctionBuilder("diamond", params=("c",))
    entry, left, right, join = fb.blocks("entry", "left", "right", "join")
    with fb.at(entry):
        fb.branch("c", left, right)
    with fb.at(left):
        a = fb.const(1, name="a")
        fb.jump(join)
    with fb.at(right):
        b = fb.const(2, name="b")
        fb.jump(join)
    with fb.at(join):
        x = fb.phi("x", left=a, right=b)
        fb.print(x)
        fb.ret(x)
    return fb.finish()


def loop_function() -> Function:
    """A simple counted loop summing its index (SSA form)."""
    fb = FunctionBuilder("loop_sum", params=("n",))
    entry, header, body, exit_block = fb.blocks("entry", "header", "body", "exit")
    with fb.at(entry):
        i0 = fb.const(0, name="i0")
        s0 = fb.const(0, name="s0")
        fb.jump(header)
    with fb.at(header):
        i1 = fb.phi("i1", entry=i0, body="i2")
        s1 = fb.phi("s1", entry=s0, body="s2")
        cond = fb.op("cmp_lt", i1, "n", name="cond")
        fb.branch(cond, body, exit_block)
    with fb.at(body):
        s2 = fb.op("add", s1, i1, name="s2")
        i2 = fb.op("add", i1, 1, name="i2")
        fb.jump(header)
    with fb.at(exit_block):
        fb.print(s1)
        fb.ret(s1)
    return fb.finish()


def straight_line_copies() -> Function:
    """The paper's §III-A example: b = a; c = a; with all three live after."""
    fb = FunctionBuilder("copies", params=("p",))
    entry = fb.block("entry")
    with fb.at(entry):
        a = fb.op("add", "p", 1, name="a")
        fb.copy("b", a)
        fb.copy("c", a)
        fb.print(a)
        fb.print("b")
        fb.print("c")
        fb.ret("c")
    return fb.finish()


def non_ssa_max_function() -> Function:
    """A non-SSA function (multiple assignments to ``m``) for SSA construction."""
    fb = FunctionBuilder("maximum", params=("a", "b"))
    entry, bigger, done = fb.blocks("entry", "bigger", "done")
    with fb.at(entry):
        m = fb.copy("m", "a")
        cond = fb.op("cmp_lt", "a", "b", name="cond")
        fb.branch(cond, bigger, done)
    with fb.at(bigger):
        fb.copy("m", "b")
        fb.jump(done)
    with fb.at(done):
        fb.print("m")
        fb.ret("m")
    return fb.finish()


GALLERY_PROGRAMS: List[Tuple[str, object, Tuple[int, ...]]] = [
    ("figure1_taken", figure1_branch_use, (1,)),
    ("figure1_not_taken", figure1_branch_use, (0,)),
    ("figure2", figure2_branch_with_decrement, (4,)),
    ("swap", figure3_swap_problem, (5, 11, 22)),
    ("lost_copy", figure4_lost_copy_problem, (6,)),
]


def generated_programs(count: int = 6, size: int = 35, abi_every: int = 3):
    """A deterministic batch of generated SSA programs for integration tests."""
    programs = []
    for seed in range(count):
        config = GeneratorConfig(
            seed=seed + 100,
            name=f"gen{seed}",
            size=size,
            apply_abi=(abi_every and seed % abi_every == 0),
        )
        programs.append(generate_ssa_program(config))
    return programs


def variable_occurrences(function: Function) -> List:
    """Every variable mention: parameters, pins, then each instruction's
    defs and uses (φ arguments and parallel-copy pairs included)."""
    occurrences = list(function.params) + list(function.pinned)
    for instruction in function.instructions():
        occurrences += instruction.defs() + instruction.uses()
    return occurrences


def observable(function: Function, args: Sequence[int]):
    """Interpret ``function`` and return its observable behaviour."""
    return run_function(function, args).observable()


def assert_same_behaviour(before: Function, after: Function, arg_sets) -> None:
    """Both functions must have identical observable behaviour on every arg set."""
    for args in arg_sets:
        expected = observable(before, args)
        actual = observable(after, args)
        assert actual == expected, (
            f"behaviour diverged on args {args}: expected {expected}, got {actual}"
        )
