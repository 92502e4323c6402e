"""Tests for register renaming constraints (pinned variables, §III-D)."""

import pytest

from repro.interp import run_function
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Call, ParallelCopy, Variable
from repro.ir.parser import parse_function
from repro.ir.validate import ValidationError, validate_ssa
from repro.outofssa.config import ENGINE_CONFIGURATIONS
from repro.outofssa.driver import destruct_ssa, engine_by_name
from repro.outofssa.pinning import apply_calling_convention, pinned_register_groups
from repro.pipeline import Pipeline


def call_heavy_function():
    fb = FunctionBuilder("caller", params=("p", "q"))
    entry = fb.block("entry")
    with fb.at(entry):
        a = fb.op("add", "p", 1, name="a")
        r1 = fb.call("helper", a, "q", name="r1")
        r2 = fb.call("helper", r1, a, name="r2")
        total = fb.op("add", r1, r2, name="total")
        fb.print(total)
        fb.ret(total)
    return fb.finish()


class TestCallingConvention:
    def test_copies_inserted_and_pinned(self):
        function = call_heavy_function()
        result = apply_calling_convention(function)
        validate_ssa(function)
        # Two calls with two arguments and a result each.
        assert len(result.copies) == 6
        groups = pinned_register_groups(function)
        assert len(groups["R0"]) == 4      # two arg0 + two results
        assert len(groups["R1"]) == 2
        # Every call argument is now a pinned variable.
        for block in function:
            for instruction in block.body:
                if isinstance(instruction, Call):
                    assert all(arg in function.pinned for arg in instruction.uses())
                    assert instruction.dst in function.pinned

    def test_parallel_copies_surround_calls(self):
        function = call_heavy_function()
        apply_calling_convention(function)
        body = function.blocks["entry"].body
        call_positions = [i for i, instr in enumerate(body) if isinstance(instr, Call)]
        for position in call_positions:
            assert isinstance(body[position - 1], ParallelCopy)
            assert isinstance(body[position + 1], ParallelCopy)

    def test_semantics_preserved(self):
        args = [3, 4]
        expected = run_function(call_heavy_function(), args).observable()
        function = call_heavy_function()
        apply_calling_convention(function)
        assert run_function(function, args).observable() == expected

    def test_extra_arguments_left_unconstrained(self):
        fb = FunctionBuilder("many", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            r = fb.call("f", "p", 1, 2, 3, 4, 5, name="r")
            fb.ret(r)
        function = fb.finish()
        apply_calling_convention(function, argument_registers=("R0", "R1"))
        call = next(i for i in function.blocks["entry"].body if isinstance(i, Call))
        pinned_args = [arg for arg in call.args if arg in function.pinned]
        assert len(pinned_args) == 2


class TestDestructionWithConstraints:
    @pytest.mark.parametrize("engine", ["sreedhar_iii", "us_i", "us_i_linear_intercheck_livecheck"])
    def test_destruction_preserves_semantics(self, engine):
        args = [5, 2]
        expected = run_function(call_heavy_function(), args).observable()
        function = call_heavy_function()
        apply_calling_convention(function)
        destruct_ssa(function, engine_by_name(engine))
        assert run_function(function, args).observable() == expected

    def test_variables_pinned_to_different_registers_never_coalesce(self):
        function = call_heavy_function()
        apply_calling_convention(function)
        result = destruct_ssa(function, engine_by_name("us_i"))
        groups_by_register = {}
        for var, register in function.pinned.items():
            final_name = result.rename_map.get(var, var)
            groups_by_register.setdefault(register, set()).add(final_name)
        names_r0 = groups_by_register.get("R0", set())
        names_r1 = groups_by_register.get("R1", set())
        assert names_r0.isdisjoint(names_r1)

    def test_variables_pinned_to_same_register_share_a_name(self):
        function = call_heavy_function()
        apply_calling_convention(function)
        result = destruct_ssa(function, engine_by_name("us_i"))
        final_r0_names = {
            result.rename_map.get(var, var)
            for var, register in function.pinned.items()
            if register == "R0"
        }
        assert len(final_r0_names) == 1


# One pinned variable, defined once, in a function SSA construction renames.
_PINNED_ONCE = """function g(a, b) {
  pin x r1
  entry:
    y = copy a
    br a, left, join
  left:
    y = add a, b
    jump join
  join:
    x = add y, 1
    ret x
}
"""

# The pinned variable itself is defined twice, so it gets three versions.
_PINNED_TWICE = """function f(a, b) {
  pin x r1
  entry:
    x = copy a
    br a, left, join
  left:
    x = add a, b
    jump join
  join:
    ret x
}
"""


class TestPinsThroughSSAConstruction:
    """SSA construction renames a pinned variable's definitions; its pin must
    follow the one version, or fail with a location, never vanish."""

    @pytest.mark.parametrize("engine", [config.name for config in ENGINE_CONFIGURATIONS])
    def test_pin_moves_to_the_one_version(self, engine):
        expected = {args: run_function(parse_function(_PINNED_ONCE), args).observable()
                    for args in ((0, 4), (3, 4))}
        function = parse_function(_PINNED_ONCE)
        Pipeline.for_engine(engine, construct_ssa=True).run(function)
        [(pinned, register)] = function.pinned.items()
        assert register == "r1" and pinned.name.startswith("x.")
        assert function.blocks["join"].terminator.uses() == [pinned]
        for args, observable in expected.items():
            assert run_function(function, args).observable() == observable

    @pytest.mark.parametrize("engine", [config.name for config in ENGINE_CONFIGURATIONS])
    def test_pin_on_several_versions_is_a_located_error(self, engine):
        function = parse_function(_PINNED_TWICE)
        with pytest.raises(ValidationError, match=r"^f:left: pinned variable 'x' \(register r1\)"):
            Pipeline.for_engine(engine, construct_ssa=True).run(function)
