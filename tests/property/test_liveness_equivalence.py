"""Property tests: the bit-set liveness backend is *exactly* the reference one.

``BitLivenessSets`` (variable numbering + bit rows + reverse-postorder
worklist) must answer every block-level liveness query identically to the
round-robin ordered-set oracle ``LivenessSets``, on arbitrary CFGs from the
workload generator — both on raw SSA functions and after Method I φ-copy
insertion (the shape the engines actually analyse) — and on the non-SSA
stress corpus, the input SSA construction prunes its φs with.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.bench.suite import build_suite
from repro.ir.instructions import Branch, Constant, Op, Return
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.outofssa.method_i import insert_phi_copies
from repro.ssa import construction


def assert_same_liveness(function):
    reference = LivenessSets(function)
    bits = BitLivenessSets(function)
    variables = function.variables()
    for label in function.blocks:
        for var in variables:
            assert bits.is_live_in(label, var) == reference.is_live_in(label, var), (
                f"live-in mismatch for {var} at {label} in {function.name}"
            )
            assert bits.is_live_out(label, var) == reference.is_live_out(label, var), (
                f"live-out mismatch for {var} at {label} in {function.name}"
            )
        # The decoded rows carry exactly the live variables, no extras.
        assert set(bits.live_in_variables(label)) == {
            var for var in variables if reference.is_live_in(label, var)
        }
        assert set(bits.live_out_variables(label)) == {
            var for var in variables if reference.is_live_out(label, var)
        }


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=60),
    after_phi_copies=st.booleans(),
)
def test_bitset_liveness_matches_reference_on_random_cfgs(seed, size, after_phi_copies):
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    if after_phi_copies:
        insert_phi_copies(function)
    assert_same_liveness(function)


@pytest.mark.bench
def test_bitset_liveness_matches_reference_on_generator_suite():
    """Exact agreement over the full synthetic benchmark suite."""
    suite = build_suite(scale=0.3)
    checked = 0
    for functions in suite.values():
        for function in functions:
            assert_same_liveness(function)
            copy = function.copy()
            insert_phi_copies(copy)
            assert_same_liveness(copy)
            checked += 1
    assert checked > 0


# --------------------------------------------------------------------------- SSA construction
def stress_function(seed, blocks, irreducible, loop_to_entry=False):
    """A non-SSA stress-corpus function; ``loop_to_entry`` turns its return
    into a branch back to the entry, so the entry block has a predecessor."""
    function = generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=blocks, loop_depth=3, variables=6, irreducible=irreducible)
    )
    if loop_to_entry:
        tail = next(block for block in function if isinstance(block.terminator, Return))
        value = tail.terminator.value
        exit_block = function.add_block("exit")
        exit_block.set_terminator(Return(value))
        tail.set_terminator(Branch(value, function.entry_label, exit_block.label))
        function.invalidate_cfg()
    return function


def insert_zero_init_prologue(function):
    """What ``construct_ssa`` does first: ``v = const 0`` at the top of the
    entry for every variable live-in there."""
    reference = LivenessSets(function)
    for var in function.variables():
        if reference.is_live_in(function.entry_label, var):
            function.entry.body.insert(0, Op(var, "const", [Constant(0)]))
    function.invalidate_cfg()


class CurrentLivenessSets:
    """Reference oracle for ``construct_ssa``: ``LivenessSets`` of the function
    as it stands at each query, recomputed whenever the entry block grew (the
    only edit SSA construction makes before it queries liveness)."""

    def __init__(self, function):
        self.function = function
        self._entry_size = None

    def is_live_in(self, label, var):
        if len(self.function.entry.body) != self._entry_size:
            self._entry_size = len(self.function.entry.body)
            self._sets = LivenessSets(self.function)
        return self._sets.is_live_in(label, var)


def assert_same_construction(function):
    reference = function.copy()
    with mock.patch.object(construction, "BitLivenessSets", CurrentLivenessSets):
        construction.construct_ssa(reference)
    construction.construct_ssa(function)
    assert format_function(function) == format_function(reference)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=10, max_value=120),
    irreducible=st.sampled_from([0.0, 0.05, 0.15]),
    loop_to_entry=st.booleans(),
    prologue=st.booleans(),
)
def test_bitset_liveness_matches_reference_before_ssa(
    seed, blocks, irreducible, loop_to_entry, prologue
):
    function = stress_function(seed, blocks, irreducible, loop_to_entry)
    if prologue:
        insert_zero_init_prologue(function)
    assert_same_liveness(function)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=10, max_value=120),
    irreducible=st.sampled_from([0.0, 0.05, 0.15]),
    loop_to_entry=st.booleans(),
)
def test_construct_ssa_matches_reference_liveness(seed, blocks, irreducible, loop_to_entry):
    assert_same_construction(stress_function(seed, blocks, irreducible, loop_to_entry))


def test_construct_ssa_rebuilds_liveness_when_the_entry_has_predecessors():
    """``x`` is read before written in the entry, which ``join`` branches back
    to: its zero-init kills the liveness that would put a φ for ``x`` at
    ``join``, so construction must re-solve after inserting it."""
    function = parse_function(
        """function entry_loop(c) {
  entry:
    t = add x, 1
    br c, left, right
  left:
    x = add t, 1
    jump join
  right:
    jump join
  join:
    c = sub c, 1
    br c, entry, exit
  exit:
    ret t
}"""
    )
    assert function.predecessors(function.entry_label) == ["join"]
    assert_same_construction(function)
    assert not function.blocks["join"].phis
