"""Property tests: the bit-set liveness backend is *exactly* the reference one.

``BitLivenessSets`` (variable numbering + bit rows + reverse-postorder
worklist) must answer every block-level liveness query identically to the
round-robin ordered-set oracle ``LivenessSets``, on arbitrary CFGs from the
workload generator — both on raw SSA functions and after Method I φ-copy
insertion (the shape the engines actually analyse) — and on the non-SSA
stress corpus.  The solve runs over a :class:`~repro.ir.flat.FlatFunction`
arena: one passed in is used while current and replaced by a private
lowering once the function has moved past it.

SSA construction prunes its φs with a private block-level live-in solve;
it is checked against ``LivenessSets`` directly and through whole
constructions, with the reference patched in.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.bench.suite import build_suite
from repro.ir.flat import FlatFunction
from repro.ir.instructions import Branch, Constant, Op, Return
from repro.ir.parser import parse_function
from repro.ir.positions import DefUseIndex
from repro.ir.printer import format_function
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.outofssa.method_i import insert_phi_copies
from repro.ssa import construction


def assert_same_liveness(function, bits=None):
    reference = LivenessSets(function)
    if bits is None:
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
        branch_back_to_entry(function)
    return function


def branch_back_to_entry(function):
    """Turn the return into a branch back to the entry (on the returned
    value) and a new exit block: a CFG edit that adds no variable."""
    tail = next(block for block in function if isinstance(block.terminator, Return))
    value = tail.terminator.value
    exit_block = function.add_block("exit")
    exit_block.set_terminator(Return(value))
    tail.set_terminator(Branch(value, function.entry_label, exit_block.label))
    function.invalidate_cfg()


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
    with mock.patch.object(
        construction, "_BlockLiveIn", side_effect=CurrentLivenessSets
    ) as oracle:
        construction.construct_ssa(reference)
    assert oracle.called  # the reference really answered the pruning queries
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
def test_construction_live_in_matches_reference_before_ssa(
    seed, blocks, irreducible, loop_to_entry, prologue
):
    """The block-level solve construction prunes with answers every live-in
    query as ``LivenessSets`` does, irreducible regions included."""
    function = stress_function(seed, blocks, irreducible, loop_to_entry)
    if prologue:
        insert_zero_init_prologue(function)
    reference = LivenessSets(function)
    live_in = construction._BlockLiveIn(function)
    variables = function.variables()
    for label in function.blocks:
        for var in variables:
            assert live_in.is_live_in(label, var) == reference.is_live_in(label, var), (
                f"live-in mismatch for {var} at {label} in {function.name}"
            )


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


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=10, max_value=120),
    irreducible=st.sampled_from([0.0, 0.05, 0.15]),
    batch_seed=st.integers(min_value=0, max_value=2**16),
)
def test_bitset_liveness_over_a_shared_or_stale_arena(seed, blocks, irreducible, batch_seed):
    """A current arena is solved over as given; once an edit batch moved the
    function past it, the solve lowers a fresh one instead of reading the
    stale tables."""
    function = stress_function(seed, blocks, irreducible)
    flat = FlatFunction(function)
    shared = BitLivenessSets(function, flat=flat, index=flat.index)
    assert shared.flat is flat
    assert_same_liveness(function, shared)

    random_edit_batch(function, seed=batch_seed)
    assert flat.generation != function.generation
    relowered = BitLivenessSets(function, flat=flat)
    assert relowered.flat is not flat
    assert relowered.flat.generation == function.generation
    assert_same_liveness(function, relowered)


@pytest.mark.parametrize("seed", [3, 17])
def test_bitset_liveness_relowers_an_arena_of_an_older_generation(seed):
    """The index still matches after an edit that adds no variable; the
    generation stamp alone tells the solve the arena's rows are stale."""
    function = stress_function(seed, 40, 0.05)
    flat = FlatFunction(function)
    branch_back_to_entry(function)
    assert DefUseIndex(function).variables == flat.index.variables
    relowered = BitLivenessSets(function, flat=flat, index=flat.index)
    assert relowered.flat is not flat
    assert relowered.flat.index is flat.index
    assert relowered.flat.generation == function.generation
    assert_same_liveness(function, relowered)


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
