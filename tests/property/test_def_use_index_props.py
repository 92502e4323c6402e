"""Property tests: :class:`~repro.ir.positions.DefUseIndex` is the one-walk
equal of the separate per-fact walks it replaces in the analysis cache.

On φ-carrying generator programs, the paper's gallery figures and the
(non-SSA, multiply-defining) stress corpus — before and after Method I
φ-copy insertion, the shape the engines analyse — the index must give:

* ``variables`` equal to :meth:`Function.variables`, order included;
* ``def_points`` equal to :func:`definition_points` (points and the defining
  instruction they carry);
* ``use_points`` equal to :func:`use_points` as ``(block, index)`` pairs, in
  the same order;
* ``last_use`` equal to the latest use index per ``(variable, block)``;
* ``multiply_defined`` equal to the variables with several definitions.

The stress corpus is checked raw, then SSA-constructed, then isolated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.gallery import (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
from repro.ir.instructions import Variable
from repro.ir.parser import parse_function
from repro.ir.positions import DefUseIndex, definition_points, use_points
from repro.outofssa.method_i import insert_phi_copies
from repro.ssa.construction import construct_ssa

GALLERY = (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)


def assert_index_matches_walks(function):
    index = DefUseIndex(function)

    assert index.variables == function.variables()

    reference_defs = definition_points(function)
    assert list(index.def_points) == list(reference_defs)
    for var, point in reference_defs.items():
        mine = index.def_points[var]
        assert (mine.block, mine.index) == (point.block, point.index), var
        assert mine.instruction is point.instruction, var

    reference_uses = {
        var: [(point.block, point.index) for point in points]
        for var, points in use_points(function).items()
    }
    assert index.use_points == reference_uses
    assert list(index.use_points) == list(reference_uses)

    last_use = {}
    for var, points in reference_uses.items():
        for block, position in points:
            last_use[(var, block)] = max(position, last_use.get((var, block), -1))
    assert index.last_use == last_use

    counts = {}
    for instruction in function.instructions():
        for var in instruction.defs():
            counts[var] = counts.get(var, 0) + 1
    assert index.multiply_defined == {var for var, count in counts.items() if count > 1}


def assert_before_and_after_isolation(function):
    assert_index_matches_walks(function)
    insert_phi_copies(function)
    assert_index_matches_walks(function)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=5, max_value=60),
)
def test_index_matches_walks_on_generator_programs(seed, size):
    assert_before_and_after_isolation(generate_ssa_program(GeneratorConfig(seed=seed, size=size)))


def test_index_matches_walks_on_gallery():
    for make in GALLERY:
        assert_before_and_after_isolation(make())


def test_index_matches_walks_on_a_redefined_phi_result():
    # A hardware-loop counter kept in φ form: the φ and the brdec both
    # define ``c``.
    function = parse_function(
        """
        function countdown(n) {
          entry:
            jump loop
          loop:
            c = phi [entry: n, loop: c]
            brdec c, loop, done
          done:
            ret c
        }
        """
    )
    assert DefUseIndex(function).multiply_defined == {Variable("c")}
    assert_before_and_after_isolation(function)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=8, max_value=150),
    irreducible=st.sampled_from([0.0, 0.15]),
)
def test_index_matches_walks_on_stress_corpus(seed, blocks, irreducible):
    function = generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=blocks, irreducible=irreducible)
    )
    # The corpus is not in SSA form: variables are defined many times over.
    assert_index_matches_walks(function)
    construct_ssa(function)
    assert_before_and_after_isolation(function)
