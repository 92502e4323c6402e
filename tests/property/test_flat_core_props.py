"""Property tests for the flat arena IR (:class:`~repro.ir.flat.FlatFunction`),
the representation the bit-set liveness solve and the matrix edge scan run on.

Three claims are checked over randomized inputs:

1. *Lowering round-trip* — every table of a :class:`FlatFunction` decodes
   back to exactly the object graph it was lowered from: CFG edges (order
   included), per-instruction def/use rows, the liveness transfer masks and
   φ-edge masks (diffed against a decoder over the object graph and the same
   numbering) — on the stress corpus, the φ-carrying generator programs,
   and the paper's gallery figures.
2. *EditLog patching* — after an arbitrary sequence of materialization-shaped
   edit batches, :meth:`FlatFunction.apply_edits` leaves the arena
   table-for-table equal to a fresh lowering of the edited function over the
   same numbering (the edit-log seam contract).
3. *Checked runs stay clean* — a ``verify_level="full"`` translation over the
   arena-backed analyses raises no diagnostics.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.gallery import (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
from repro.ir.flat import FlatFunction
from repro.ir.instructions import Copy, ParallelCopy, Variable
from repro.outofssa.config import ENGINE_CONFIGURATIONS
from repro.pipeline.pipeline import Pipeline

GALLERY = (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)

#: The arena's data tables (everything except the back-reference, the
#: numbering, and the lowering timing).
_TABLES = (
    "labels", "ids", "entry", "decl", "params",
    "succ_off", "succ_ids", "pred_off", "pred_ids",
    "edge_phi", "phi_edge",
    "defs_mask", "upward_mask", "phi_defs_mask",
    "instr_off", "use_masks", "def_off", "def_ids", "def_src",
    "generation", "nbytes",
)


def assert_roundtrip(function):
    flat = FlatFunction(function)
    numbering = flat.numbering
    index = numbering.index_of

    # Block order: RPO prefix, ids are positions, every block present once.
    assert sorted(flat.labels) == sorted(function.blocks)
    assert flat.ids == {label: i for i, label in enumerate(flat.labels)}
    if function.entry_label is not None:
        assert flat.labels[flat.entry] == function.entry_label

    for label in function.blocks:
        # CFG edges, order included (terminator order / declaration order).
        assert flat.successors_of(label) == function.successors(label), label
        assert flat.predecessors_of(label) == function.predecessors(label), label

        # Instruction rows: φ rows first, then the schedule; defs, copy
        # sources and use masks decode to the object instructions.
        block = function.blocks[label]
        rows = flat.instruction_rows(label)
        expected = list(block.phis) + list(block.instructions(include_phis=False))
        assert len(rows) == len(expected), label
        for (def_ids, def_src, use_mask), instruction in zip(rows, expected):
            assert list(def_ids) == [index(var) for var in instruction.defs()]
            in_phis = instruction in block.phis
            mask = 0
            if not in_phis:
                for var in instruction.uses():
                    mask |= 1 << index(var)
            assert use_mask == mask, (label, instruction)
            if isinstance(instruction, ParallelCopy):
                sources = [
                    index(src) if isinstance(src, Variable) else -1
                    for _, src in instruction.pairs
                ]
            elif isinstance(instruction, Copy):
                src = instruction.src
                sources = [index(src) if isinstance(src, Variable) else -1]
            else:
                sources = [-1] * len(instruction.defs())
            assert list(def_src) == sources, (label, instruction)

    # Liveness transfer masks and φ-edge masks: exactly what the object
    # graph yields over the same numbering.
    for label, block in function.blocks.items():
        assert flat.block_masks(label) == _object_block_masks(block, index), label
    assert flat.phi_edge == _object_phi_edge_masks(function, index)
    return flat


def _object_block_masks(block, index):
    """(defs, upward-exposed uses, φ-defs) of a block, read off its objects."""
    defs = 0
    upward = 0
    for instruction in block.instructions(include_phis=False):
        for var in instruction.uses():
            if not defs >> index(var) & 1:
                upward |= 1 << index(var)
        for var in instruction.defs():
            defs |= 1 << index(var)
    phi_defs = 0
    for phi in block.phis:
        phi_defs |= 1 << index(phi.dst)
    return defs | phi_defs, upward & ~phi_defs, phi_defs


def _object_phi_edge_masks(function, index):
    """Mask of the variables φs of ``succ`` read on each ``pred -> succ`` edge."""
    masks = {}
    for label, block in function.blocks.items():
        for phi in block.phis:
            for pred, arg in phi.args.items():
                if isinstance(arg, Variable):
                    key = (pred, label)
                    masks[key] = masks.get(key, 0) | 1 << index(arg)
    return masks


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=8, max_value=150),
    depth=st.integers(min_value=1, max_value=6),
    irreducible=st.sampled_from([0.0, 0.5]),
)
def test_lowering_roundtrip_on_stress_corpus(seed, blocks, depth, irreducible):
    function = generate_stress_cfg(
        CorpusSpec(
            seed=seed, blocks=blocks, loop_depth=depth, variables=6,
            irreducible=irreducible,
        )
    )
    assert_roundtrip(function)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=60),
)
def test_lowering_roundtrip_on_generator_programs(seed, size):
    """φ-carrying SSA programs: the φ-edge tables round-trip too."""
    assert_roundtrip(generate_ssa_program(GeneratorConfig(seed=seed, size=size)))


def test_lowering_roundtrip_on_gallery():
    for make in GALLERY:
        assert_roundtrip(make())


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=8, max_value=120),
    depth=st.integers(min_value=1, max_value=6),
    batches=st.integers(min_value=1, max_value=4),
)
def test_apply_edits_equals_fresh_lowering(seed, blocks, depth, batches):
    """The EditLog seam: a patched arena is table-for-table a fresh lowering."""
    function = generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=blocks, loop_depth=depth, variables=6)
    )
    flat = FlatFunction(function)
    for batch in range(batches):
        log = random_edit_batch(function, seed=seed ^ (batch + 1))
        flat.apply_edits(log)
        fresh = FlatFunction(function, flat.numbering)
        for name in _TABLES:
            assert getattr(flat, name) == getattr(fresh, name), name


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=40),
)
def test_arena_backed_full_verification_stays_clean(seed, size):
    """A ``verify_level="full"`` translation raises no diagnostics: every
    stage checker (φ-isolation, liveness, interference, coalescing,
    materialization, sequentialization) passes over the arena-backed run."""
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    engine = replace(ENGINE_CONFIGURATIONS[0], verify_level="full")
    result = Pipeline.for_engine(engine).run(function)
    assert result.stats.verify_diagnostics == 0, result.verify_report
    assert result.stats.verify_errors == 0


def test_arena_backed_full_verification_clean_on_gallery():
    for make in GALLERY:
        engine = replace(ENGINE_CONFIGURATIONS[0], verify_level="full")
        result = Pipeline.for_engine(engine).run(make())
        assert result.stats.verify_diagnostics == 0, result.verify_report
