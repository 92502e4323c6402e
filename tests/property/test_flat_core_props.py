"""Property tests for the flat arena IR core (``--core flat``).

Three claims are checked over randomized inputs:

1. *Lowering round-trip* — every table of a :class:`FlatFunction` decodes
   back to exactly the object graph it was lowered from: CFG edges (order
   included), per-instruction def/use rows, the liveness transfer masks and
   φ-edge masks (diffed against ``BitLivenessSets`` over the same
   numbering) — on the stress corpus, the φ-carrying generator programs,
   and the paper's gallery figures.
2. *EditLog patching* — after an arbitrary sequence of materialization-shaped
   edit batches, :meth:`FlatFunction.apply_edits` leaves the arena
   table-for-table equal to a fresh lowering of the edited function over the
   same numbering (the edit-log seam contract).
3. *Cross-core bit-identity* — the full out-of-SSA pipeline produces the
   same output IR text and the same stats counters (timing and
   representation-provenance fields excepted) under ``core="flat"`` and
   ``core="objects"``, for every engine configuration, on pristine and on
   randomly edited functions — and a ``verify_level="full"`` flat-core run
   stays diagnostic-free.
"""

from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.bench.harness import _CORE_TIMING_FIELDS
from repro.gallery import (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
from repro.ir.flat import FlatFunction
from repro.ir.instructions import Copy, ParallelCopy, Variable
from repro.ir.printer import format_function
from repro.liveness.bitsets import BitLivenessSets
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
    # solver computes over the same numbering.
    bits = BitLivenessSets(function, numbering=numbering)
    for label in function.blocks:
        assert flat.block_masks(label) == bits._masks[label], label
    assert flat.phi_edge == bits._phi_edge
    return flat


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


def translate(function, engine, core):
    result = Pipeline.for_engine(replace(engine, core=core)).run(function)
    stats = asdict(result.stats)
    for name in _CORE_TIMING_FIELDS:
        stats.pop(name, None)
    return format_function(result.function), stats


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=50),
)
def test_cores_bit_identical_across_all_engines(seed, size):
    """Output IR text and stats counters agree between the cores, for every
    engine configuration (all liveness and interference backends)."""
    prototype = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    for engine in ENGINE_CONFIGURATIONS:
        assert translate(prototype.copy(), engine, "objects") == translate(
            prototype.copy(), engine, "flat"
        ), engine.name


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=8, max_value=100),
    batches=st.integers(min_value=1, max_value=3),
)
def test_cores_bit_identical_after_random_edit_batches(seed, blocks, batches):
    """Cross-core identity survives arbitrary pre-translation edit batches —
    the edited CFG shapes (spliced blocks, rewired edges, fresh variables)
    exercise lowerings no pristine corpus function produces."""
    engine = next(e for e in ENGINE_CONFIGURATIONS if e.name == "us_i")
    prototype = generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=blocks, loop_depth=4, variables=6)
    )
    for batch in range(batches):
        random_edit_batch(prototype, seed=seed ^ (batch + 1))
    assert translate(prototype.copy(), engine, "objects") == translate(
        prototype.copy(), engine, "flat"
    )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=40),
)
def test_flat_core_full_verification_stays_clean(seed, size):
    """A ``verify_level="full"`` flat-core translation raises no diagnostics:
    every stage checker (φ-isolation, liveness, interference, coalescing,
    materialization, sequentialization) passes over the arena-backed run."""
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    engine = replace(ENGINE_CONFIGURATIONS[0], core="flat", verify_level="full")
    result = Pipeline.for_engine(engine).run(function)
    assert result.stats.verify_diagnostics == 0, result.verify_report
    assert result.stats.verify_errors == 0


def test_flat_core_full_verification_clean_on_gallery():
    for make in GALLERY:
        engine = replace(ENGINE_CONFIGURATIONS[0], core="flat", verify_level="full")
        result = Pipeline.for_engine(engine).run(make())
        assert result.stats.verify_diagnostics == 0, result.verify_report
