"""Seeded-fault harness: proof that the verifier has teeth.

Each :class:`SeededFault` deliberately corrupts one invariant of a running
translation — dropping an isolation copy, merging interfering congruence
classes, reordering a sequentialized copy group — by injecting a mutator
pass at a chosen point of the pipeline.  The tests assert two things:

* every fault is *detected*: its expected diagnostic code appears in the
  checked run's report;
* the clean pipeline is *quiet*: with no fault injected, the same programs
  translate with zero diagnostics across every engine × backend.

The mutators operate below the IR's structural-edit API on purpose (raw
``dict``/``list`` mutation, no ``invalidate_cfg``): they simulate exactly the
silent drift — a pass forgetting to log an edit, a class merge skipping its
interference check — that the verifier exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, List, Optional

from repro.gallery import (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
from repro.ir.function import Function
from repro.ir.instructions import Constant, ParallelCopy, Phi
from repro.outofssa.config import DEFAULT_ENGINE, EngineConfig
from repro.pipeline.passes import PRESERVES_ALL, Pass
from repro.pipeline.phases import out_of_ssa_passes
from repro.pipeline.pipeline import Pipeline, resolve_engine
from repro.verify.diagnostics import VerifyReport


class FaultPass(Pass):
    """A pipeline pass that runs an arbitrary mutator over the context.

    Declares ``PRESERVES_ALL`` so no analysis is invalidated: the corruption
    must *survive* into the next verification checkpoint, exactly like a real
    pass that mutated state without declaring it.
    """

    name = "fault"
    preserves = PRESERVES_ALL

    def __init__(self, mutate: Callable) -> None:
        self._mutate = mutate

    def run(self, ctx) -> None:
        self._mutate(ctx)


@dataclass(frozen=True)
class SeededFault:
    """One deliberate corruption and the diagnostic expected to catch it."""

    name: str
    #: Diagnostic code that must appear in the checked run's report.
    expected_code: str
    #: Name of the pipeline pass the mutator is injected *after*.
    stage: str
    #: The corruption itself (receives the PipelineContext).
    mutate: Callable
    #: Builds the program to translate.
    program: Callable[[], Function] = figure3_swap_problem
    #: Engine to run under (some faults need a specific backend).
    engine: Optional[EngineConfig] = None

    def run(self) -> VerifyReport:
        """Translate :attr:`program` with the fault injected; return the report."""
        config = replace(
            resolve_engine(self.engine if self.engine is not None else DEFAULT_ENGINE),
            verify_level="full",
        )
        passes: List[Pass] = []
        for pass_ in out_of_ssa_passes():
            passes.append(pass_)
            if pass_.name == self.stage:
                passes.append(FaultPass(self.mutate))
        if len(passes) == 4:
            raise ValueError(f"unknown fault stage {self.stage!r}")
        result = Pipeline(passes, config=config).run(self.program())
        assert result.verify_report is not None
        return result.verify_report


def run_clean(program: Function, engine, level: str = "full") -> VerifyReport:
    """Translate ``program`` fault-free at ``level``; return the report."""
    config = replace(resolve_engine(engine), verify_level=level)
    result = Pipeline.for_engine(config).run(program)
    assert result.verify_report is not None
    return result.verify_report


# --------------------------------------------------------------------------- mutators
def _break_phi_coverage(ctx) -> None:
    """Drop one φ argument, leaving the predecessor uncovered (V107)."""
    for block in ctx.function:
        for phi in block.phis:
            label = next(iter(phi.args))
            del phi.args[label]
            return
    raise AssertionError("program has no phi-functions")


def _drop_isolation_copy(ctx) -> None:
    """Remove an isolation copy, leaving its dst used but undefined (V202)."""
    for block in ctx.function:
        pcopy = block.exit_pcopy
        if pcopy is not None and pcopy.pairs:
            del pcopy.pairs[0]
            return
    raise AssertionError("program has no exit parallel copies")


def _cross_wire_phi_webs(ctx) -> None:
    """Point one φ at another φ's destination, uniting interfering webs (V301)."""
    phis = [phi for block in ctx.function for phi in block.phis]
    if len(phis) < 2:
        raise AssertionError("program needs two phi-functions in one block")
    first, second = phis[0], phis[1]
    label = next(iter(first.args))
    first.args[label] = second.dst


def _merge_interfering_classes(ctx) -> None:
    """Force-merge two classes with interfering members (V401)."""
    test = ctx.test
    classes = ctx.classes
    for a, b in combinations(list(ctx.universe), 2):
        if classes.same_class(a, b):
            continue
        if not test.interferes(a, b):
            continue
        if test._is_copy_between(a, b) or test._is_copy_between(b, a):
            continue
        classes.merge(classes.class_of(a), classes.class_of(b))
        return
    raise AssertionError("no interfering pair of distinct classes found")


def _corrupt_class_mask(ctx) -> None:
    """Flip a bit of a class's merged adjacency row (V402)."""
    classes = ctx.classes
    for cls in classes.classes():
        if classes._row_masks(cls) is not None:
            cls.adj_mask = (cls.adj_mask or 0) ^ 1
            return
    raise AssertionError("no class with computed matrix rows")


def _corrupt_partition(ctx) -> None:
    """Let one variable appear in two classes (V403)."""
    classes = ctx.classes
    all_classes = classes.classes()
    if len(all_classes) < 2:
        raise AssertionError("program needs at least two congruence classes")
    first, second = all_classes[0], all_classes[1]
    second.members.append(first.members[0])


def _leave_phi(ctx) -> None:
    """Sneak a φ-function back into the translated output (V501)."""
    function = ctx.function
    function.refresh_cfg_cache()
    for block in function:
        preds = function.predecessors(block.label)
        if preds:
            phi = Phi(function.new_variable("ghost"))
            for pred in preds:
                phi.set_arg(pred, Constant(0))
            block.phis.append(phi)
            return
    raise AssertionError("function has no block with predecessors")


def _leave_pcopy(ctx) -> None:
    """Sneak a parallel copy back into the translated output (V502)."""
    function = ctx.function
    block = function.blocks[function.entry_label]
    block.exit_pcopy = ParallelCopy([(function.new_variable("ghost"), Constant(0))])


def _reorder_sequentialized_copies(ctx) -> None:
    """Reverse one sequentialized copy group in place (V503)."""
    records = ctx.lowered_pcopies or []
    for label, _pairs, copies in records:
        if len(copies) < 2:
            continue
        block = ctx.function.blocks[label]
        wanted = {id(copy) for copy in copies}
        positions = [i for i, ins in enumerate(block.body) if id(ins) in wanted]
        if len(positions) != len(copies):
            continue
        in_body = [block.body[i] for i in positions]
        for position, copy in zip(positions, reversed(in_body)):
            block.body[position] = copy
        return
    raise AssertionError("no sequentialized copy group with two copies")


def _drop_sequentialized_copy(ctx) -> None:
    """Delete one copy of a sequentialized group (V503 count mismatch)."""
    records = ctx.lowered_pcopies or []
    for label, _pairs, copies in records:
        if not copies:
            continue
        block = ctx.function.blocks[label]
        for i, ins in enumerate(block.body):
            if ins is copies[0]:
                del block.body[i]
                return
    raise AssertionError("no sequentialized copies recorded")


def _swap_branch_targets(ctx) -> None:
    """Invert a conditional branch in the translated output (V504)."""
    from repro.ir.instructions import Branch

    for block in ctx.function:
        terminator = block.terminator
        if isinstance(terminator, Branch) and terminator.if_true != terminator.if_false:
            terminator.if_true, terminator.if_false = (
                terminator.if_false,
                terminator.if_true,
            )
            return
    raise AssertionError("function has no conditional branch")


# --------------------------------------------------------------------------- catalogue
#: The full fault catalogue the tests sweep.
SEEDED_FAULTS: List[SeededFault] = [
    SeededFault(
        name="break_phi_coverage", expected_code="V107", stage="isolate",
        mutate=_break_phi_coverage,
    ),
    SeededFault(
        name="drop_isolation_copy", expected_code="V202", stage="isolate",
        mutate=_drop_isolation_copy,
    ),
    SeededFault(
        name="cross_wire_phi_webs", expected_code="V301", stage="isolate",
        mutate=_cross_wire_phi_webs,
    ),
    SeededFault(
        name="merge_interfering_classes", expected_code="V401", stage="coalesce",
        mutate=_merge_interfering_classes,
    ),
    SeededFault(
        name="corrupt_class_mask", expected_code="V402", stage="coalesce",
        mutate=_corrupt_class_mask, engine=EngineConfig.builder("us_i").build(),
    ),
    SeededFault(
        name="corrupt_partition", expected_code="V403", stage="coalesce",
        mutate=_corrupt_partition,
    ),
    SeededFault(
        name="leave_phi", expected_code="V501", stage="materialize",
        mutate=_leave_phi,
    ),
    SeededFault(
        name="leave_pcopy", expected_code="V502", stage="materialize",
        mutate=_leave_pcopy,
    ),
    SeededFault(
        name="reorder_sequentialized_copies", expected_code="V503", stage="materialize",
        mutate=_reorder_sequentialized_copies,
    ),
    SeededFault(
        name="drop_sequentialized_copy", expected_code="V503", stage="materialize",
        mutate=_drop_sequentialized_copy,
    ),
    SeededFault(
        name="swap_branch_targets", expected_code="V504", stage="materialize",
        mutate=_swap_branch_targets, program=figure1_branch_use,
    ),
]

#: Programs the clean sweep translates (the paper's gallery).
CLEAN_PROGRAMS = (
    figure1_branch_use,
    figure2_branch_with_decrement,
    figure3_swap_problem,
    figure4_lost_copy_problem,
)
