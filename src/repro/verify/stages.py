"""The staged pipeline verifier.

:class:`PipelineVerifier` hooks the :class:`~repro.pipeline.pipeline.PassManager`
between phases and runs the :mod:`repro.verify.checks` passes appropriate to
the configured level:

``fast``
    Structural invariants on the input function, plus structure and
    no-φ/pcopy-residue checks on the translated output.  Cheap enough for
    every translation (the stress benchmark bounds its overhead).

``full``
    Everything ``fast`` does, plus strict-SSA on input and after isolation,
    φ-web interference freedom after isolation (CSSA), congruence-class
    consistency after coalescing, the sequentialization permutation check,
    and an interpreter differential of the output against a snapshot of the
    source program.

Checks are keyed on *the pass about to run* (``before_pass``) rather than the
pass that just finished, so anything that mutates the function between two
phases — including the seeded faults of :mod:`repro.verify.faults` — is
visible to the next checkpoint.  The verifier never builds analyses through
the run's :class:`~repro.pipeline.analysis.AnalysisCache` and restores every
instrumentation counter it touches, so a checked run computes bit-identical
translations *and* statistics to an unchecked one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.ir.function import Function
from repro.outofssa.config import VERIFY_LEVELS
from repro.verify import checks
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: Counters restored around checks that issue analysis queries, so checked
#: runs report the same instrumentation numbers as unchecked ones.
_COUNTER_NAMES = ("query_count", "matrix_hits", "pair_queries", "class_row_checks")


@contextmanager
def _frozen_counters(*objects) -> Iterator[None]:
    saved = []
    for obj in objects:
        if obj is None:
            continue
        for name in _COUNTER_NAMES:
            value = getattr(obj, name, None)
            if isinstance(value, int):
                saved.append((obj, name, value))
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


class PipelineVerifier:
    """Runs the stage checkers of one checked pipeline run."""

    def __init__(self, function: Function, level: str) -> None:
        if level not in VERIFY_LEVELS or level == "off":
            raise ValueError(f"verify level must be 'fast' or 'full', got {level!r}")
        self.level = level
        self.report = VerifyReport(function=function.name, level=level)
        # The interpreter differential compares the final output against the
        # program as it entered the pipeline, so snapshot it before any pass
        # mutates it in place.
        self._source: Optional[Function] = (
            function.copy() if level == "full" else None
        )

    # -- internals -------------------------------------------------------------
    def _run_stage(self, stage: str, thunk) -> None:
        start = time.perf_counter()
        try:
            found: List[Diagnostic] = thunk()
        finally:
            self.report.seconds += time.perf_counter() - start
        if stage not in self.report.stages_run:
            self.report.stages_run.append(stage)
        self.report.extend(found)

    # -- hooks -----------------------------------------------------------------
    def before_pass(self, name: str, ctx) -> None:
        """Called by the PassManager before the pass ``name`` runs."""
        if name == "isolate":
            self._check_input(ctx)
        elif name == "coalesce":
            self._check_isolation(ctx)
        elif name == "materialize":
            self._check_coalescing(ctx)
            if self.level == "full" and ctx.lowered_pcopies is None:
                # Ask materialization to record each lowered parallel copy
                # for the sequentialization check.
                ctx.lowered_pcopies = []

    def after_run(self, ctx) -> None:
        """Called by the Pipeline after every pass has run."""
        function = ctx.function
        self._run_stage("output", lambda: checks.check_structure(function, stage="output"))
        self._run_stage("output", lambda: checks.check_no_ssa_residue(function))
        if self.level != "full":
            return
        records = ctx.lowered_pcopies or []
        self._run_stage(
            "output", lambda: checks.check_sequentialization(function, records)
        )
        if self._source is not None:
            source = self._source
            self._run_stage(
                "output", lambda: checks.check_behaviour(source, function)
            )

    # -- per-checkpoint bundles ------------------------------------------------
    def _check_input(self, ctx) -> None:
        function = ctx.function
        self._run_stage("input", lambda: checks.check_structure(function, stage="input"))
        if self.level == "full" and function.has_phis():
            self._run_stage("input", lambda: checks.check_ssa(function, stage="input"))

    def _check_isolation(self, ctx) -> None:
        if self.level != "full":
            return
        function = ctx.function
        self._run_stage(
            "isolate", lambda: checks.check_structure(function, stage="isolate")
        )
        if function.has_phis():
            self._run_stage(
                "isolate", lambda: checks.check_ssa(function, stage="isolate")
            )
        test = ctx.test
        if test is not None:
            def run_cssa() -> List[Diagnostic]:
                with _frozen_counters(test, getattr(test, "oracle", None)):
                    return checks.check_cssa(function, test)
            self._run_stage("isolate", run_cssa)

    def _check_coalescing(self, ctx) -> None:
        if self.level != "full":
            return
        function = ctx.function
        test = ctx.test
        classes = ctx.classes
        if test is not None and classes is not None:
            # The interference-freedom invariant (V401) is the paper's CSSA
            # property; on φ-free non-SSA input, coalescing copy chains
            # legitimately forms classes whose members intersect while
            # carrying one value, so only the partition/mask invariants run
            # there.  φs are still present at this checkpoint (materialize
            # has not run), so the function itself says which case we're in.
            ssa_input = function.has_phis()

            def run_classes() -> List[Diagnostic]:
                with _frozen_counters(test, getattr(test, "oracle", None), classes):
                    return checks.check_congruence_classes(
                        classes, test, function, check_interference=ssa_input
                    )
            self._run_stage("coalesce", run_classes)
