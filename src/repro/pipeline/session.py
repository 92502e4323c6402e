"""Batch translation sessions.

A :class:`Session` owns one resolved :class:`~repro.pipeline.pipeline.Pipeline`
and reuses it — config resolution, variant lookup, pass objects — across many
functions, while keeping one :class:`~repro.utils.instrument.AllocationTracker`
per function so the Figure 7 per-function footprints stay observable.  This is
the entry point the CLI ``bench`` command and the ``benchmarks/`` harness run
on, and the shape a batch-serving deployment would wrap: one session per
engine, many functions through it.

Every translation is one cold pipeline run over a fresh
:class:`~repro.pipeline.analysis.AnalysisCache`: a session retains no
per-function analyses.  The translation *service* (:mod:`repro.service`)
re-translates an edited hot function the same way, so warm and cold results
agree by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.outofssa.config import DEFAULT_ENGINE
from repro.outofssa.result import OutOfSSAResult
from repro.pipeline.pipeline import EngineLike, Pipeline
from repro.utils.instrument import AllocationTracker


class Session:
    """Translate many functions through one shared pipeline."""

    def __init__(
        self,
        engine: EngineLike = DEFAULT_ENGINE,
        *,
        construct_ssa: bool = False,
        optimize: bool = False,
        abi: bool = False,
    ) -> None:
        self.pipeline = Pipeline.for_engine(
            engine, construct_ssa=construct_ssa, optimize=optimize, abi=abi
        )
        # Running aggregates only: each result carries its own tracker, and
        # retaining them here would grow without bound in a long-lived session.
        self.functions_translated = 0
        self.total_seconds = 0.0
        self._total_allocated_bytes = 0
        self._max_peak_bytes = 0

    @property
    def config(self):
        return self.pipeline.config

    # -- translation ----------------------------------------------------------
    def translate(
        self,
        function: Function,
        frequencies: Optional[Dict[str, float]] = None,
    ) -> OutOfSSAResult:
        """Translate one function (in place, like ``destruct_ssa``)."""
        tracker = AllocationTracker()
        result = self.pipeline.run(function, frequencies=frequencies, tracker=tracker)
        self.functions_translated += 1
        self.total_seconds += result.stats.elapsed_seconds
        self._total_allocated_bytes += tracker.total()
        self._max_peak_bytes = max(self._max_peak_bytes, tracker.peak())
        return result

    def translate_many(self, functions: Iterable[Function]) -> List[OutOfSSAResult]:
        """Translate every function (each in place) through the shared pipeline."""
        return [self.translate(function) for function in functions]

    def apply_edits(self, function: Function, log: EditLog) -> None:
        """Accept a description of in-place edits to ``function``; a no-op.

        Sessions retain no analyses, so there is nothing to patch: the next
        :meth:`translate` of the edited function is a cold run.  The method
        stays only because benchmark tracers wrap it by name (the
        ``jit.apply_edits`` span); it goes when that span does.
        """

    # -- aggregates -----------------------------------------------------------
    def total_memory_bytes(self) -> int:
        """Bytes allocated across all translations (running sum)."""
        return self._total_allocated_bytes

    def peak_memory_bytes(self) -> int:
        """Largest single-function peak footprint seen so far."""
        return self._max_peak_bytes

    def __repr__(self) -> str:
        return (
            f"Session({self.config.name!r}, "
            f"{self.functions_translated} functions translated)"
        )
