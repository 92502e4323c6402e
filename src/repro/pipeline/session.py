"""Batch translation sessions.

A :class:`Session` owns one resolved :class:`~repro.pipeline.pipeline.Pipeline`
and reuses it — config resolution, variant lookup, pass objects — across many
functions, while keeping one :class:`~repro.utils.instrument.AllocationTracker`
per function so the Figure 7 per-function footprints stay observable.  This is
the entry point the CLI ``bench`` command and the ``benchmarks/`` harness run
on, and the shape a batch-serving deployment would wrap: one session per
engine, many functions through it.

Warm mode (``Session(engine, warm=True)``) additionally retains one
:class:`~repro.pipeline.analysis.AnalysisCache` per *function object* and
hands it back to the pipeline on every translation of that function — the
JIT re-translation shape: the ``check`` backend's answer caches survive a
whole translation patched (the passes feed them their edit logs) and are
served warm on the next run; every other analysis is rebuilt cold.  Between
runs, :meth:`Session.apply_edits` feeds externally-made structural edits
(described as an :class:`~repro.ir.editlog.EditLog`, exactly as the passes
describe their own) to the retained checker.  The translation *service*
(:mod:`repro.service`) runs entirely on this mode.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.liveness.livecheck import LivenessChecker
from repro.outofssa.config import DEFAULT_ENGINE
from repro.outofssa.result import OutOfSSAResult
from repro.pipeline.analysis import AnalysisCache
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
        warm: bool = False,
        pipeline: Optional[Pipeline] = None,
    ) -> None:
        """``pipeline`` overrides the standard ``Pipeline.for_engine``
        construction (the service uses it to swap in the parallel coalescing
        pass); ``engine`` is ignored when it is given."""
        if pipeline is not None:
            self.pipeline = pipeline
        else:
            self.pipeline = Pipeline.for_engine(
                engine, construct_ssa=construct_ssa, optimize=optimize, abi=abi
            )
        #: Warm mode: retain one analysis cache per function object and hand
        #: it to every re-translation of that function.
        self.warm = warm
        self._warm_caches: Dict[Function, AnalysisCache] = {}
        #: Translations that found a retained warm cache for their function.
        self.warm_reuses = 0
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
        cache: Optional[AnalysisCache] = None
        if self.warm:
            cache = self._warm_caches.get(function)
            if cache is None:
                cache = AnalysisCache(function, self.config)
                self._warm_caches[function] = cache
            else:
                self.warm_reuses += 1
        result = self.pipeline.run(
            function, frequencies=frequencies, tracker=tracker, cache=cache
        )
        self.functions_translated += 1
        self.total_seconds += result.stats.elapsed_seconds
        self._total_allocated_bytes += tracker.total()
        self._max_peak_bytes = max(self._max_peak_bytes, tracker.peak())
        return result

    def translate_many(self, functions: Iterable[Function]) -> List[OutOfSSAResult]:
        """Translate every function (each in place) through the shared pipeline."""
        return [self.translate(function) for function in functions]

    # -- warm-cache management -------------------------------------------------
    def warm_cache(self, function: Function) -> Optional[AnalysisCache]:
        """The retained analysis cache of ``function`` (warm sessions only)."""
        return self._warm_caches.get(function)

    def forget(self, function: Function) -> bool:
        """Drop the retained analysis cache of one function (eviction hook)."""
        return self._warm_caches.pop(function, None) is not None

    def flush_warm(self) -> int:
        """Drop every retained analysis cache; returns how many were held."""
        count = len(self._warm_caches)
        self._warm_caches.clear()
        return count

    def apply_edits(self, function: Function, log: EditLog) -> None:
        """Patch the retained analyses of ``function`` from an edit log.

        The ``check`` backend's answer caches are patched in place and
        re-stamped at the function's current generation; everything else is
        invalidated and rebuilt cold by the next :meth:`translate`, which
        therefore neither trips the
        :class:`~repro.pipeline.analysis.StaleAnalysisError` guard nor reuses
        a stale analysis.
        """
        cache = self._warm_caches.get(function)
        if cache is None:
            raise KeyError(
                f"no warm analysis cache retained for {function.name!r} "
                f"(is this a warm session that translated it?)"
            )
        patched: List[type] = []
        checker = cache.cached(LivenessChecker)
        if checker is not None:
            checker.apply_edits(log)
            patched.append(LivenessChecker)
        cache.invalidate_all(preserve=patched)

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
