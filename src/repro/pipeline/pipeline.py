"""Declarative pass pipeline over one function.

``Pipeline.for_engine("us_i")`` (or any :class:`EngineConfig` /
:class:`EngineConfigBuilder`) yields the paper's four out-of-SSA phases,
optionally preceded by the SSA front half, as one introspectable run::

    pipeline = Pipeline.for_engine("us_i", construct_ssa=True, optimize=True)
    result = pipeline.run(function)          # an OutOfSSAResult
    print(pipeline.describe())               # pass names + engine knobs
    print(result.pass_seconds)               # wall-clock per pass

The :class:`PassManager` executes the passes and enforces the analysis
contract: after every pass that is not marked ``PRESERVES_ALL``, the
:class:`~repro.pipeline.analysis.AnalysisCache` is invalidated down to the
pass's declared preserve-set, so no later pass can observe a stale dominator
tree, liveness row or value table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.coalescing.variants import CoalescingVariant, variant_by_name
from repro.ir.function import Function
from repro.outofssa.config import DEFAULT_ENGINE, EngineConfig, EngineConfigBuilder, engine_by_name
from repro.outofssa.result import OutOfSSAResult, OutOfSSAStats
from repro.pipeline.analysis import AnalysisCache
from repro.pipeline.passes import (
    PRESERVES_ALL,
    CallingConventionPass,
    ConstructSSAPass,
    FoldCopiesPass,
    Pass,
    RemoveDeadCodePass,
    ValueNumberPass,
)
from repro.pipeline.phases import out_of_ssa_passes
from repro.utils.instrument import AllocationTracker, track_allocations

EngineLike = Union[EngineConfig, EngineConfigBuilder, str]


def resolve_engine(engine: EngineLike) -> EngineConfig:
    """Normalise a name / builder / config into an :class:`EngineConfig`."""
    if isinstance(engine, EngineConfig):
        return engine
    if isinstance(engine, EngineConfigBuilder):
        return engine.build()
    if isinstance(engine, str):
        return engine_by_name(engine)
    raise TypeError(f"cannot resolve engine from {type(engine).__name__}")


# --------------------------------------------------------------------------- context
@dataclass
class PipelineContext:
    """Everything a pass may read or write during one run."""

    function: Function
    config: EngineConfig
    analyses: AnalysisCache
    stats: OutOfSSAStats
    tracker: AllocationTracker
    variant: CoalescingVariant
    #: Explicit frequency override (profile data); the interference phase
    #: fills it from the cache when absent and later phases reuse it.
    frequencies: Optional[Dict[str, float]] = None
    # -- inter-pass scratch state (filled by the out-of-SSA phases) ----------
    insertion: Optional[object] = None      #: PhiCopyInsertion
    affinities: List = field(default_factory=list)
    universe: List = field(default_factory=list)
    test: Optional[object] = None           #: InterferenceOracle backend
    graph: Optional[object] = None          #: its InterferenceGraph, when built
    classes: Optional[object] = None        #: CongruenceClasses
    coalescing: Optional[object] = None     #: CoalescingStats
    rename_map: Dict = field(default_factory=dict)
    #: Wall-clock seconds per pass name (accumulated by the PassManager).
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: Set to a list by the verifier (full level) before materialization runs;
    #: materialize() then appends one ``(block label, pairs, copies)`` record
    #: per lowered parallel copy for the sequentialization check.
    lowered_pcopies: Optional[List] = None


# --------------------------------------------------------------------------- manager
class PassManager:
    """Runs a pass sequence and applies the analysis-invalidation contract."""

    def __init__(self, passes: Iterable[Pass] = ()) -> None:
        self._passes: List[Pass] = list(passes)

    @property
    def passes(self) -> List[Pass]:
        return list(self._passes)

    def add(self, pass_: Pass) -> "PassManager":
        self._passes.append(pass_)
        return self

    def run(self, ctx: PipelineContext, verifier=None) -> None:
        for pass_ in self._passes:
            if verifier is not None:
                # Checker time accrues to the verifier's report, never to the
                # per-pass timings below.
                verifier.before_pass(pass_.name, ctx)
            start = time.perf_counter()
            pass_.run(ctx)
            ctx.pass_seconds[pass_.name] = (
                ctx.pass_seconds.get(pass_.name, 0.0) + time.perf_counter() - start
            )
            preserves = getattr(pass_, "preserves", ())
            if preserves is not PRESERVES_ALL:
                ctx.analyses.invalidate_all(preserve=preserves)


# --------------------------------------------------------------------------- pipeline
class Pipeline:
    """A named pass sequence bound to one engine configuration."""

    def __init__(
        self,
        passes: Iterable[Pass],
        config: EngineLike = DEFAULT_ENGINE,
        name: Optional[str] = None,
    ) -> None:
        self.config = resolve_engine(config)
        self.manager = PassManager(passes)
        self.name = name if name is not None else self.config.name

    @property
    def passes(self) -> List[Pass]:
        return self.manager.passes

    def describe(self) -> str:
        """Pass names plus the engine knobs, for ``repro list`` style output."""
        chain = " -> ".join(pass_.name for pass_ in self.manager.passes)
        return f"{chain} ({self.config.describe()})"

    def __repr__(self) -> str:
        return f"Pipeline({self.name!r}, {len(self.manager.passes)} passes)"

    # -- construction ---------------------------------------------------------
    @classmethod
    def for_engine(
        cls,
        engine: EngineLike = DEFAULT_ENGINE,
        *,
        construct_ssa: bool = False,
        optimize: bool = False,
        abi: bool = False,
    ) -> "Pipeline":
        """The standard pipeline for one engine configuration.

        ``engine`` may be an engine name (``engine_by_name`` semantics, so an
        unknown name raises :class:`KeyError`), an :class:`EngineConfig`, or an
        :class:`EngineConfigBuilder` (built here).  The keyword flags prepend
        the SSA front half: construction, then the conventionality-breaking
        optimizations, then calling-convention pinning — the same order the
        CLI ``translate`` command always applied.
        """
        config = resolve_engine(engine)
        passes: List[Pass] = []
        if construct_ssa:
            passes.append(ConstructSSAPass())
        if optimize:
            passes.extend([ValueNumberPass(), FoldCopiesPass(), RemoveDeadCodePass()])
        if abi:
            passes.append(CallingConventionPass())
        passes.extend(out_of_ssa_passes())
        return cls(passes, config=config)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        function: Function,
        frequencies: Optional[Dict[str, float]] = None,
        tracker: Optional[AllocationTracker] = None,
        cache: Optional[AnalysisCache] = None,
    ) -> OutOfSSAResult:
        """Run every pass over ``function`` (in place) and collect the result.

        ``cache`` lets callers pre-seed or observe the analysis layer; it must
        be a cache of this very function.
        """
        tracker = tracker if tracker is not None else AllocationTracker()
        stats = OutOfSSAStats()
        if cache is None:
            cache = AnalysisCache(function, self.config)
        elif cache.function is not function:
            raise ValueError("analysis cache belongs to a different function")
        elif cache.config != self.config:
            # A mismatched cache would silently build the *cache's* liveness
            # backend while the result claims this pipeline's engine ran.
            raise ValueError(
                f"analysis cache was built for engine {cache.config.name!r}, "
                f"not {self.config.name!r}"
            )
        ctx = PipelineContext(
            function=function,
            config=self.config,
            analyses=cache,
            stats=stats,
            tracker=tracker,
            variant=variant_by_name(self.config.coalescing),
            frequencies=dict(frequencies) if frequencies is not None else None,
        )
        verifier = None
        if self.config.verify_level != "off":
            # Lazy import: the verify package sits above the pipeline layer.
            from repro.verify.stages import PipelineVerifier

            verifier = PipelineVerifier(function, self.config.verify_level)
        start = time.perf_counter()
        with track_allocations(tracker):
            self.manager.run(ctx, verifier=verifier)
            if verifier is not None:
                verifier.after_run(ctx)
        stats.elapsed_seconds = time.perf_counter() - start
        report = None
        if verifier is not None:
            report = verifier.report
            stats.verify_ms = report.seconds * 1e3
            stats.verify_diagnostics = len(report.diagnostics)
            stats.verify_errors = len(report.errors)
            stats.verify_warnings = len(report.warnings)
        return OutOfSSAResult(
            function=function,
            config=self.config,
            stats=stats,
            tracker=tracker,
            rename_map=ctx.rename_map,
            pass_seconds=dict(ctx.pass_seconds),
            verify_report=report,
        )
