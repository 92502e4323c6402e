"""The shared analysis layer of the pass pipeline.

The out-of-SSA phases consume a small, fixed family of analyses — dominator
tree, dense variable numbering, a liveness oracle, live-range intersection,
SSA values, block frequencies.  The legacy driver constructed all of them
privately per run; the :class:`AnalysisCache` gives them ownership semantics:

* analyses are keyed by their *type* and built lazily on :meth:`get`;
* builders may request other analyses, and those requests are recorded as
  dependencies, so invalidating the dominator tree also drops everything
  computed from it (intersection oracle, value table, frequencies);
* transformation passes declare what they :attr:`~repro.pipeline.passes.Pass.preserves`
  and the :class:`~repro.pipeline.pipeline.PassManager` calls
  :meth:`invalidate_all` with that preserve-set after each pass, so a stale
  analysis is never served.

Sharing falls out of the keying: the bit-set liveness rows and the
interference bit-matrix both request :class:`~repro.liveness.numbering.VariableNumbering`
from the cache and therefore index their bits identically — one numbering
instance per engine run, the ROADMAP follow-up.

A worked example — build, share, mutate, get caught:

>>> from repro.ir.parser import parse_function
>>> from repro.liveness.numbering import VariableNumbering
>>> from repro.pipeline.analysis import AnalysisCache, StaleAnalysisError
>>> function = parse_function('''
... function double(a) {
...   entry:
...     b = add a, a
...     jump done
...   done:
...     ret b
... }''')
>>> cache = AnalysisCache(function)
>>> numbering = cache.get(VariableNumbering)      # built lazily...
>>> cache.get(VariableNumbering) is numbering     # ...then served cached
True
>>> cache.constructions[VariableNumbering]
1

Every analysis is stamped with the function's structural *generation*; a CFG
mutation nobody declared turns the next ``get`` into a loud error instead of
a silently-stale serve:

>>> _ = function.split_edge("entry", "done")      # mutation, no invalidation
>>> cache.get(VariableNumbering)  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.pipeline.analysis.StaleAnalysisError: VariableNumbering was computed at CFG generation ... a pass mutated the CFG without declaring an invalidation ...

Passes declare what survives; preserving *vouches* (re-stamps) and anything
else is dropped and lazily rebuilt:

>>> cache.preserve(VariableNumbering)             # "still valid, I promise"
>>> cache.get(VariableNumbering) is numbering
True
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Type

from repro.cfg.dominance import DominatorTree
from repro.cfg.frequency import estimate_block_frequencies
from repro.coalescing.variants import variant_by_name
from repro.interference.base import InterferenceKind, InterferenceOracle, QueryInterference
from repro.interference.flatcore import FlatMatrixInterference
from repro.interference.graph import MatrixInterference
from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.liveness.base import LivenessOracle
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.flatcore import FlatBitLiveness
from repro.liveness.intersection import IntersectionOracle
from repro.liveness.livecheck import LivenessChecker
from repro.liveness.numbering import VariableNumbering
from repro.outofssa.config import (
    DEFAULT_ENGINE,
    INTERFERENCE_BACKENDS,
    LIVENESS_BACKENDS,
    EngineConfig,
)
from repro.ssa.values import ValueTable


class BlockFrequencies(dict):
    """Estimated execution frequency per block label, as an analysis result."""


class StaleAnalysisError(RuntimeError):
    """A cached analysis was requested after an undeclared CFG mutation.

    Raised by :meth:`AnalysisCache.get` when the function's structural
    generation advanced past the generation the analysis was stamped with:
    some code edited the CFG without going through a pass ``preserves``
    declaration (which re-stamps) or an explicit ``invalidate``/``preserve``
    call.  The old behaviour — silently serving the stale instance — is
    exactly the class of bug this guard exists to surface.
    """


#: The liveness oracle class backing each ``EngineConfig.liveness`` kind.
LIVENESS_CLASSES: Dict[str, Type[LivenessOracle]] = {
    "sets": LivenessSets,
    "bitsets": BitLivenessSets,
    "check": LivenessChecker,
}
assert set(LIVENESS_CLASSES) == set(LIVENESS_BACKENDS)

#: The interference backend class behind each ``EngineConfig.interference``
#: kind — the same keying discipline as :data:`LIVENESS_CLASSES`.
INTERFERENCE_CLASSES: Dict[str, Type[InterferenceOracle]] = {
    "matrix": MatrixInterference,
    "query": QueryInterference,
}
assert set(INTERFERENCE_CLASSES) == set(INTERFERENCE_BACKENDS)


def build_interference_backend(
    cache: "AnalysisCache", universe=None, backend_class=None
) -> InterferenceOracle:
    """Construct the interference backend the cache's engine selects.

    ``universe`` restricts the matrix backends to the paper's candidate set
    (the :class:`~repro.pipeline.phases.InterferencePass` computes it and
    registers a closed-over builder); without it the universe defaults to
    every function variable — the right thing for direct/analysis use.

    The interference notion comes from the engine's coalescing variant; the
    :class:`~repro.ssa.values.ValueTable` is requested from the cache
    unconditionally, exactly as the pass always has (so the measured Figure 7
    footprints stay comparable across backends).

    Cache keys stay the *base* backend types regardless of the engine's
    ``core``: with ``core="flat"`` the matrix backend is constructed as its
    flat-core subclass (sharing the cached :class:`~repro.ir.flat.FlatFunction`
    arena), which every ``isinstance`` check downstream sees through
    unchanged.
    """
    function = cache.function
    kind: InterferenceKind = variant_by_name(cache.config.coalescing).interference
    values = cache.get(ValueTable)
    flat_core = cache.config.core == "flat"
    if backend_class is None:
        backend_class = cache.interference_class()
    oracle = cache.get(IntersectionOracle)
    if backend_class is MatrixInterference:
        if flat_core:
            return FlatMatrixInterference(
                function, oracle, kind, values,
                universe=universe, numbering=cache.get(VariableNumbering),
                flat=cache.get(FlatFunction),
            )
        return MatrixInterference(
            function, oracle, kind, values,
            universe=universe, numbering=cache.get(VariableNumbering),
        )
    return QueryInterference(function, oracle, kind, values)


AnalysisBuilder = Callable[["AnalysisCache"], object]

def _build_bit_liveness(cache: "AnalysisCache") -> BitLivenessSets:
    """Bit-set liveness under the `BitLivenessSets` cache key; the engine's
    ``core`` knob decides the construction (flat arena vs object walk) —
    the instances are behaviourally and bit-for-bit interchangeable."""
    if cache.config.core == "flat":
        return FlatBitLiveness(
            cache.function,
            numbering=cache.get(VariableNumbering),
            flat=cache.get(FlatFunction),
        )
    return BitLivenessSets(cache.function, numbering=cache.get(VariableNumbering))


_DEFAULT_BUILDERS: Dict[type, AnalysisBuilder] = {
    DominatorTree: lambda cache: DominatorTree(cache.function),
    VariableNumbering: lambda cache: VariableNumbering.of_function(cache.function),
    FlatFunction: lambda cache: FlatFunction(
        cache.function, cache.get(VariableNumbering)
    ),
    LivenessSets: lambda cache: LivenessSets(cache.function),
    BitLivenessSets: _build_bit_liveness,
    LivenessChecker: lambda cache: LivenessChecker(cache.function),
    IntersectionOracle: lambda cache: IntersectionOracle(
        cache.function, cache.liveness(), cache.get(DominatorTree)
    ),
    ValueTable: lambda cache: ValueTable(cache.function, cache.get(DominatorTree)),
    BlockFrequencies: lambda cache: BlockFrequencies(
        estimate_block_frequencies(cache.function, domtree=cache.get(DominatorTree))
    ),
    QueryInterference: lambda cache: build_interference_backend(
        cache, backend_class=QueryInterference
    ),
    MatrixInterference: lambda cache: build_interference_backend(
        cache, backend_class=MatrixInterference
    ),
}


class AnalysisCache:
    """Lazily-built, explicitly-invalidated analyses of one function."""

    def __init__(self, function: Function, config: EngineConfig = DEFAULT_ENGINE) -> None:
        self.function = function
        self.config = config
        self._builders: Dict[type, AnalysisBuilder] = dict(_DEFAULT_BUILDERS)
        self._instances: Dict[type, object] = {}
        #: Function generation each instance was computed at (or vouched for
        #: by a pass ``preserves`` declaration); checked on every serve.
        self._generations: Dict[type, int] = {}
        #: type -> analyses built *from* it (invalidated along with it).
        self._dependents: Dict[type, Set[type]] = {}
        self._build_stack: List[type] = []
        #: How many times each analysis type was constructed (introspection
        #: and the one-numbering-per-run acceptance test).
        self.constructions: Dict[type, int] = {}

    # -- registry ------------------------------------------------------------
    def register(self, analysis_type: type, builder: AnalysisBuilder) -> None:
        """Register (or replace) the builder for ``analysis_type``."""
        self._builders[analysis_type] = builder

    def known_types(self) -> List[type]:
        return list(self._builders)

    # -- construction / lookup -------------------------------------------------
    def get(self, analysis_type: type):
        """The (cached) analysis of ``analysis_type``, building it if needed.

        Raises :class:`StaleAnalysisError` when the cached instance predates a
        CFG mutation nobody declared; declaring one — a pass ``preserves``
        set, or an explicit :meth:`preserve` / :meth:`invalidate_all` —
        re-stamps the surviving analyses as valid at the new generation.
        """
        instance = self._instances.get(analysis_type)
        if instance is None:
            builder = self._builders.get(analysis_type)
            if builder is None:
                raise KeyError(
                    f"no builder registered for analysis {analysis_type.__name__!r}"
                )
            if self._build_stack:
                # The analysis being built depends on the one requested here.
                self._dependents.setdefault(analysis_type, set()).add(self._build_stack[-1])
            self._build_stack.append(analysis_type)
            try:
                instance = builder(self)
            finally:
                self._build_stack.pop()
            self._instances[analysis_type] = instance
            self._generations[analysis_type] = self.function.generation
            self.constructions[analysis_type] = self.constructions.get(analysis_type, 0) + 1
        else:
            stamped = self._generations.get(analysis_type)
            current = self.function.generation
            if stamped != current:
                raise StaleAnalysisError(
                    f"{analysis_type.__name__} was computed at CFG generation "
                    f"{stamped} but the function is now at generation {current}: "
                    f"a pass mutated the CFG without declaring an invalidation "
                    f"(declare it in ``preserves``, or call invalidate()/preserve())"
                )
            if self._build_stack:
                # Serving a cached analysis to a builder still creates a dependency.
                self._dependents.setdefault(analysis_type, set()).add(self._build_stack[-1])
        return instance

    def cached(self, analysis_type: type):
        """The cached instance, or ``None`` — never builds."""
        return self._instances.get(analysis_type)

    def put(self, analysis_type: type, instance) -> None:
        """Install a precomputed analysis (e.g. profile-derived frequencies)."""
        self._instances[analysis_type] = instance
        self._generations[analysis_type] = self.function.generation

    # -- liveness selection ----------------------------------------------------
    def liveness_class(self) -> Type[LivenessOracle]:
        """The oracle class selected by ``config.liveness``."""
        try:
            return LIVENESS_CLASSES[self.config.liveness]
        except KeyError:
            raise ValueError(
                f"unknown liveness oracle kind {self.config.liveness!r}"
            ) from None

    def liveness(self) -> LivenessOracle:
        """The liveness oracle selected by the engine configuration."""
        return self.get(self.liveness_class())

    # -- interference selection -------------------------------------------------
    def interference_class(self) -> Type[InterferenceOracle]:
        """The backend class selected by ``config.interference``."""
        try:
            return INTERFERENCE_CLASSES[self.config.interference]
        except KeyError:
            raise ValueError(
                f"unknown interference backend kind {self.config.interference!r}"
            ) from None

    def interference(self) -> InterferenceOracle:
        """The interference backend selected by the engine configuration."""
        return self.get(self.interference_class())

    # -- invalidation ----------------------------------------------------------
    def invalidate(self, *analysis_types: type) -> None:
        """Drop the given analyses *and* everything built from them."""
        worklist = list(analysis_types)
        while worklist:
            analysis_type = worklist.pop()
            if self._instances.pop(analysis_type, None) is not None:
                self._generations.pop(analysis_type, None)
                worklist.extend(self._dependents.pop(analysis_type, ()))

    def invalidate_all(self, preserve: Iterable[type] = ()) -> None:
        """Drop every cached analysis except the explicitly preserved ones.

        A preserved analysis keeps its dependency edges, so a later
        :meth:`invalidate` of one of its inputs still drops it.  Preserving is
        *vouching*: the survivors are re-stamped with the function's current
        generation, since whoever declared the preserve-set asserts they are
        still valid after whatever mutation just happened.
        """
        preserved = set(preserve)
        for analysis_type in list(self._instances):
            if analysis_type not in preserved:
                del self._instances[analysis_type]
                self._generations.pop(analysis_type, None)
            else:
                self._generations[analysis_type] = self.function.generation

    def preserve(self, *analysis_types: type) -> None:
        """Alias spelling ``invalidate_all(preserve=...)`` for pass bodies."""
        self.invalidate_all(preserve=analysis_types)

    def __contains__(self, analysis_type: type) -> bool:
        return analysis_type in self._instances

    def __repr__(self) -> str:
        cached = ", ".join(sorted(t.__name__ for t in self._instances)) or "empty"
        return f"AnalysisCache({cached})"
