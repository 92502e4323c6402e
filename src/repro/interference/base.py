"""The pluggable interference-backend protocol and the query backend.

The paper's central speed claim (§IV) is that out-of-SSA coalescing does not
need an explicit interference graph: dominance-ordered intersection queries
plus SSA value equality answer every pairwise question on the fly.  Whether a
graph *is* built is therefore a representation choice, not a semantic one —
exactly the situation the liveness layer already handles with its pluggable
oracle stack.  This module gives interference the same treatment:

:class:`InterferenceOracle`
    The protocol every backend implements: the pairwise test (``interferes``
    / ``same_value`` / ``intersects`` under one of the three
    :class:`InterferenceKind` notions), the congruence-facing ``intersect``
    helper and the class-row support surface the congruence layer uses to
    merge interference rows on coalesces.

:class:`QueryInterference`
    The ``query`` backend — the paper's contribution: no materialised graph,
    every verdict computed from the dominance-based intersection test and the
    value table.  This *is* the base implementation; the class exists so the
    backend registry and the :class:`~repro.pipeline.analysis.AnalysisCache`
    can key it distinctly.

The ``matrix`` backend (eager half bit-matrix) lives in
:mod:`repro.interference.graph` next to the matrix representation.
"""

from __future__ import annotations

import enum
from typing import List, Optional


class InterferenceKind(enum.Enum):
    """Which notion of interference a backend implements (§III-A, §III-E).

    ``INTERSECT``
        two variables interfere iff their live ranges intersect — the
        coarsest notion, the "Intersect" variant of Figure 5;
    ``CHAITIN``
        they interfere iff one is live at a definition point of the other
        *and* that definition is not a copy between the two;
    ``VALUE``
        they interfere iff their live ranges intersect *and* they carry
        different SSA values — the paper's refinement, computed from
        :class:`~repro.ssa.values.ValueTable` at no extra cost.
    """

    INTERSECT = "intersect"
    CHAITIN = "chaitin"
    VALUE = "value"


class InterferenceOracle:
    """Protocol (and query implementation) of the interference backends.

    Every backend is constructed over an
    :class:`~repro.liveness.intersection.IntersectionOracle` (which supplies
    liveness, dominance, the ≺ order keys and the definition rows) plus the
    configured :class:`InterferenceKind`; value-based interference additionally needs a
    :class:`~repro.ssa.values.ValueTable`.  The same code therefore runs
    whether liveness comes from data-flow sets or liveness checking, and the
    backends differ only in *where the verdict is stored*:

    ``query``   — nowhere: recomputed per query (this class);
    ``matrix``  — an eager half bit-matrix over a restricted universe,
                  non-universe pairs fall back to the query path.
    """

    #: Registry name of the backend (``EngineConfig.interference``).
    backend_name = "query"
    #: Whether the congruence layer may keep per-class adjacency rows (bit
    #: masks over matrix slots, merged on coalesces) for O(words) class
    #: checks; only the matrix backend can.
    supports_class_rows = False

    def __init__(self, function, oracle, kind: InterferenceKind, values=None) -> None:
        if kind is InterferenceKind.VALUE and values is None:
            raise ValueError("value-based interference requires a ValueTable")
        self.function = function
        #: The dominance-based intersection oracle every verdict reduces to.
        self.oracle = oracle
        self.kind = kind
        self.values = values

    # -- building blocks -----------------------------------------------------------
    def intersects(self, a, b) -> bool:
        """Do the live ranges of ``a`` and ``b`` intersect?"""
        return self.oracle.intersect(a, b)

    def same_value(self, a, b) -> bool:
        """Do ``a`` and ``b`` carry the same SSA value (False without a table)?"""
        if self.values is None:
            return False
        return self.values.same_value(a, b)

    def _is_copy_between(self, defining, other) -> bool:
        """Is the definition of ``defining`` a copy from ``other``?"""
        from repro.ir.instructions import Copy, ParallelCopy  # local: avoid cycles

        def_point = self.oracle.liveness.definition_of(defining)
        if def_point is None or def_point.instruction is None:
            return False
        instruction = def_point.instruction
        if isinstance(instruction, Copy):
            return instruction.src == other
        if isinstance(instruction, ParallelCopy):
            for dst, src in instruction.pairs:
                if dst == defining:
                    return src == other
        return False

    # -- the pairwise test ---------------------------------------------------------
    def interferes(self, a, b) -> bool:
        """Do ``a`` and ``b`` interfere under the configured notion?"""
        if a == b:
            return False
        if self.kind is InterferenceKind.INTERSECT:
            return self.intersects(a, b)
        if self.kind is InterferenceKind.VALUE:
            return self.intersects(a, b) and not self.same_value(a, b)
        # Chaitin: live at a definition point which is not a copy between them.
        live = self.oracle.liveness
        def_a = live.definition_of(a)
        def_b = live.definition_of(b)
        if def_b is not None and live.is_live_after(def_b.block, def_b.index, a):
            if not self._is_copy_between(b, a):
                return True
        if def_a is not None and live.is_live_after(def_a.block, def_a.index, b):
            if not self._is_copy_between(a, b):
                return True
        return False

    # -- congruence-facing helpers (delegated to the intersection oracle) ----------
    def intersect(self, a, b) -> bool:
        return self.oracle.intersect(a, b)

    # -- class-row support (matrix backends only) ----------------------------------
    def slot(self, var) -> Optional[int]:
        """Matrix slot of ``var``, or ``None`` (no matrix / not in universe)."""
        return None

    def adjacency_bits(self, var) -> int:
        """Symmetric adjacency row of ``var`` as a bit mask over matrix slots."""
        return 0

    def adjacency_rows(self) -> List[int]:
        """Matrix slot -> symmetric adjacency row (empty without a matrix)."""
        return []

    # -- accounting ----------------------------------------------------------------
    def matrix_bytes(self) -> int:
        """Measured bytes of the backend's interference matrix (0 if none)."""
        return 0

    def footprint_bytes(self) -> int:
        """Idealised long-lived footprint of the backend's own structures."""
        return self.matrix_bytes()

    def describe(self) -> str:
        return f"{self.backend_name} interference backend ({self.kind.value})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind.value}>"


class QueryInterference(InterferenceOracle):
    """The ``query`` backend: verdicts computed on the fly, nothing stored."""

    backend_name = "query"
