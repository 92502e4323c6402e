"""Explicit interference graph (half bit-matrix) and the matrix backends.

This module holds the memory side of the pluggable interference stack:

* :class:`InterferenceGraph` — the half bit-matrix representation the
  paper's "Sreedhar III" and plain "Us I"/"Us III" configurations use, over
  an (extensible) universe of variables addressed through the shared
  :class:`~repro.liveness.numbering.VariableNumbering`;
* :func:`scan_interference_edges` — the one-backward-scan-per-block
  construction ("costly traversal of the program", §IV);
* :class:`MatrixInterference` — the ``matrix`` backend: the graph is built
  eagerly at construction and answers every in-universe pair; pairs outside
  the restricted universe fall back to the query path.

The universe of indexed variables can be restricted (the paper restricts it
to φ-related and copy-related variables) and grows dynamically when
virtualized copies are materialized, exactly like in Method III.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.interference.base import InterferenceKind, QueryInterference
from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.numbering import VariableNumbering
from repro.utils.bitset import BitMatrix
from repro.utils.instrument import current_tracker


class InterferenceGraph:
    """Half bit-matrix over an (extensible) universe of variables.

    Variable identity comes from a
    :class:`~repro.liveness.numbering.VariableNumbering` — the same dense,
    append-only numbering the bit-set liveness backend uses — and an existing
    numbering can be passed in (the pipeline shares one instance between the
    liveness rows and this matrix, so it is built only once per run).  A
    shared numbering covers variables outside the graph's restricted universe,
    so matrix *rows* are addressed through a private dense slot table: the
    matrix stays at the paper's ``candidates²/2`` bits regardless of how many
    variables the shared numbering knows, and queries about non-universe
    variables report "not in the graph" and fall back to the pairwise test.
    """

    def __init__(
        self,
        universe: Iterable[Variable] = (),
        numbering: Optional[VariableNumbering] = None,
    ) -> None:
        self._numbering = numbering if numbering is not None else VariableNumbering()
        self._slot_of: dict = {}              #: numbering index -> dense matrix slot
        self._slot_vars: List[Variable] = []  #: dense matrix slot -> variable
        self._matrix = BitMatrix()
        for var in universe:
            self.add_variable(var)

    # -- universe management -------------------------------------------------------
    def add_variable(self, var: Variable) -> int:
        """Add ``var`` to the universe (idempotent); return its matrix slot."""
        index = self._numbering.ensure(var)
        slot = self._slot_of.get(index)
        if slot is not None:        # already a member: single-lookup fast path
            return slot
        slot = len(self._slot_vars)
        self._slot_of[index] = slot
        self._slot_vars.append(var)
        old_bytes = self._matrix.footprint_bytes()
        self._matrix.grow(slot + 1)
        tracker = current_tracker()
        if tracker is not None:
            tracker.resize("interference_graph", old_bytes, self._matrix.footprint_bytes())
        return slot

    def _slot(self, var: Variable) -> Optional[int]:
        index = self._numbering.get(var)
        return self._slot_of.get(index) if index is not None else None

    def slot(self, var: Variable) -> Optional[int]:
        """Dense matrix slot of ``var``, or ``None`` for non-universe variables."""
        return self._slot(var)

    @property
    def numbering(self) -> VariableNumbering:
        """The (possibly shared) variable numbering providing identity."""
        return self._numbering

    def __contains__(self, var: Variable) -> bool:
        return self._slot(var) is not None

    def variables(self) -> List[Variable]:
        return list(self._slot_vars)

    def __len__(self) -> int:
        return len(self._slot_vars)

    # -- edges ------------------------------------------------------------------------
    def add_edge(self, a: Variable, b: Variable) -> None:
        if a == b:
            return
        self._matrix.set(self.add_variable(a), self.add_variable(b))

    def interferes(self, a: Variable, b: Variable) -> bool:
        slot_a = self._slot(a)
        slot_b = self._slot(b)
        if slot_a is None or slot_b is None or slot_a == slot_b:
            return False
        return self._matrix.test(slot_a, slot_b)

    def neighbours(self, var: Variable) -> List[Variable]:
        slot = self._slot(var)
        if slot is None:
            return []
        slot_vars = self._slot_vars
        return [slot_vars[other] for other in self._matrix.neighbours(slot)]

    def adjacency_bits(self, var: Variable) -> int:
        """Symmetric adjacency row of ``var`` as a bit mask over matrix slots."""
        slot = self._slot(var)
        return self._matrix.full_row(slot) if slot is not None else 0

    def edge_count(self) -> int:
        return sum(
            1
            for i in range(len(self._slot_vars))
            for j in range(i)
            if self._matrix.test(i, j)
        )

    # -- memory accounting ----------------------------------------------------------------
    def footprint_bytes(self) -> int:
        return self._matrix.footprint_bytes()

    @staticmethod
    def evaluated_footprint(num_variables: int) -> int:
        return BitMatrix.evaluated_footprint(num_variables)

    # -- construction from a pairwise test ---------------------------------------------------
    @classmethod
    def build_all_pairs(
        cls,
        function: Function,
        test,
        universe: Optional[Iterable[Variable]] = None,
        numbering: Optional[VariableNumbering] = None,
    ) -> "InterferenceGraph":
        """Reference construction: test every pair of the universe.

        Quadratic; kept as a cross-check for :meth:`build`, which is the
        construction the engines use.
        """
        candidates = list(universe) if universe is not None else function.variables()
        graph = cls(candidates, numbering=numbering)
        for i, a in enumerate(candidates):
            for b in candidates[i + 1:]:
                if test.interferes(a, b):
                    graph.add_edge(a, b)
        return graph

    @classmethod
    def build(
        cls,
        function: Function,
        test,
        universe: Optional[Iterable[Variable]] = None,
        numbering: Optional[VariableNumbering] = None,
    ) -> "InterferenceGraph":
        """Build the graph by one backward scan per block ("costly traversal of
        the program", §IV): at every definition point, the defined variables
        get an edge to every universe variable live across that point, filtered
        by the interference notion (Chaitin's copy exemption, value equality).

        Requires ``test.oracle.liveness``; the universe defaults to all
        variables but the paper (and the driver) restrict it to the φ-related
        and copy-related ones.
        """
        candidates = list(universe) if universe is not None else function.variables()
        graph = cls(candidates, numbering=numbering)
        scan_interference_edges(graph, function, test, set(candidates))
        return graph


def scan_interference_edges(
    graph: InterferenceGraph,
    function: Function,
    test,
    in_universe: Set[Variable],
) -> None:
    """One backward scan per block of ``function``, adding the discovered edges.

    The object-graph construction primitive behind :meth:`InterferenceGraph.build`
    (and the flat core's fallback when no current arena is available).
    """
    from repro.ir.instructions import Copy, ParallelCopy, Phi
    from repro.ir.positions import block_schedule  # local import, avoids cycles

    liveness = test.oracle.liveness
    kind = test.kind

    # With the bit-set liveness backend the per-block "universe variables
    # live at the end of the block" set is one mask intersection plus a
    # decode of the surviving bits, instead of one oracle query per
    # universe variable per block.
    bit_liveness = liveness if isinstance(liveness, BitLivenessSets) else None
    universe_mask = 0
    if bit_liveness is not None:
        for var in in_universe:
            index = bit_liveness.numbering.get(var)
            if index is not None:
                universe_mask |= 1 << index

    def live_out_universe(block_label: str) -> set:
        if bit_liveness is None:
            return {var for var in in_universe if liveness.is_live_out(block_label, var)}
        variable = bit_liveness.numbering.variable
        mask = bit_liveness.live_out[block_label].bits & universe_mask
        live = set()
        while mask:
            low = mask & -mask
            live.add(variable(low.bit_length() - 1))
            mask ^= low
        return live

    def copy_source_of(instruction, defined: Variable):
        if isinstance(instruction, Copy) and instruction.dst == defined:
            return instruction.src
        if isinstance(instruction, ParallelCopy):
            for dst, src in instruction.pairs:
                if dst == defined:
                    return src
        return None

    for block in function.blocks.values():
        # Live universe variables at the end of the block.
        live = live_out_universe(block.label)
        for _index, instruction in reversed(block_schedule(block)):
            defs = list(instruction.defs())
            if defs:
                for defined in defs:
                    if defined not in in_universe:
                        continue
                    source = copy_source_of(instruction, defined)
                    for other in live:
                        if other == defined:
                            continue
                        # ``other`` is live right after the definition of
                        # ``defined``: the live ranges intersect; apply the
                        # notion-specific refinement.
                        if kind is InterferenceKind.VALUE and test.same_value(defined, other):
                            continue
                        if kind is InterferenceKind.CHAITIN and source == other:
                            continue
                        graph.add_edge(defined, other)
                for defined in defs:
                    live.discard(defined)
            # φ-arguments are read on the incoming edges, not inside this
            # block: they are already accounted for by the predecessors'
            # live-out sets and must not extend liveness here.
            if not isinstance(instruction, Phi):
                for used in instruction.uses():
                    if used in in_universe:
                        live.add(used)

        if block.label == function.entry_label:
            # Function parameters are defined by a virtual instruction
            # before the entry block: at this point ``live`` holds the
            # universe variables live-in at the entry, which is exactly
            # what each parameter is simultaneously live with (a parameter
            # that is never used is not in ``live`` and, having an empty
            # live range and no real defining instruction, interferes with
            # nothing).
            for param in function.params:
                if param not in in_universe:
                    continue
                for other in live:
                    if other == param:
                        continue
                    if kind is InterferenceKind.VALUE and test.same_value(param, other):
                        continue
                    graph.add_edge(param, other)


# --------------------------------------------------------------------------- backends
class MatrixInterference(QueryInterference):
    """The ``matrix`` backend: an eager half bit-matrix over the universe.

    In-universe pairs are answered from the matrix (``matrix_hits`` counts
    them); pairs involving a non-universe variable fall back to the pairwise
    query path of :class:`~repro.interference.base.QueryInterference` — the
    behaviour the engines have always had when the restricted candidate
    universe did not cover a query.
    """

    backend_name = "matrix"
    supports_class_rows = True

    def __init__(
        self,
        function: Function,
        oracle,
        kind: InterferenceKind,
        values=None,
        universe: Optional[Iterable[Variable]] = None,
        numbering: Optional[VariableNumbering] = None,
    ) -> None:
        super().__init__(function, oracle, kind, values)
        self.graph = self._build_graph(function, universe, numbering)
        #: Pairwise queries answered straight from the matrix.
        self.matrix_hits = 0

    def _build_graph(
        self,
        function: Function,
        universe: Optional[Iterable[Variable]],
        numbering: Optional[VariableNumbering],
    ) -> InterferenceGraph:
        """Construct and populate the adjacency structure.  The flat core
        (:mod:`repro.interference.flatcore`) overrides this to scan the
        `FlatFunction` arena instead of the object graph."""
        return InterferenceGraph.build(
            function, self, universe=universe, numbering=numbering
        )

    # -- pairwise test -------------------------------------------------------------
    def interferes(self, a, b) -> bool:
        graph = self.graph
        if a in graph and b in graph:
            self.matrix_hits += 1
            return graph.interferes(a, b)
        return super().interferes(a, b)

    # -- class-row support ---------------------------------------------------------
    def slot(self, var) -> Optional[int]:
        return self.graph.slot(var)

    def adjacency_bits(self, var) -> int:
        return self.graph.adjacency_bits(var)

    # -- accounting ----------------------------------------------------------------
    def matrix_bytes(self) -> int:
        return self.graph.footprint_bytes()
