"""Explicit interference graph (half bit-matrix) and the matrix backends.

This module holds the memory side of the pluggable interference stack:

* :class:`InterferenceGraph` — the half bit-matrix representation the
  paper's "Sreedhar III" and plain "Us I"/"Us III" configurations use, over
  an (extensible) universe of variables addressed through the shared
  :class:`~repro.liveness.numbering.VariableNumbering`;
* :func:`scan_interference_edges` — the one-backward-scan-per-block
  construction ("costly traversal of the program", §IV), run over the
  :class:`~repro.ir.flat.FlatFunction` arena's int rows;
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
from repro.ir.flat import FlatFunction
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

    Next to the half matrix the graph keeps *symmetric* per-slot adjacency
    masks, so :meth:`adjacency_bits` (read by class-row coalescing) is O(1)
    instead of an O(universe) column scan.  The rows are derived data: the
    half matrix stays the authoritative store and the measured footprint.
    """

    def __init__(
        self,
        universe: Iterable[Variable] = (),
        numbering: Optional[VariableNumbering] = None,
    ) -> None:
        self._numbering = numbering if numbering is not None else VariableNumbering()
        self._slot_of: dict = {}              #: numbering index -> dense matrix slot
        self._slot_vars: List[Variable] = []  #: dense matrix slot -> variable
        self._sym: List[int] = []             #: slot -> symmetric adjacency mask
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
        self._sym.append(0)
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
        slot_a = self.add_variable(a)
        slot_b = self.add_variable(b)
        self._matrix.set(slot_a, slot_b)
        self._sym[slot_a] |= 1 << slot_b
        self._sym[slot_b] |= 1 << slot_a

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
        return self._sym[slot] if slot is not None else 0

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
        flat: Optional[FlatFunction] = None,
    ) -> "InterferenceGraph":
        """Build the graph by one backward scan per block ("costly traversal of
        the program", §IV): at every definition point, the defined variables
        get an edge to every universe variable live across that point, filtered
        by the interference notion (Chaitin's copy exemption, value equality).

        Requires ``test.oracle.liveness``; the universe defaults to all
        variables but the paper (and the driver) restrict it to the φ-related
        and copy-related ones.  ``flat`` shares an arena lowered over
        ``numbering`` (the analysis cache passes its generation-stamped
        instance); when absent or stale, one is lowered privately.
        """
        candidates = list(universe) if universe is not None else function.variables()
        graph = cls(candidates, numbering=numbering)
        flat = FlatFunction.current(flat, function, graph.numbering)
        scan_interference_edges(graph, flat, test, set(candidates))
        return graph


def _live_out_rows(
    flat: FlatFunction, liveness, in_universe: Set[Variable], universe_mask: int
) -> List[int]:
    """Per block id, the universe variables live at the block's end, as a
    mask in the arena's numbering.

    Bit-set liveness over the arena's numbering hands its raw ``_bits_out``
    rows over directly; any other oracle is asked ``is_live_out`` once per
    universe variable per block.
    """
    if isinstance(liveness, BitLivenessSets) and liveness.numbering is flat.numbering:
        bits_out = liveness._bits_out
        return [bits_out[label] & universe_mask for label in flat.labels]
    get = flat.numbering.get
    members = [(var, 1 << get(var)) for var in in_universe]
    is_live_out = liveness.is_live_out
    rows = []
    for label in flat.labels:
        row = 0
        for var, bit in members:
            if is_live_out(label, var):
                row |= bit
        rows.append(row)
    return rows


def scan_interference_edges(
    graph: InterferenceGraph,
    flat: FlatFunction,
    test,
    in_universe: Set[Variable],
) -> None:
    """Populate ``graph`` from the arena: a backward walk per block, where
    every universe variable live right after a universe definition interferes
    with it, minus the notion-specific exemptions; parameters are defined
    virtually before the entry block.

    The live set is an int mask, the VALUE exemption a precomputed
    per-variable same-value group mask, the CHAITIN exemption reads the
    arena's ``def_src`` column, and edges are written straight into the
    matrix and symmetric rows — no object in the inner loop.  ``flat`` must
    be lowered over ``graph.numbering`` at the function's current generation.
    """
    numbering = graph.numbering
    size = len(numbering)
    kind = test.kind

    universe_mask = 0
    get = numbering.get
    for var in in_universe:
        universe_mask |= 1 << get(var)
    live_out = _live_out_rows(flat, test.oracle.liveness, in_universe, universe_mask)

    # Slot table: numbering id -> matrix slot (-1 when not in the graph).
    slot_of = [-1] * size
    for index, slot in graph._slot_of.items():
        slot_of[index] = slot

    # VALUE notion: one mask per universe variable of its same-value group
    # (itself included — which also covers the unconditional self-skip), so
    # the exemption is a single AND-NOT instead of a call per live pair.
    value_skip: Optional[List[int]] = None
    if kind is InterferenceKind.VALUE:
        value_skip = [0] * size
        variable = numbering.variable
        value_of = test.values.value
        groups: dict = {}
        remaining = universe_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            index = low.bit_length() - 1
            groups.setdefault(value_of(variable(index)), []).append(index)
        for members in groups.values():
            group_mask = 0
            for index in members:
                group_mask |= 1 << index
            for index in members:
                value_skip[index] = group_mask
    is_chaitin = kind is InterferenceKind.CHAITIN

    rows = graph._matrix._rows
    sym = graph._sym
    instr_off = flat.instr_off
    use_masks = flat.use_masks
    def_off = flat.def_off
    def_ids = flat.def_ids
    def_src = flat.def_src
    ids = flat.ids
    entry_id = flat.entry

    # Adjacency already recorded, in *id* space.  The same (definition, live
    # variable) pair recurs across many blocks on large CFGs; masking the
    # known neighbours out keeps the per-bit loop proportional to *new*
    # edges, not to live-set size.  (The scan populates a fresh graph, so
    # these masks mirror the matrix rows exactly.)
    known = [0] * size

    for label in flat.function.blocks:
        block = ids[label]
        live = live_out[block]
        first_row = instr_off[block]
        for row in range(instr_off[block + 1] - 1, first_row - 1, -1):
            span0 = def_off[row]
            span1 = def_off[row + 1]
            if span1 > span0:
                for position in range(span0, span1):
                    defined = def_ids[position]
                    if not universe_mask >> defined & 1:
                        continue
                    if value_skip is not None:
                        candidates = live & ~value_skip[defined]
                    else:
                        candidates = live & ~(1 << defined)
                        if is_chaitin:
                            source = def_src[position]
                            if source >= 0:
                                candidates &= ~(1 << source)
                    candidates &= ~known[defined]
                    if not candidates:
                        continue
                    known[defined] |= candidates
                    defined_bit = 1 << defined
                    defined_slot = slot_of[defined]
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        other = low.bit_length() - 1
                        known[other] |= defined_bit
                        other_slot = slot_of[other]
                        if defined_slot >= other_slot:
                            rows[defined_slot] |= 1 << other_slot
                        else:
                            rows[other_slot] |= 1 << defined_slot
                        sym[defined_slot] |= 1 << other_slot
                        sym[other_slot] |= 1 << defined_slot
                cleared = 0
                for position in range(span0, span1):
                    cleared |= 1 << def_ids[position]
                live &= ~cleared
            # φ rows carry a zero use mask: φ-arguments are read on the
            # incoming edges and already sit in the predecessors' live-out.
            live |= use_masks[row] & universe_mask

        if block == entry_id:
            # Function parameters are defined by a virtual instruction
            # before the entry block: ``live`` now holds the universe
            # variables live-in at the entry, exactly what each parameter is
            # simultaneously live with (an unused parameter interferes with
            # nothing).
            for param in flat.params:
                if not universe_mask >> param & 1:
                    continue
                if value_skip is not None:
                    candidates = live & ~value_skip[param]
                else:
                    candidates = live & ~(1 << param)
                candidates &= ~known[param]
                if not candidates:
                    continue
                known[param] |= candidates
                param_bit = 1 << param
                param_slot = slot_of[param]
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    other = low.bit_length() - 1
                    known[other] |= param_bit
                    other_slot = slot_of[other]
                    if param_slot >= other_slot:
                        rows[param_slot] |= 1 << other_slot
                    else:
                        rows[other_slot] |= 1 << param_slot
                    sym[param_slot] |= 1 << other_slot
                    sym[other_slot] |= 1 << param_slot


# --------------------------------------------------------------------------- backends
class MatrixInterference(QueryInterference):
    """The ``matrix`` backend: an eager half bit-matrix over the universe.

    In-universe pairs are answered from the matrix (``matrix_hits`` counts
    them); pairs involving a non-universe variable fall back to the pairwise
    query path of :class:`~repro.interference.base.QueryInterference` — the
    behaviour the engines have always had when the restricted candidate
    universe did not cover a query.  ``flat`` is the arena the build scans
    (see :meth:`InterferenceGraph.build`).
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
        flat: Optional[FlatFunction] = None,
    ) -> None:
        super().__init__(function, oracle, kind, values)
        self.graph = InterferenceGraph.build(
            function, self, universe=universe, numbering=numbering, flat=flat
        )
        #: Pairwise queries answered straight from the matrix.
        self.matrix_hits = 0

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
