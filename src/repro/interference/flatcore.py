"""Flat-core interference: symmetric adjacency rows + int-mask edge scan.

Two independent costs dominate the object-graph matrix backend on large
functions:

* the **edge scan** (`scan_interference_edges`) walks every block's schedule
  backward keeping a `set` of live `Variable` objects, with a Python-level
  membership test, copy-source lookup, and (for the VALUE notion) a
  `same_value` call per (definition, live variable) pair;
* the **adjacency reads** used by class-row coalescing
  (`InterferenceGraph.adjacency_bits`) cost O(universe) each, because the
  half-triangular `BitMatrix` stores each pair once and `full_row` has to
  scan the column above the diagonal.

`FlatMatrixInterference` replaces both while keeping the `BitMatrix` —
row-for-row identical, so `matrix_bytes`, allocation-tracker events and
Figure 7 stay untouched:

* :func:`scan_interference_edges_flat` runs over the
  :class:`~repro.ir.flat.FlatFunction` instruction rows: the live set is an
  int mask, the VALUE exemption is a precomputed per-variable same-value
  group mask, the CHAITIN exemption reads the arena's ``def_src`` column,
  and edges are written straight into the matrix rows (plus the symmetric
  rows) — no object in the inner loop;
* :class:`FlatInterferenceGraph` maintains *symmetric* per-slot adjacency
  masks next to the half matrix, making ``adjacency_bits`` O(1).  The rows
  are redundant with the matrix (the matrix stays authoritative for the
  footprint) and ``add_edge`` keeps both in sync.

The scans are edge-for-edge identical to the object path (the cross-core
property suite diffs every translation and stats counter), so every counter
the stats report — ``matrix_hits``, ``pair_queries``,
``intersection_queries`` — agrees too.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.interference.base import InterferenceKind
from repro.interference.graph import (
    InterferenceGraph,
    MatrixInterference,
    scan_interference_edges,
)
from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.numbering import VariableNumbering


class FlatInterferenceGraph(InterferenceGraph):
    """`InterferenceGraph` with symmetric adjacency rows beside the matrix."""

    def __init__(
        self,
        universe: Iterable[Variable] = (),
        numbering: Optional[VariableNumbering] = None,
    ) -> None:
        #: Per-slot symmetric adjacency masks (bit = slot).  Derived data:
        #: the half matrix remains the authoritative store (footprint);
        #: these rows only buy O(1) ``adjacency_bits``.
        self._sym: List[int] = []
        super().__init__(universe, numbering=numbering)

    def add_variable(self, var: Variable) -> int:
        slot = super().add_variable(var)
        if slot == len(self._sym):
            self._sym.append(0)
        return slot

    def add_edge(self, a: Variable, b: Variable) -> None:
        if a == b:
            return
        slot_a = self.add_variable(a)
        slot_b = self.add_variable(b)
        self._matrix.set(slot_a, slot_b)
        self._sym[slot_a] |= 1 << slot_b
        self._sym[slot_b] |= 1 << slot_a

    def adjacency_bits(self, var: Variable) -> int:
        slot = self._slot(var)
        if slot is None:
            return 0
        return self._sym[slot]


def scan_interference_edges_flat(
    graph: FlatInterferenceGraph,
    flat: FlatFunction,
    test,
    in_universe: Set[Variable],
) -> None:
    """Populate ``graph`` from the arena — same edges as
    :func:`~repro.interference.graph.scan_interference_edges` over the whole
    function (a backward walk per block: every universe variable live right
    after a universe definition interferes with it, minus the
    notion-specific exemptions; parameters are defined virtually before the
    entry block).

    Requires a bit-set liveness oracle (the raw ``_bits_out`` rows are the
    scan's seed) and an arena lowered at the current generation; the caller
    (:class:`FlatMatrixInterference`) falls back to the object scan
    otherwise.
    """
    liveness = test.oracle.liveness
    numbering = graph.numbering
    size = len(numbering)
    kind = test.kind

    universe_mask = 0
    get = numbering.get
    for var in in_universe:
        index = get(var)
        if index is not None and index < size:
            universe_mask |= 1 << index

    # Slot table: numbering id -> matrix slot (-1 when not in the graph).
    slot_of = [-1] * size
    for index, slot in graph._slot_of.items():
        if index < size:
            slot_of[index] = slot

    # VALUE notion: one mask per universe variable of its same-value group
    # (itself included — which also covers the unconditional self-skip), so
    # the exemption is a single AND-NOT instead of a call per live pair.
    value_skip: Optional[List[int]] = None
    if kind is InterferenceKind.VALUE:
        value_skip = [0] * size
        variable = numbering.variable
        value_of = test.values.value
        groups = {}
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
    bits_out = liveness._bits_out
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
        live = bits_out[label] & universe_mask
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
            live |= use_masks[row] & universe_mask

        if block == entry_id:
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


class FlatMatrixInterference(MatrixInterference):
    """The ``matrix`` backend with a flat-core build (``--core flat``).

    Identical matrix contents, counters, and footprint as the objects core;
    only the construction loop differs.  When the liveness oracle is not
    bit-set backed, or no arena at the current generation is available, the
    build falls back to the object scan — correctness never depends on the
    arena being fresh.
    """

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
        self._flat = flat
        super().__init__(
            function, oracle, kind, values, universe=universe, numbering=numbering
        )

    def _build_graph(
        self,
        function: Function,
        universe: Optional[Iterable[Variable]],
        numbering: Optional[VariableNumbering],
    ) -> InterferenceGraph:
        candidates = (
            list(universe) if universe is not None else function.variables()
        )
        graph = FlatInterferenceGraph(candidates, numbering=numbering)
        flat = self._flat
        liveness = self.oracle.liveness
        if (
            flat is not None
            and flat.function is function
            and flat.generation == function.generation
            and isinstance(liveness, BitLivenessSets)
        ):
            scan_interference_edges_flat(graph, flat, self, set(candidates))
        else:
            scan_interference_edges(graph, function, self, set(candidates))
        return graph
