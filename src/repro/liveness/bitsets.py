"""Bit-set backed liveness: the paper's cheap live-in / live-out encoding.

This is the second data-flow liveness backend (selected with
``liveness="bitsets"``): semantically identical to
:class:`~repro.liveness.dataflow.LivenessSets`, but variables are numbered
once (:class:`~repro.liveness.numbering.VariableNumbering`, shared with the
interference bit-matrix) and every live-in / live-out set is a
:class:`~repro.utils.bitset.BitSet` row, so the footprint is the closed-form
``ceil(#variables / 8) * #basicblocks * 2`` that Figure 7 evaluates — here it
is also *measured*, through the allocation tracker.

The fixpoint is solved over the :class:`~repro.ir.flat.FlatFunction` arena
(block ids are RPO positions, edges are CSR rows, the per-block transfer
masks are list entries), so each worklist step is pure int indexing:

    out(b)    = OR over successors s of (in(s) & ~phi_defs(s)) | phi_edge(b, s)
    new_in(b) = upward(b) | (out(b) & ~defs(b))

The worklist is seeded in post-order, the fastest single-sweep direction for
a backward problem; a block is re-queued only when the live-in set of one of
its successors actually changes, instead of re-sweeping the whole function
round-robin as the ordered-set backend does.

The φ conventions are those of :mod:`repro.liveness.base`: φ-arguments are
uses on the incoming edge (live-out of the predecessor they flow from, not
live-in of the φ's block) and φ-results are defined at the top of their block.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional

from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.liveness.base import LivenessOracle
from repro.liveness.numbering import VariableNumbering
from repro.utils.bitset import BitSet
from repro.utils.instrument import record_allocation


class BitLivenessSets(LivenessOracle):
    """Live-in / live-out per block as bit-set rows over numbered variables."""

    #: Allocation-tracker category of the long-lived rows (Figure 7 bars).
    category = "liveness_bitsets"

    def __init__(
        self,
        function: Function,
        numbering: Optional[VariableNumbering] = None,
        flat: Optional[FlatFunction] = None,
    ) -> None:
        """``numbering`` lets one dense numbering be shared with the
        interference bit-matrix: when given, the function's variables are
        appended to it instead of numbering them into a private instance.

        ``flat`` shares an arena (the analysis cache passes its
        generation-stamped instance); when absent or stale, one is lowered
        privately — the solver never mutates it."""
        super().__init__(function)
        if numbering is None:
            numbering = VariableNumbering.of_function(function)
        else:
            for var in function.variables():
                numbering.ensure(var)
        self.numbering = numbering
        self.live_in: Dict[str, BitSet] = {}
        self.live_out: Dict[str, BitSet] = {}
        #: Authoritative raw rows (int masks); ``live_in``/``live_out`` are
        #: :class:`BitSet` views over them, rebuilt per-row when they change.
        self._bits_in: Dict[str, int] = {}
        self._bits_out: Dict[str, int] = {}
        #: The arena the solve runs over.
        self.flat = FlatFunction.current(flat, function, numbering)
        self._solve()
        self._record_footprint()

    # -- data-flow computation ------------------------------------------------
    def _solve(self) -> None:
        function = self.function
        flat = self.flat
        num_blocks = len(flat.labels)
        ids = flat.ids
        live_in = [0] * num_blocks
        live_out = [0] * num_blocks
        # Backward problem: seed the worklist in post-order (block ids are
        # RPO positions, so ids descending) so most information flows in one
        # pass.
        self._sweep(
            flat,
            live_in,
            live_out,
            deque(range(num_blocks - 1, -1, -1)),
            bytearray(b"\x01") * num_blocks,
        )

        # The numbering may have grown while lowering (defensive: variables()
        # already covers every def and use).
        universe = len(self.numbering)
        from_bits = BitSet.from_bits
        bits_in: Dict[str, int] = {}
        bits_out: Dict[str, int] = {}
        view_in: Dict[str, BitSet] = {}
        view_out: Dict[str, BitSet] = {}
        for label in function.blocks:
            block_id = ids[label]
            row_in = live_in[block_id]
            row_out = live_out[block_id]
            bits_in[label] = row_in
            bits_out[label] = row_out
            view_in[label] = from_bits(universe, row_in)
            view_out[label] = from_bits(universe, row_out)
        self._bits_in = bits_in
        self._bits_out = bits_out
        self.live_in = view_in
        self.live_out = view_out

    @staticmethod
    def _sweep(
        flat: FlatFunction,
        live_in: List[int],
        live_out: List[int],
        worklist: "deque[int]",
        queued: bytearray,
    ) -> None:
        """Run the backward transfer to a fixpoint over the arena's int rows:
        when a block's live-in changes, its predecessors are queued unless
        already queued."""
        succ_off = flat.succ_off
        succ_ids = flat.succ_ids
        edge_phi = flat.edge_phi
        pred_off = flat.pred_off
        pred_ids = flat.pred_ids
        defs_mask = flat.defs_mask
        upward_mask = flat.upward_mask
        phi_defs_mask = flat.phi_defs_mask
        popleft = worklist.popleft
        append = worklist.append
        while worklist:
            block = popleft()
            queued[block] = 0
            out = 0
            for position in range(succ_off[block], succ_off[block + 1]):
                successor = succ_ids[position]
                out |= (live_in[successor] & ~phi_defs_mask[successor]) | edge_phi[
                    position
                ]
            live_out[block] = out
            new_in = upward_mask[block] | (out & ~defs_mask[block])
            if new_in != live_in[block]:
                live_in[block] = new_in
                for position in range(pred_off[block], pred_off[block + 1]):
                    predecessor = pred_ids[position]
                    if not queued[predecessor]:
                        queued[predecessor] = 1
                        append(predecessor)

    def _record_footprint(self) -> None:
        record_allocation(self.category, self.footprint_bytes())

    # -- oracle interface -----------------------------------------------------
    def is_live_in(self, block_label: str, var: Variable) -> bool:
        index = self.numbering.get(var)
        return index is not None and index in self.live_in[block_label]

    def is_live_out(self, block_label: str, var: Variable) -> bool:
        index = self.numbering.get(var)
        return index is not None and index in self.live_out[block_label]

    def live_in_variables(self, block_label: str) -> Iterator[Variable]:
        """The live-in variables of a block (decoded from the bit row)."""
        variable = self.numbering.variable
        return (variable(index) for index in self.live_in[block_label])

    def live_out_variables(self, block_label: str) -> Iterator[Variable]:
        """The live-out variables of a block (decoded from the bit row)."""
        variable = self.numbering.variable
        return (variable(index) for index in self.live_out[block_label])

    # -- memory accounting ----------------------------------------------------
    def footprint_bytes(self) -> int:
        """Measured footprint of the rows: ``ceil(universe/8)`` bytes each,
        two rows per block — the quantity Figure 7's bit-set formula
        evaluates, here actually allocated."""
        return sum(row.footprint_bytes() for row in self.live_in.values()) + sum(
            row.footprint_bytes() for row in self.live_out.values()
        )

    def evaluated_bitset_footprint(self, num_variables: int) -> int:
        """The paper's closed-form estimate ``ceil(#vars/8) * #blocks * 2``."""
        return ((num_variables + 7) // 8) * len(self.function.blocks) * 2
