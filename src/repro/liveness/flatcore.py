"""Flat-core bit-set liveness: the worklist transfer over int-indexed tables.

`FlatBitLiveness` is a drop-in subclass of the object-graph solver that
replaces only the *cold solve*: instead of walking `Function.blocks` through
label-keyed dicts, `_solve` runs the same backward transfer

    out(b)    = OR over successors s of (in(s) & ~phi_defs(s)) | phi_edge(b, s)
    new_in(b) = upward(b) | (out(b) & ~defs(b))

over the :class:`~repro.ir.flat.FlatFunction` arena — block ids are RPO
positions, successor/predecessor edges are CSR rows, the transfer masks are
list entries — so each worklist step is pure int indexing.  The worklist is
seeded exactly like the base class (post-order, i.e. ids descending), so
every live-in / live-out row is bit-for-bit identical to the objects core —
a property test diffs them.

After the int solve, the label-keyed rows the base class exposes
(``_bits_in``/``_bits_out`` and the ``BitSet`` views) are populated in
declaration order, which is all its consumers read.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.numbering import VariableNumbering
from repro.utils.bitset import BitSet


class FlatBitLiveness(BitLivenessSets):
    """`BitLivenessSets` with the cold solve on the flat arena (``--core flat``).

    The arena can be shared through the ``flat=`` keyword (the analysis cache
    passes its generation-stamped instance); when absent or stale, one is
    lowered privately — the solver never mutates it.
    """

    def __init__(
        self,
        function: Function,
        numbering: Optional[VariableNumbering] = None,
        flat: Optional[FlatFunction] = None,
    ) -> None:
        self._flat = flat
        super().__init__(function, numbering=numbering)

    @property
    def flat(self) -> Optional[FlatFunction]:
        """The arena the cold solve ran over."""
        return self._flat

    # -- cold solve over the arena -------------------------------------------
    def _solve(self) -> None:
        function = self.function
        flat = self._flat
        if (
            flat is None
            or flat.function is not function
            or flat.numbering is not self.numbering
            or flat.generation != function.generation
        ):
            flat = self._flat = FlatFunction(function, self.numbering)
        num_blocks = len(flat.labels)
        ids = flat.ids
        live_in = [0] * num_blocks
        live_out = [0] * num_blocks
        self._flat_sweep(
            flat,
            live_in,
            live_out,
            deque(range(num_blocks - 1, -1, -1)),
            bytearray(b"\x01") * num_blocks,
        )

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
    def _flat_sweep(
        flat: FlatFunction,
        live_in: List[int],
        live_out: List[int],
        worklist: "deque[int]",
        queued: bytearray,
    ) -> None:
        """One worklist fixpoint over int rows.

        The re-queue discipline mirrors ``BitLivenessSets._sweep``: when a
        block's live-in changes, its predecessors are queued unless already
        queued.
        """
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
