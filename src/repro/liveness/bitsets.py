"""Bit-set backed liveness: the paper's cheap live-in / live-out encoding.

This is the second data-flow liveness backend (selected with
``liveness="bitsets"``): semantically identical to
:class:`~repro.liveness.dataflow.LivenessSets`, but variables are numbered
once (:class:`~repro.liveness.numbering.VariableNumbering`, shared with the
interference bit-matrix) and every live-in / live-out set is a
:class:`~repro.utils.bitset.BitSet` row, so the footprint is the closed-form
``ceil(#variables / 8) * #basicblocks * 2`` that Figure 7 evaluates — here it
is also *measured*, through the allocation tracker.

The fixpoint is solved with a worklist seeded in post-order (the orders come
from :mod:`repro.cfg.traversal`), the fastest single-sweep direction for a
backward problem; a block is re-queued only when the live-in set of one of
its successors actually changes, instead of re-sweeping the whole function
round-robin as the ordered-set backend does.

The φ conventions are those of :mod:`repro.liveness.base`: φ-arguments are
uses on the incoming edge (live-out of the predecessor they flow from, not
live-in of the φ's block) and φ-results are defined at the top of their block.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.cfg.traversal import reverse_postorder
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
    ) -> None:
        """``numbering`` lets one dense numbering be shared with the
        interference bit-matrix: when given, the function's variables are
        appended to it instead of numbering them into a private instance."""
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
        #: Per-block (defs, upward-exposed, φ-defs) masks and φ-edge masks.
        self._masks: Dict[str, Tuple[int, int, int]] = {}
        self._phi_edge: Dict[Tuple[str, str], int] = {}
        self._solve()
        self._record_footprint()

    # -- data-flow computation ------------------------------------------------
    def _block_masks(self, block_label: str) -> Tuple[int, int, int]:
        """(defs, upward-exposed uses, φ-defs) of a block, as bit masks."""
        block = self.function.blocks[block_label]
        ensure = self.numbering.ensure
        defs = 0
        upward = 0
        for instruction in block.instructions(include_phis=False):
            for var in instruction.uses():
                bit = 1 << ensure(var)
                if not defs & bit:
                    upward |= bit
            for var in instruction.defs():
                defs |= 1 << ensure(var)
        phi_defs = 0
        for phi in block.phis:
            phi_defs |= 1 << ensure(phi.dst)
        return defs | phi_defs, upward & ~phi_defs, phi_defs

    def _phi_edge_masks(self) -> Dict[Tuple[str, str], int]:
        """Mask of variables read by φs of ``succ`` on each ``pred -> succ`` edge."""
        ensure = self.numbering.ensure
        masks: Dict[Tuple[str, str], int] = {}
        for label, block in self.function.blocks.items():
            for phi in block.phis:
                for pred, arg in phi.args.items():
                    if isinstance(arg, Variable):
                        key = (pred, label)
                        masks[key] = masks.get(key, 0) | 1 << ensure(arg)
        return masks

    def _sweep(
        self,
        live_in: Dict[str, int],
        live_out: Dict[str, int],
        worklist: "deque[str]",
        queued: Set[str],
    ) -> None:
        """Run the backward transfer to a fixpoint over raw int masks."""
        masks = self._masks
        phi_edge = self._phi_edge
        successors = self.function.successors
        predecessors = self.function.predecessors
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            out = 0
            for successor in successors(label):
                out |= live_in[successor] & ~masks[successor][2]
                out |= phi_edge.get((label, successor), 0)
            live_out[label] = out
            defs, upward, _phi_defs = masks[label]
            new_in = upward | (out & ~defs)
            if new_in != live_in[label]:
                live_in[label] = new_in
                for predecessor in predecessors(label):
                    if predecessor not in queued:
                        queued.add(predecessor)
                        worklist.append(predecessor)

    def _rpo_order(self) -> List[str]:
        """Every block in reverse post-order; unreachable blocks are appended
        after the reachable ones, in declaration order (the ordered backend
        computes liveness for them too, and exact equality with it is a
        tested invariant)."""
        order = reverse_postorder(self.function)
        reached = set(order)
        order += [label for label in self.function.blocks if label not in reached]
        return order

    def _solve(self) -> None:
        function = self.function
        labels = list(function.blocks)
        self._masks = {label: self._block_masks(label) for label in labels}
        self._phi_edge = self._phi_edge_masks()

        live_in = {label: 0 for label in labels}
        live_out = {label: 0 for label in labels}
        # Backward problem: seed the worklist with the blocks in post-order
        # (last block of the RPO first) so most information flows in one pass.
        self._sweep(live_in, live_out, deque(reversed(self._rpo_order())), set(labels))

        # The numbering may have grown while scanning (defensive: variables()
        # already covers every def and use).
        universe = len(self.numbering)
        self._bits_in = live_in
        self._bits_out = live_out
        self.live_in = {
            label: BitSet.from_bits(universe, live_in[label]) for label in labels
        }
        self.live_out = {
            label: BitSet.from_bits(universe, live_out[label]) for label in labels
        }

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
