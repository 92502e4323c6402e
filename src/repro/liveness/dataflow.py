"""Classic iterative data-flow liveness: live-in / live-out sets per block.

This is the *reference* set-based backend (``liveness="sets"``): a round-robin
fixpoint over :class:`~repro.utils.orderedset.OrderedSet` live-in / live-out
sets, deliberately simple so it can serve as the semantic oracle that the
fast bit-set backend (:class:`~repro.liveness.bitsets.BitLivenessSets`, which
the paper's set-based engine configurations actually run on) is tested
against.  The ordered-set footprint feeds the Figure 7 "evaluated ordered"
memory column.

The transfer functions implement the SSA conventions documented in
:mod:`repro.liveness.base`: φ-arguments are live-out of the predecessor they
flow from and φ-results are defined at the top of their block.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.function import Function
from repro.ir.instructions import Phi, Variable
from repro.ir.positions import DefUseIndex
from repro.liveness.base import LivenessOracle
from repro.utils.instrument import record_allocation
from repro.utils.orderedset import OrderedSet


class LivenessSets(LivenessOracle):
    """Live-in / live-out sets for every block, computed to a fixpoint."""

    def __init__(self, function: Function, index: Optional[DefUseIndex] = None) -> None:
        super().__init__(function, index)
        self.live_in: Dict[str, OrderedSet] = {}
        self.live_out: Dict[str, OrderedSet] = {}
        self._compute()
        self._record_footprint()

    # -- data-flow computation -------------------------------------------------
    def _block_locals(self, block_label: str):
        """(defs, upward-exposed uses) of a block, φ conventions applied."""
        block = self.function.blocks[block_label]
        defs: Set[Variable] = set()
        upward: Set[Variable] = set()
        for instruction in block.instructions(include_phis=False):
            for var in instruction.uses():
                if var not in defs:
                    upward.add(var)
            for var in instruction.defs():
                defs.add(var)
        # φ-functions define their result at the top of the block (before any
        # body instruction), and their arguments are *not* uses here.
        phi_defs = {phi.dst for phi in block.phis}
        return defs | phi_defs, upward - phi_defs

    def _phi_uses_on_edge(self, pred_label: str, succ_label: str) -> Set[Variable]:
        """Variables read on the edge ``pred -> succ`` by φ-functions of ``succ``."""
        result: Set[Variable] = set()
        for phi in self.function.blocks[succ_label].phis:
            arg = phi.args.get(pred_label)
            if isinstance(arg, Variable):
                result.add(arg)
        return result

    def _compute(self) -> None:
        function = self.function
        labels = list(function.blocks)
        self.live_in = {label: OrderedSet() for label in labels}
        self.live_out = {label: OrderedSet() for label in labels}
        block_locals = {label: self._block_locals(label) for label in labels}
        phi_defs = {
            label: {phi.dst for phi in function.blocks[label].phis} for label in labels
        }

        changed = True
        while changed:
            changed = False
            for label in reversed(labels):
                defs, upward = block_locals[label]
                new_out: Set[Variable] = set()
                for successor in function.successors(label):
                    # live-in of the successor minus its φ-defs, plus the
                    # φ-arguments flowing along this particular edge.
                    new_out.update(
                        var for var in self.live_in[successor] if var not in phi_defs[successor]
                    )
                    new_out.update(self._phi_uses_on_edge(label, successor))
                new_in = upward | (new_out - defs)
                if set(self.live_out[label]) != new_out:
                    self.live_out[label] = OrderedSet(sorted(new_out, key=lambda v: v.name))
                    changed = True
                if set(self.live_in[label]) != new_in:
                    self.live_in[label] = OrderedSet(sorted(new_in, key=lambda v: v.name))
                    changed = True

    def _record_footprint(self) -> None:
        record_allocation("liveness_sets", self.footprint_bytes())

    # -- oracle interface ---------------------------------------------------------
    def is_live_in(self, block_label: str, var: Variable) -> bool:
        return var in self.live_in[block_label]

    def is_live_out(self, block_label: str, var: Variable) -> bool:
        return var in self.live_out[block_label]

    # -- memory accounting -------------------------------------------------------------
    def footprint_bytes(self) -> int:
        """Footprint of the ordered live-in/live-out sets (8 bytes per entry)."""
        return sum(s.footprint_bytes() for s in self.live_in.values()) + sum(
            s.footprint_bytes() for s in self.live_out.values()
        )

    def evaluated_bitset_footprint(self, num_variables: int) -> int:
        """The paper's bit-set estimate ``ceil(#vars/8) * #blocks * 2``."""
        return ((num_variables + 7) // 8) * len(self.function.blocks) * 2

    def evaluated_ordered_footprint(self) -> int:
        """The paper's ordered-set estimate (sum of the set sizes, in words)."""
        return self.footprint_bytes()
