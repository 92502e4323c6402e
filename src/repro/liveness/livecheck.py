"""Liveness *checking* without global liveness sets.

This plays the role of the fast liveness checking of Boissinot et al.
(CGO'08), reference [16] of the paper: answer "is variable ``v`` live at this
program point?" without ever building per-block live-in/live-out sets.

Substitution note (see docs/LIVENESS.md, "`check`"): instead of the
original's loop-nesting reachability sets, queries are answered by exact
per-variable backward walks from the uses towards the definition, cached per
variable the first time the variable is queried.  The checker precomputes nothing over the CFG.  The
Figure 7 memory charge of the "LiveCheck" configurations is the paper's
closed-form model of the CGO'08 sets (two bit-sets of #blocks bits per
block, see :meth:`LivenessChecker.footprint_bytes`), not a structure this
checker retains.

The walk caches are filled once per translation and never patched: the
paper's remark that liveness-checking structures stay "valid even if
instructions are moved, introduced, or removed" is about the CGO'08
CFG-only sets, which are not built here.  Every pass that edits the function
drops the checker, and the next query builds a fresh one over the cache's
one :class:`~repro.ir.positions.DefUseIndex`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.ir.positions import DefUseIndex, edge_index
from repro.liveness.base import LivenessOracle
from repro.utils.instrument import record_allocation


class LivenessChecker(LivenessOracle):
    """Query-based liveness oracle (no global live-in / live-out sets)."""

    def __init__(self, function: Function, index: Optional[DefUseIndex] = None) -> None:
        super().__init__(function, index)
        # Per-variable caches, filled lazily on first query.
        self._live_in_blocks: Dict[Variable, Set[str]] = {}
        self._live_out_blocks: Dict[Variable, Set[str]] = {}
        record_allocation("livecheck", self.footprint_bytes())

    # -- per-variable backward walks --------------------------------------------------
    def _ensure_variable(self, var: Variable) -> None:
        if var in self._live_in_blocks:
            return
        live_in: Set[str] = set()
        live_out: Set[str] = set()
        def_point = self.def_points.get(var)
        # Function parameters are defined at the virtual index -1, *before* the
        # entry block: they are live-in at the entry like any other live-through
        # variable, so their definition block must not stop the backward walk.
        def_block = (
            def_point.block if def_point is not None and def_point.index >= 0 else None
        )

        worklist = []
        blocks = self.function.blocks
        for use_block, use_index in self.use_points.get(var, ()):  # pragma: no branch
            if use_index == edge_index(blocks[use_block]):
                # φ-argument read on the out-edges of ``use_block``.
                live_out.add(use_block)
                if use_block != def_block:
                    if use_block not in live_in:
                        live_in.add(use_block)
                        worklist.append(use_block)
            else:
                if use_block != def_block or (def_point is not None and def_point.index > use_index):
                    if use_block not in live_in:
                        live_in.add(use_block)
                        worklist.append(use_block)

        while worklist:
            label = worklist.pop()
            for pred in self.function.predecessors(label):
                live_out.add(pred)
                if pred != def_block and pred not in live_in:
                    live_in.add(pred)
                    worklist.append(pred)

        self._live_in_blocks[var] = live_in
        self._live_out_blocks[var] = live_out

    # -- oracle interface ----------------------------------------------------------------
    def is_live_in(self, block_label: str, var: Variable) -> bool:
        self._ensure_variable(var)
        return block_label in self._live_in_blocks[var]

    def is_live_out(self, block_label: str, var: Variable) -> bool:
        self._ensure_variable(var)
        return block_label in self._live_out_blocks[var]

    # -- memory accounting ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        """The paper's closed-form model of the CGO'08 sets: two bit-sets of
        #blocks bits per block.  Nothing of that size is built here; the
        charge keeps Figure 7's LiveCheck bars on the paper's accounting."""
        num_blocks = len(self.function.blocks)
        return ((num_blocks + 7) // 8) * num_blocks * 2
