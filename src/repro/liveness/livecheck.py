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

A walk cache survives every edit that neither mentions its variable nor
splits an edge the variable is live across, which is the property the paper
relies on ("these data structures are thus still valid even if instructions
are moved, introduced, or removed").
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.editlog import BLOCK_SPLIT, EditLog
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

    # -- incremental invalidation ----------------------------------------------------
    def apply_edits(self, log: EditLog) -> int:
        """Patch the per-variable answer caches from one structural edit log.

        The lazily-filled per-variable walk caches stay exact for every
        variable no edit mentions (the :class:`~repro.ir.editlog.EditLog`
        contract: a block whose instructions mention an affected variable is
        logged as touched), so only the affected entries are dropped — they
        refill on the next query instead of the whole oracle being rebuilt.

        Split edges additionally invalidate the cached walks of variables
        that may be live across (or φ-read on) the split edge: their block
        sets gain the new block.  The test is conservative — live-out of the
        split source or live-in of the split target — which can only drop a
        still-valid cache entry, never keep a stale one.

        Returns the number of cached variable entries dropped.
        """
        dropped = 0

        def drop(var: Variable) -> None:
            nonlocal dropped
            had = var in self._live_in_blocks or var in self._live_out_blocks
            self._live_in_blocks.pop(var, None)
            self._live_out_blocks.pop(var, None)
            if had:
                dropped += 1

        for var in log.affected_variables():
            drop(var)

        for edit in log:
            if edit.kind != BLOCK_SPLIT or len(edit.blocks) != 3:
                continue
            source, _new_label, target = edit.blocks
            stale = [
                var
                for var, outs in self._live_out_blocks.items()
                if source in outs or target in self._live_in_blocks.get(var, ())
            ]
            for var in stale:
                drop(var)

        # Re-index the definition/use position maps eagerly, from a fresh
        # DefUseIndex of the edited function (the cache's shared one is
        # stale now): queries are the hot path of every LiveCheck engine, so
        # they must stay free of staleness checks; the patch itself is still
        # far below a rebuild (the per-variable walk caches — the expensive
        # part — refill only for the dropped entries).
        self._index_positions()
        return dropped

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
