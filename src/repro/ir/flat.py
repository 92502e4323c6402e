"""The flat arena IR: contiguous int tables lowered once per function.

Every hot sweep in the out-of-SSA stack — the bit-set liveness worklist and
the interference edge scan — is a loop over the CFG and the def/use chains.
Walking the object graph (`Function` → `BasicBlock` → instruction objects,
label-keyed dicts at every hop) would make each step of those loops a hash
lookup plus attribute dereferences, so `FlatFunction` lowers the function
*once* into dense integer tables and both loops run only over its
`array('l')` rows and int masks:

* blocks become dense ids ``0 .. n-1`` in **reverse post-order** (unreachable
  blocks appended in declaration order), so a block id *is* its RPO position
  and the worklist seeding orders are plain integer ranges;
* successor and predecessor edges are CSR tables (one offsets array, one
  flat ids array);
* per-block instruction rows are spans into per-instruction tables: a use
  mask (bit = `DefUseIndex` variable id), and a defs span into ``def_ids`` with
  a parallel ``def_src`` column recording the copy source id of `Copy` /
  `ParallelCopy` destinations (``-1`` otherwise — that column is what the
  CHAITIN interference variant consults);
* the per-block liveness transfer masks (defs, upward-exposed uses, φ-defs)
  and the per-edge φ-argument masks are precomputed in the same shapes
  the bit-set liveness solve consumes.

The arena is registered as a cached analysis (generation-stamped like every
other entry in :class:`~repro.pipeline.analysis.AnalysisCache`); a pass that
mutates the function drops it, and the next consumer lowers it afresh.

Variable identity is shared, not duplicated: every id in the tables is a
:class:`~repro.ir.positions.DefUseIndex` id, the one numbering the bit-set
liveness rows, the interference matrix scan and the congruence classes also
key on, so masks move between the arena, the liveness rows, and the matrix
rows without any translation.  See ``docs/FLATIR.md`` for the full layout.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cfg.traversal import reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import Copy, ParallelCopy, Variable
from repro.ir.positions import DefUseIndex

#: Per-block instruction segment: (use masks, per-row def counts, def ids,
#: def source ids, defs mask, upward-exposed mask, φ-defs mask).
_Segment = Tuple[List[int], List[int], List[int], List[int], int, int, int]


class FlatFunction:
    """Dense int-table view of a :class:`Function` (see module docstring)."""

    __slots__ = (
        "function",
        "index",
        "labels",
        "ids",
        "entry",
        "decl",
        "params",
        "succ_off",
        "succ_ids",
        "pred_off",
        "pred_ids",
        "edge_phi",
        "phi_edge",
        "defs_mask",
        "upward_mask",
        "phi_defs_mask",
        "instr_off",
        "use_masks",
        "def_off",
        "def_ids",
        "def_src",
        "generation",
        "lowering_seconds",
        "nbytes",
    )

    def __init__(self, function: Function, index: Optional[DefUseIndex] = None) -> None:
        began = time.perf_counter()
        #: The lowered function and the :class:`DefUseIndex` whose ids the
        #: tables use (the analysis cache passes its shared index; without
        #: one, the function is walked here).
        self.function = function
        self.index = index if index is not None else DefUseIndex(function)
        self._build()
        self.lowering_seconds = time.perf_counter() - began

    @classmethod
    def current(
        cls,
        flat: Optional["FlatFunction"],
        function: Function,
        index: DefUseIndex,
    ) -> "FlatFunction":
        """``flat`` when it is a lowering of ``function`` over ``index`` at
        the function's current generation, else a fresh lowering — the rule
        every arena consumer handed a possibly stale arena follows."""
        if (
            flat is not None
            and flat.function is function
            and flat.index is index
            and flat.generation == function.generation
        ):
            return flat
        return cls(function, index)

    # -- lowering -------------------------------------------------------------
    @staticmethod
    def _lower_block(block, ids: Dict[Variable, int]) -> _Segment:
        """Lower one block's instruction rows.

        φ rows come first (their arguments are edge uses, so their use mask
        is 0 here and lives in the φ-edge tables instead), then the
        body/pcopy/terminator rows in schedule order — the same order
        ``block.instructions(include_phis=False)`` yields.  A use is
        upward-exposed iff no earlier row in the block defined it (the
        running defs mask).

        This is the hot loop of a lowering (one pass over every instruction
        of the function), so ``Copy`` / ``ParallelCopy`` operands are read
        directly instead of through ``uses()``/``defs()`` list building.
        """
        use_masks: List[int] = []
        def_counts: List[int] = []
        def_ids: List[int] = []
        def_src: List[int] = []
        use_append = use_masks.append
        count_append = def_counts.append
        id_append = def_ids.append
        src_append = def_src.append
        defs = 0
        upward = 0
        phi_defs = 0
        for phi in block.phis:
            index = ids[phi.dst]
            phi_defs |= 1 << index
            use_append(0)
            count_append(1)
            id_append(index)
            src_append(-1)
        for instruction in block.instructions(include_phis=False):
            use_mask = 0
            if isinstance(instruction, Copy):
                src = instruction.src
                if isinstance(src, Variable):
                    source = ids[src]
                    use_mask = 1 << source
                    if not defs & use_mask:
                        upward |= use_mask
                else:
                    source = -1
                index = ids[instruction.dst]
                id_append(index)
                src_append(source)
                defs |= 1 << index
                count = 1
            elif isinstance(instruction, ParallelCopy):
                pairs = instruction.pairs
                for _, src in pairs:
                    if isinstance(src, Variable):
                        bit = 1 << ids[src]
                        use_mask |= bit
                        if not defs & bit:
                            upward |= bit
                count = 0
                for dst, src in pairs:
                    index = ids[dst]
                    id_append(index)
                    src_append(ids[src] if isinstance(src, Variable) else -1)
                    defs |= 1 << index
                    count += 1
            else:
                for var in instruction.uses():
                    bit = 1 << ids[var]
                    use_mask |= bit
                    if not defs & bit:
                        upward |= bit
                count = 0
                for var in instruction.defs():
                    index = ids[var]
                    id_append(index)
                    src_append(-1)
                    defs |= 1 << index
                    count += 1
            use_append(use_mask)
            count_append(count)
        return (
            use_masks,
            def_counts,
            def_ids,
            def_src,
            defs | phi_defs,
            upward & ~phi_defs,
            phi_defs,
        )

    def _build(self) -> None:
        """Build every table from the function."""
        function = self.function
        blocks = function.blocks
        var_ids = self.index.ids

        # Block order: RPO-indexed ids (id == RPO position), unreachable
        # blocks appended in declaration order — the exact positions
        # `BitLivenessSets._rpo_order` assigns.
        order = reverse_postorder(function)
        if len(order) != len(blocks):
            reached = set(order)
            order = order + [label for label in blocks if label not in reached]
        self.labels = order
        self.ids = ids = {label: b for b, label in enumerate(order)}
        self.entry = (
            ids[function.entry_label] if function.entry_label is not None else -1
        )
        num_blocks = len(order)
        self.decl = array("l", (ids[label] for label in blocks))
        self.params = array("l", (var_ids[param] for param in function.params))

        # CFG edges as CSR: successors in terminator order; predecessors in
        # declaration order of the source block, duplicate edges preserved —
        # the orders `Function.successors` / `Function.predecessors` report.
        succ_off = array("l", [0])
        succ_ids = array("l")
        for label in order:
            for target in blocks[label].successor_labels():
                succ_ids.append(ids[target])
            succ_off.append(len(succ_ids))
        pred_lists: List[List[int]] = [[] for _ in range(num_blocks)]
        for label in blocks:
            source = ids[label]
            for position in range(succ_off[source], succ_off[source + 1]):
                pred_lists[succ_ids[position]].append(source)
        pred_off = array("l", [0])
        pred_ids = array("l")
        for preds in pred_lists:
            pred_ids.extend(preds)
            pred_off.append(len(pred_ids))
        self.succ_off = succ_off
        self.succ_ids = succ_ids
        self.pred_off = pred_off
        self.pred_ids = pred_ids

        # Per-block instruction rows and liveness transfer masks.
        defs_mask: List[int] = []
        upward_mask: List[int] = []
        phi_defs_mask: List[int] = []
        instr_off = array("l", [0])
        use_masks: List[int] = []
        def_off = array("l", [0])
        def_ids = array("l")
        def_src = array("l")
        lower_block = self._lower_block
        running = 0
        for label in order:
            uses, counts, dids, dsrc, defs, upward, phi_defs = lower_block(
                blocks[label], var_ids
            )
            use_masks.extend(uses)
            for count in counts:
                running += count
                def_off.append(running)
            def_ids.extend(dids)
            def_src.extend(dsrc)
            instr_off.append(len(use_masks))
            defs_mask.append(defs)
            upward_mask.append(upward)
            phi_defs_mask.append(phi_defs)
        self.defs_mask = defs_mask
        self.upward_mask = upward_mask
        self.phi_defs_mask = phi_defs_mask
        self.instr_off = instr_off
        self.use_masks = use_masks
        self.def_off = def_off
        self.def_ids = def_ids
        self.def_src = def_src

        # φ-argument edge masks: label-keyed (the round-trip view) and
        # aligned with the successor CSR (what the liveness solve reads).
        phi_edge: Dict[Tuple[str, str], int] = {}
        for label, block in blocks.items():
            for phi in block.phis:
                for pred, arg in phi.args.items():
                    if isinstance(arg, Variable):
                        key = (pred, label)
                        phi_edge[key] = phi_edge.get(key, 0) | 1 << var_ids[arg]
        self.phi_edge = phi_edge
        edge_phi = [0] * len(succ_ids)
        if phi_edge:
            by_ids = {
                (ids[pred], ids[succ]): mask
                for (pred, succ), mask in phi_edge.items()
                if pred in ids and succ in ids
            }
            for source in range(num_blocks):
                for position in range(succ_off[source], succ_off[source + 1]):
                    mask = by_ids.get((source, succ_ids[position]))
                    if mask:
                        edge_phi[position] = mask
        self.edge_phi = edge_phi

        self.generation = function.generation
        self.nbytes = self._measure()

    # -- round-trip helpers (property tests, diagnostics) ---------------------
    def successors_of(self, label: str) -> List[str]:
        block_id = self.ids[label]
        return [
            self.labels[self.succ_ids[position]]
            for position in range(
                self.succ_off[block_id], self.succ_off[block_id + 1]
            )
        ]

    def predecessors_of(self, label: str) -> List[str]:
        block_id = self.ids[label]
        return [
            self.labels[self.pred_ids[position]]
            for position in range(
                self.pred_off[block_id], self.pred_off[block_id + 1]
            )
        ]

    def block_masks(self, label: str) -> Tuple[int, int, int]:
        """(defs, upward-exposed, φ-defs) masks of one block."""
        block_id = self.ids[label]
        return (
            self.defs_mask[block_id],
            self.upward_mask[block_id],
            self.phi_defs_mask[block_id],
        )

    def instruction_rows(self, label: str) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
        """Per-instruction ``(def ids, def source ids, use mask)`` rows."""
        block_id = self.ids[label]
        rows = []
        for row in range(self.instr_off[block_id], self.instr_off[block_id + 1]):
            span0 = self.def_off[row]
            span1 = self.def_off[row + 1]
            rows.append(
                (
                    tuple(self.def_ids[span0:span1]),
                    tuple(self.def_src[span0:span1]),
                    self.use_masks[row],
                )
            )
        return rows

    # -- memory accounting ----------------------------------------------------
    def _measure(self) -> int:
        """Measured byte size of the tables: exact for the ``array('l')``
        rows, payload bytes (``bit_length/8`` + one pointer) for the int-mask
        lists — the number `OutOfSSAStats.flat_bytes` reports next to
        ``matrix_bytes``."""
        total = 0
        for table in (
            self.decl,
            self.params,
            self.succ_off,
            self.succ_ids,
            self.pred_off,
            self.pred_ids,
            self.instr_off,
            self.def_off,
            self.def_ids,
            self.def_src,
        ):
            total += table.itemsize * len(table)
        for masks in (
            self.defs_mask,
            self.upward_mask,
            self.phi_defs_mask,
            self.use_masks,
            self.edge_phi,
        ):
            total += 8 * len(masks)
            for mask in masks:
                total += (mask.bit_length() + 7) // 8
        for mask in self.phi_edge.values():
            total += (mask.bit_length() + 7) // 8
        return total

    def footprint_bytes(self) -> int:
        return self.nbytes
