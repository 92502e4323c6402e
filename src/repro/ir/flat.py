"""The flat arena IR core: contiguous int tables lowered once per function.

Every hot sweep in the out-of-SSA stack — the bit-set liveness worklist and
the interference edge scan — is a loop over the CFG
and the def/use chains.  Walking the object graph (`Function` → `BasicBlock`
→ instruction objects, label-keyed dicts at every hop) makes each step of
those loops a hash lookup plus attribute dereferences.  `FlatFunction`
lowers the function *once* into dense integer tables so the same loops run
over `array('l')` rows and int masks:

* blocks become dense ids ``0 .. n-1`` in **reverse post-order** (unreachable
  blocks appended in declaration order), so a block id *is* its RPO position
  and the worklist seeding orders are plain integer ranges;
* successor and predecessor edges are CSR tables (one offsets array, one
  flat ids array);
* per-block instruction rows are spans into per-instruction tables: a use
  mask (bit = `VariableNumbering` id), and a defs span into ``def_ids`` with
  a parallel ``def_src`` column recording the copy source id of `Copy` /
  `ParallelCopy` destinations (``-1`` otherwise — that column is what the
  CHAITIN interference variant consults);
* the per-block liveness transfer masks (defs, upward-exposed uses, φ-defs)
  and the per-edge φ-argument masks are precomputed in the same shapes
  `BitLivenessSets` uses, so the flat and object solvers are bit-for-bit
  interchangeable.

The arena is registered as a cached analysis (generation-stamped like every
other entry in :class:`~repro.pipeline.analysis.AnalysisCache`) and is
patched through the :class:`~repro.ir.editlog.EditLog` seam the mutating
passes emit: :meth:`apply_edits` re-lowers only the touched
blocks' instruction rows and splices the untouched spans over, rebuilding
the (cheap) CFG tables from scratch.

Variable identity is shared, not duplicated: every id in the tables comes
from the one :class:`~repro.liveness.numbering.VariableNumbering` the bit-set
liveness rows and the interference bit-matrix already key on, so masks move
between the arena, the liveness rows, and the matrix rows without any
translation.  See ``docs/FLATIR.md`` for the full layout and the patching
contract.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cfg.traversal import reverse_postorder
from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.ir.instructions import Copy, ParallelCopy, Variable
from repro.liveness.numbering import VariableNumbering

#: Per-block instruction segment: (use masks, per-row def counts, def ids,
#: def source ids, defs mask, upward-exposed mask, φ-defs mask).  The unit
#: `apply_edits` re-lowers or splices.
_Segment = Tuple[List[int], List[int], List[int], List[int], int, int, int]


class FlatFunction:
    """Dense int-table view of a :class:`Function` (see module docstring)."""

    __slots__ = (
        "function",
        "numbering",
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

    def __init__(
        self, function: Function, numbering: Optional[VariableNumbering] = None
    ) -> None:
        began = time.perf_counter()
        if numbering is None:
            numbering = VariableNumbering.of_function(function)
        #: The lowered function and the shared variable numbering.  The
        #: numbering is *appended to* (``ensure``) while lowering, exactly as
        #: the bit-set liveness constructor does, so ids agree across cores.
        self.function = function
        self.numbering = numbering
        self._build({})
        self.lowering_seconds = time.perf_counter() - began

    @classmethod
    def lower(
        cls, function: Function, numbering: Optional[VariableNumbering] = None
    ) -> "FlatFunction":
        """Lower ``function`` into a fresh arena (alias of the constructor)."""
        return cls(function, numbering)

    # -- lowering -------------------------------------------------------------
    @staticmethod
    def _lower_block(block, numbering: VariableNumbering) -> _Segment:
        """Lower one block's instruction rows.

        φ rows come first (their arguments are edge uses, so their use mask
        is 0 here and lives in the φ-edge tables instead), then the
        body/pcopy/terminator rows in schedule order — the same order
        ``block.instructions(include_phis=False)`` yields.  The running defs
        mask reproduces ``BitLivenessSets._block_masks``: a use is
        upward-exposed iff no earlier row in the block defined it.

        This is the hot loop of a lowering (one pass over every instruction
        of the function), so ``Copy`` / ``ParallelCopy`` operands are read
        directly instead of through ``uses()``/``defs()`` list building, and
        the numbering's index dict is consulted first — ``ensure`` only runs
        on a genuinely new variable.
        """
        index_get = numbering._index.get
        ensure = numbering.ensure
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
            dst = phi.dst
            index = index_get(dst)
            if index is None:
                index = ensure(dst)
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
                    source = index_get(src)
                    if source is None:
                        source = ensure(src)
                    use_mask = 1 << source
                    if not defs & use_mask:
                        upward |= use_mask
                else:
                    source = -1
                dst = instruction.dst
                index = index_get(dst)
                if index is None:
                    index = ensure(dst)
                id_append(index)
                src_append(source)
                defs |= 1 << index
                count = 1
            elif isinstance(instruction, ParallelCopy):
                pairs = instruction.pairs
                for _, src in pairs:
                    if isinstance(src, Variable):
                        index = index_get(src)
                        if index is None:
                            index = ensure(src)
                        bit = 1 << index
                        use_mask |= bit
                        if not defs & bit:
                            upward |= bit
                count = 0
                for dst, src in pairs:
                    index = index_get(dst)
                    if index is None:
                        index = ensure(dst)
                    if isinstance(src, Variable):
                        source = index_get(src)
                        if source is None:
                            source = ensure(src)
                    else:
                        source = -1
                    id_append(index)
                    src_append(source)
                    defs |= 1 << index
                    count += 1
            else:
                for var in instruction.uses():
                    index = index_get(var)
                    if index is None:
                        index = ensure(var)
                    bit = 1 << index
                    use_mask |= bit
                    if not defs & bit:
                        upward |= bit
                count = 0
                for var in instruction.defs():
                    index = index_get(var)
                    if index is None:
                        index = ensure(var)
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

    def _build(self, segments: Dict[str, _Segment]) -> None:
        """(Re)build every table; ``segments`` supplies pre-lowered per-block
        instruction rows for blocks whose contents did not change."""
        function = self.function
        blocks = function.blocks
        ensure = self.numbering.ensure

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
        self.params = array("l", (ensure(param) for param in function.params))

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
        numbering = self.numbering
        running = 0
        for label in order:
            segment = segments.get(label)
            if segment is None:
                segment = lower_block(blocks[label], numbering)
            uses, counts, dids, dsrc, defs, upward, phi_defs = segment
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

        # φ-argument edge masks: label-keyed (what the object solver reads)
        # and aligned with the successor CSR (what the flat solver reads).
        phi_edge: Dict[Tuple[str, str], int] = {}
        for label, block in blocks.items():
            for phi in block.phis:
                for pred, arg in phi.args.items():
                    if isinstance(arg, Variable):
                        key = (pred, label)
                        phi_edge[key] = phi_edge.get(key, 0) | 1 << ensure(arg)
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

    # -- EditLog patching -----------------------------------------------------
    def _segment(self, label: str) -> _Segment:
        """Extract a block's instruction rows back out of the global tables."""
        block_id = self.ids[label]
        row0 = self.instr_off[block_id]
        row1 = self.instr_off[block_id + 1]
        use_masks = self.use_masks[row0:row1]
        def_off = self.def_off
        def_counts = [def_off[row + 1] - def_off[row] for row in range(row0, row1)]
        span0 = def_off[row0]
        span1 = def_off[row1]
        return (
            use_masks,
            def_counts,
            list(self.def_ids[span0:span1]),
            list(self.def_src[span0:span1]),
            self.defs_mask[block_id],
            self.upward_mask[block_id],
            self.phi_defs_mask[block_id],
        )

    def apply_edits(self, log: EditLog) -> None:
        """Patch the arena from one pass-emitted edit log.

        The expensive part of a lowering is the per-block instruction rows;
        only the rows of blocks the log touched (or created) are re-lowered —
        every other block's segment is spliced over unchanged.  The CFG
        tables (order, edges, φ-edge masks) are small and order-sensitive,
        so they are rebuilt outright; the result is table-for-table equal to
        a fresh lowering of the edited function.
        """
        began = time.perf_counter()
        ensure = self.numbering.ensure
        for var in log.affected_variables():
            ensure(var)
        blocks = self.function.blocks
        touched = {label for label in log.touched_blocks() if label in blocks}
        touched.update(label for label in log.new_blocks if label in blocks)
        kept: Dict[str, _Segment] = {}
        for label in self.labels:
            if label in touched or label not in blocks:
                continue
            kept[label] = self._segment(label)
        self._build(kept)
        self.lowering_seconds += time.perf_counter() - began

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
        """(defs, upward-exposed, φ-defs) masks — ``_block_masks`` shape."""
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
