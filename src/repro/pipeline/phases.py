"""The paper's four out-of-SSA phases as pipeline passes (§III).

These are the phases the legacy monolithic ``destruct_ssa`` ran inline, now
split into pass objects over a shared :class:`~repro.pipeline.analysis.AnalysisCache`:

1. :class:`IsolationPass` — Method I parallel-copy insertion for every
   φ-function; φ congruence classes and register-pinned groups are
   pre-coalesced later, once the interference machinery exists.
2. :class:`InterferencePass` — liveness, live-range intersection, SSA values
   and the configured interference *backend* (``matrix`` / ``query``, see
   :mod:`repro.interference.base`), registered in the
   :class:`~repro.pipeline.analysis.AnalysisCache` over the run's restricted
   candidate universe and sharing the liveness backend's variable ids.
3. :class:`CoalescingPass` — aggressive, weight-driven coalescing of all
   copy-related affinities (Figure 5 variants), optionally followed by the
   copy-sharing post-pass.
4. :class:`MaterializationPass` — rename to congruence-class representatives,
   drop φs, sequentialize surviving parallel copies (Algorithm 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coalescing.engine import Affinity, AggressiveCoalescer, collect_affinities
from repro.coalescing.sharing import apply_copy_sharing
from repro.interference.congruence import CongruenceClasses
from repro.ir.editlog import EditLog
from repro.ir.flat import FlatFunction
from repro.ir.function import Function
from repro.ir.instructions import Constant, Copy, ParallelCopy, Variable
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.livecheck import LivenessChecker
from repro.outofssa.method_i import PhiCopyInsertion, insert_phi_copies
from repro.outofssa.parallel_copy import sequentialize_parallel_copy
from repro.outofssa.pinning import pinned_register_groups
from repro.pipeline.analysis import (
    INTERFERENCE_CLASSES,
    BlockFrequencies,
    build_interference_backend,
)
from repro.pipeline.passes import PRESERVES_ALL, Pass


def candidate_universe(
    function: Function,
    insertion: PhiCopyInsertion,
    affinities: List[Affinity],
) -> List[Variable]:
    """The φ-related and copy-related variables (the paper's restricted universe)."""
    seen: Dict[Variable, None] = {}
    for members in insertion.phi_nodes:
        for var in members:
            seen.setdefault(var, None)
    for affinity in affinities:
        seen.setdefault(affinity.dst, None)
        seen.setdefault(affinity.src, None)
    for var in function.pinned:
        seen.setdefault(var, None)
    return list(seen)


def _patch_warm_analyses(ctx, checker: LivenessChecker, log: EditLog) -> None:
    """Feed one edit log to the liveness checker's per-variable caches.

    The checker is vouched for via ``ctx.patched_analyses`` so the
    :class:`~repro.pipeline.pipeline.PassManager` re-stamps instead of
    dropping it; every other analysis, the flat arena included, is rebuilt
    cold when next requested.
    """
    checker.apply_edits(log)
    ctx.patched_analyses.append(LivenessChecker)


# --------------------------------------------------------------------------- phase 1
class IsolationPass(Pass):
    """Method I: isolate φ-functions behind parallel copies."""

    name = "isolate"
    preserves = ()  # inserts copies, may split blocks: everything is stale

    def run(self, ctx) -> None:
        # Warm-cache fast path (JIT re-translation): the livecheck answer
        # caches survive the insertion as a patch instead of a recompute.
        checker: Optional[LivenessChecker] = ctx.analyses.cached(LivenessChecker)

        insertion = insert_phi_copies(ctx.function, on_branch_def=ctx.config.on_branch_def)
        ctx.insertion = insertion
        ctx.stats.inserted_phi_copies = insertion.inserted_copy_count
        ctx.stats.split_blocks = len(insertion.split_blocks)

        if checker is not None:
            _patch_warm_analyses(ctx, checker, insertion.edit_log())


# --------------------------------------------------------------------------- phase 2
class InterferencePass(Pass):
    """Set up the analyses and the configured interference backend."""

    name = "interference"
    preserves = PRESERVES_ALL  # pure analysis: the function is not mutated

    def run(self, ctx) -> None:
        function = ctx.function
        config = ctx.config
        cache = ctx.analyses
        stats = ctx.stats

        # The explicit override (e.g. profile data handed to ``destruct_ssa``)
        # wins over the statically estimated frequencies.
        if ctx.frequencies is None:
            ctx.frequencies = cache.get(BlockFrequencies)

        liveness = cache.liveness()

        affinities = collect_affinities(function, ctx.insertion, ctx.frequencies)
        stats.affinities = len(affinities)

        universe = candidate_universe(function, ctx.insertion, affinities)
        stats.candidate_variables = len(universe)
        stats.num_blocks = len(function.blocks)
        if isinstance(liveness, (LivenessSets, BitLivenessSets)):
            stats.liveness_set_entries = sum(
                len(s) for s in liveness.live_in.values()
            ) + sum(len(s) for s in liveness.live_out.values())

        # The configured interference backend, registered in (and served from)
        # the analysis cache with the run's restricted candidate universe.
        # One variable numbering per run: the DefUseIndex ids back the bit-set
        # liveness rows (when enabled), the matrix scan and the classes.
        backend_class = INTERFERENCE_CLASSES[config.interference]
        cache.register(
            backend_class,
            lambda c, _cls=backend_class, _universe=universe: build_interference_backend(
                c, universe=_universe, backend_class=_cls
            ),
        )
        test = cache.get(backend_class)
        stats.interference_backend = config.interference

        ctx.affinities = affinities
        ctx.universe = universe
        ctx.test = test
        ctx.graph = getattr(test, "graph", None)


# --------------------------------------------------------------------------- phase 3
class CoalescingPass(Pass):
    """Aggressive coalescing over congruence classes (+ optional sharing)."""

    name = "coalesce"
    # Classes and affinity marks are pipeline scratch state, not analyses; the
    # function itself is untouched until materialization.
    preserves = PRESERVES_ALL

    def run(self, ctx) -> None:
        config = ctx.config
        # The backend carries its own intersection oracle (and through it the
        # translation's variable ids).
        classes = CongruenceClasses(ctx.test, use_linear_check=config.linear_class_check)

        # Pre-coalesce φ-nodes and register-pinned groups.
        for members in ctx.insertion.phi_nodes:
            classes.make_class(members)
        for register, group in pinned_register_groups(ctx.function).items():
            classes.make_class(list(group), register=register)

        coalescer = AggressiveCoalescer(
            classes, skip_copy_pair=ctx.variant.skip_copy_pair, ordering=ctx.variant.ordering
        )
        run_stats = coalescer.run(ctx.affinities)
        ctx.stats.coalesced = run_stats.coalesced
        if ctx.variant.sharing:
            ctx.stats.shared = apply_copy_sharing(
                classes, ctx.test, run_stats.remaining_affinities
            )

        ctx.classes = classes
        ctx.coalescing = run_stats


# --------------------------------------------------------------------------- phase 4
class MaterializationPass(Pass):
    """Rename to representatives, drop φs, sequentialize surviving copies."""

    name = "materialize"
    preserves = ()  # rewrites the whole function

    def run(self, ctx) -> None:
        function = ctx.function
        stats = ctx.stats

        # The backend's intersection oracle, fetched *before* mutating (the
        # generation-checked cache would rightly refuse to serve analyses
        # afterwards; the backend already holds its references).
        oracle = ctx.test.oracle
        # Patching the LivenessChecker across materialization only pays off
        # when someone can query the cache after the run (a caller-owned,
        # warm cache); for run-private caches it would be pure edit-logging
        # overhead on the hottest engines, so it is skipped.
        checker: Optional[LivenessChecker] = (
            ctx.analyses.cached(LivenessChecker) if ctx.external_cache else None
        )
        edit_log = EditLog() if checker is not None else None

        rename_map = build_rename_map(ctx.classes)
        shared_destinations = {
            affinity.dst
            for affinity in ctx.coalescing.remaining_affinities
            if affinity.shared
        }
        materialize(
            function, rename_map, shared_destinations, ctx.frequencies, stats,
            edit_log=edit_log, lowered=ctx.lowered_pcopies,
        )

        if edit_log is not None:
            if rename_map:
                edit_log.variables_renamed(rename_map)
            # The translated function's checker is served patched, not
            # recomputed — e.g. to a register allocator running next.
            _patch_warm_analyses(ctx, checker, edit_log)

        stats.pair_queries = ctx.classes.pair_queries
        stats.class_row_checks = ctx.classes.class_row_checks
        stats.intersection_queries = oracle.query_count
        stats.matrix_bytes = ctx.test.matrix_bytes()
        flat = ctx.analyses.cached(FlatFunction)
        if flat is not None:
            stats.lowering_ms = flat.lowering_seconds * 1e3
            stats.flat_bytes = flat.nbytes
        ctx.rename_map = rename_map


#: The out-of-SSA phase sequence every engine configuration runs.
def out_of_ssa_passes() -> List[Pass]:
    return [IsolationPass(), InterferencePass(), CoalescingPass(), MaterializationPass()]


# --------------------------------------------------------------------------- materialization helpers
def build_rename_map(classes: CongruenceClasses) -> Dict[Variable, Variable]:
    """Each coalesced variable -> its class's representative (the
    ≺-smallest member), read off the classes' per-id table; variables the
    classes never saw keep their name."""
    mapping: Dict[Variable, Variable] = {}
    variables = classes.index.variables
    for var, cls in zip(variables, classes.class_by_id):
        if cls is not None:
            representative = variables[cls.ids[0]]
            if representative != var:
                mapping[var] = representative
    return mapping


def _renamed(var: Variable, mapping: Dict[Variable, Variable]) -> Variable:
    return mapping.get(var, var)


def materialize(
    function: Function,
    mapping: Dict[Variable, Variable],
    shared_destinations,
    frequencies: Dict[str, float],
    stats,
    edit_log: Optional[EditLog] = None,
    lowered: Optional[List] = None,
) -> None:
    """Rename to representatives, drop φs, sequentialize surviving copies.

    When ``edit_log`` is given, every block whose instruction list changed is
    logged (with the φ/parallel-copy variables involved); the caller combines
    that with one ``variables_renamed`` entry for the rename map, which is
    what lets the liveness checker patch its caches over the materialized
    program.

    When ``lowered`` is given (a checked run), every lowered parallel copy
    appends a ``(block label, renamed pairs, emitted copies)`` record to it,
    which the verifier's sequentialization check replays.
    """

    def fresh() -> Variable:
        stats.sequentialization_temps += 1
        return function.new_variable("swap")

    def lower_pcopy(pcopy: ParallelCopy, block_label: str) -> List[Copy]:
        pairs = []
        seen_dsts = set()
        for dst, src in pcopy.pairs:
            if dst in shared_destinations:
                continue
            new_dst = _renamed(dst, mapping)
            new_src = _renamed(src, mapping) if isinstance(src, Variable) else src
            if isinstance(new_src, Variable) and new_dst == new_src:
                continue
            if new_dst in seen_dsts:
                # Duplicate destinations can only carry equal values (paper
                # §III-C); keep the first copy.
                continue
            seen_dsts.add(new_dst)
            pairs.append((new_dst, new_src))
        copies = sequentialize_parallel_copy(pairs, fresh)
        if lowered is not None:
            lowered.append((block_label, list(pairs), list(copies)))
        for copy in copies:
            if isinstance(copy.src, Constant):
                stats.constant_moves += 1
            else:
                stats.remaining_copies += 1
                stats.dynamic_copy_cost += frequencies.get(block_label, 1.0)
        return copies

    for block in function:
        label = block.label
        # Per-block edit accounting: whether the instruction list changed, and
        # which variables (beyond the globally-logged rename map) it involved.
        block_changed = False
        block_vars: List[Variable] = []

        def note_pcopy(pcopy: ParallelCopy, copies: List[Copy]) -> None:
            if edit_log is None:
                return
            for dst, src in pcopy.pairs:
                block_vars.append(dst)
                if isinstance(src, Variable):
                    block_vars.append(src)
            for copy in copies:
                block_vars.append(copy.dst)
                if isinstance(copy.src, Variable):
                    block_vars.append(copy.src)

        def renames_anything(instruction) -> bool:
            return any(var in mapping for var in instruction.uses()) or any(
                var in mapping for var in instruction.defs()
            )

        # φ-functions: after renaming every operand maps to the φ-node
        # representative, so they simply disappear.
        if block.phis:
            block_changed = True
            if edit_log is not None:
                for phi in block.phis:
                    block_vars.append(phi.dst)
                    block_vars.extend(phi.uses())
            block.phis = []

        prefix: List[Copy] = []
        if block.entry_pcopy is not None:
            prefix = lower_pcopy(block.entry_pcopy, label)
            note_pcopy(block.entry_pcopy, prefix)
            block_changed = True
            block.entry_pcopy = None

        new_body: List = []
        for instruction in block.body:
            if isinstance(instruction, ParallelCopy):
                copies = lower_pcopy(instruction, label)
                note_pcopy(instruction, copies)
                block_changed = True
                new_body.extend(copies)
                continue
            if edit_log is not None and renames_anything(instruction):
                block_changed = True
            instruction.replace_uses(mapping)  # type: ignore[arg-type]
            instruction.replace_defs(mapping)
            if isinstance(instruction, Copy):
                if isinstance(instruction.src, Variable) and instruction.src == instruction.dst:
                    # Dropped self-copy: the block changed even when the name
                    # was never renamed (an originally trivial copy).
                    block_changed = True
                    block_vars.append(instruction.dst)
                    continue
                if isinstance(instruction.src, Constant):
                    stats.constant_moves += 1
                else:
                    stats.remaining_copies += 1
                    stats.dynamic_copy_cost += frequencies.get(label, 1.0)
            new_body.append(instruction)

        suffix: List[Copy] = []
        if block.exit_pcopy is not None:
            suffix = lower_pcopy(block.exit_pcopy, label)
            note_pcopy(block.exit_pcopy, suffix)
            block_changed = True
            block.exit_pcopy = None

        block.body = prefix + new_body + suffix

        if block.terminator is not None:
            if edit_log is not None and renames_anything(block.terminator):
                block_changed = True
            block.terminator.replace_uses(mapping)  # type: ignore[arg-type]
            block.terminator.replace_defs(mapping)

        if edit_log is not None and block_changed:
            edit_log.block_rewritten(label, block_vars)

    function.invalidate_cfg()
