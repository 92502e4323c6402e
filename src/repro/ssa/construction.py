"""SSA construction (Cytron et al. style).

``construct_ssa`` turns a non-SSA function (variables assigned several times,
no φ-functions) into pruned SSA:

1. φ-functions are placed at the iterated dominance frontier of each
   variable's definition blocks, restricted to blocks where the variable is
   live-in (pruned SSA, to avoid φs for dead paths).  Live-in comes from a
   private block-level solve over int masks (:class:`_BlockLiveIn`), which
   needs no SSA form, no variable index and no arena, and records nothing
   in the allocation tracker;
2. a dominator-tree pre-order walk renames every definition to a fresh
   version and rewrites uses to the reaching version, filling φ-arguments
   edge by edge.  The walk keeps an explicit stack, not Python recursion, so
   a dominator tree thousands of blocks deep needs no raised recursion limit.

The dominator tree may come from the caller (the pipeline's analysis cache):
construction places φs and renames but never edits the CFG.

Variables that may be read before being written (possible in generated
workloads with loops) are given an implicit ``0`` initialisation at function
entry so the result is strict SSA.  Those ``const 0`` defs sit at the top of
the entry block, so they change only the entry's live-in; that answer can
reach a φ join only through a predecessor of the entry, so liveness is rebuilt
only in that (ill-formed, V108) case.

A pinned variable (a register constraint, ``function.pinned``) keeps its pin
through renaming: the pin moves to the variable's one SSA version.  A pinned
variable that gets several versions (several definitions, a φ, or a
definition plus an implicit ``0`` initialisation) raises a located
:class:`~repro.ir.validate.ValidationError` rather than losing its register.

``BrDec`` counters are left untouched (not renamed): the paper notes that such
counters "must not be promoted to SSA"; they keep a single name and both use
and define it in the terminator.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.dominance import DominatorTree, dominance_frontiers, iterated_dominance_frontier
from repro.ir.function import Function
from repro.ir.instructions import BrDec, Constant, Op, Phi, Variable
from repro.ir.validate import ValidationError


def _counter_variables(function: Function) -> Set[Variable]:
    """Variables used/defined by a BrDec terminator (never promoted to SSA)."""
    counters: Set[Variable] = set()
    for block in function:
        if isinstance(block.terminator, BrDec):
            counters.add(block.terminator.counter)
    return counters


class _BlockLiveIn:
    """Live-in set of every block of a φ-free function, one int mask per block.

    All that pruned φ placement asks of liveness.  One walk numbers the
    variables and records each block's upward-exposed uses (``gen``) and
    defs (``kill``); a backward worklist then solves
    ``in(b) = gen(b) | (OR over successors s of in(s)) & ~kill(b)``.
    """

    def __init__(self, function: Function) -> None:
        bits: Dict[Variable, int] = {}
        gen: Dict[str, int] = {}
        kill: Dict[str, int] = {}
        for block in function:
            used = defined = 0
            for instruction in block.instructions():
                for var in instruction.uses():
                    bit = bits.setdefault(var, 1 << len(bits))
                    if not defined & bit:
                        used |= bit
                for var in instruction.defs():
                    defined |= bits.setdefault(var, 1 << len(bits))
            gen[block.label] = used
            kill[block.label] = defined
        live_in = dict(gen)
        worklist = deque(reversed(function.blocks))
        queued = set(worklist)
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            out = 0
            for successor in function.successors(label):
                out |= live_in[successor]
            new_in = gen[label] | (out & ~kill[label])
            if new_in != live_in[label]:
                live_in[label] = new_in
                for predecessor in function.predecessors(label):
                    if predecessor not in queued:
                        queued.add(predecessor)
                        worklist.append(predecessor)
        self._bits = bits
        self._live_in = live_in

    def is_live_in(self, label: str, var: Variable) -> bool:
        return bool(self._live_in[label] & self._bits.get(var, 0))


def construct_ssa(function: Function, domtree: Optional[DominatorTree] = None) -> Function:
    """Convert ``function`` to pruned SSA form, in place, and return it.

    ``domtree`` may be a dominator tree of ``function`` already at hand (the
    pipeline passes its cached one); construction never edits the CFG, so
    the tree stays valid afterwards.
    """
    if function.has_phis():
        raise ValueError("construct_ssa expects a function without phi-functions")

    domtree = domtree if domtree is not None else DominatorTree(function)
    frontiers = dominance_frontiers(function, domtree)
    liveness = _BlockLiveIn(function)
    counters = _counter_variables(function)

    # ------------------------------------------------------------------ defs
    # One walk: each variable's definition blocks, and every variable in
    # ``Function.variables`` order (parameters, then defs and uses as met).
    variables: Dict[Variable, None] = dict.fromkeys(function.params)
    def_blocks: Dict[Variable, Set[str]] = {}
    for block in function:
        for instruction in block.instructions():
            for var in instruction.defs():
                def_blocks.setdefault(var, set()).add(block.label)
                variables[var] = None
            for var in instruction.uses():
                variables[var] = None
    for param in function.params:
        def_blocks.setdefault(param, set()).add(function.entry_label)  # type: ignore[arg-type]

    # Variables read before written anywhere get a zero-initialisation at entry.
    entry_block = function.entry
    zero_inits: List[Variable] = []
    for var in variables:
        if var in counters or var in def_blocks and function.entry_label in def_blocks[var]:
            continue
        if liveness.is_live_in(function.entry_label, var) or var not in def_blocks:
            zero_inits.append(var)
    for var in zero_inits:
        entry_block.body.insert(0, Op(var, "const", [Constant(0)]))
        def_blocks.setdefault(var, set()).add(entry_block.label)
    if zero_inits and function.predecessors(entry_block.label):
        liveness = _BlockLiveIn(function)  # the entry's live-in can reach a join

    # ------------------------------------------------------------ φ placement
    phis_for: Dict[str, Dict[Variable, Phi]] = {label: {} for label in function.blocks}
    for var, blocks in def_blocks.items():
        if var in counters:
            continue
        if len(blocks) == 0:
            continue
        for join in iterated_dominance_frontier(function, blocks, domtree, frontiers):
            if not liveness.is_live_in(join, var):
                continue  # pruned SSA
            if var not in phis_for[join]:
                phi = Phi(var)  # renamed below
                phis_for[join][var] = phi
    for label, block_phis in phis_for.items():
        for phi in block_phis.values():
            function.blocks[label].add_phi(phi)

    # -------------------------------------------------------------- renaming
    version_stacks: Dict[Variable, List[Variable]] = {var: [] for var in def_blocks}
    original_of: Dict[Phi, Variable] = {}
    for label, block_phis in phis_for.items():
        for var, phi in block_phis.items():
            original_of[phi] = var

    _check_pins(function, counters)
    #: The one version of each renamed pinned variable.
    pinned_version: Dict[Variable, Variable] = {}

    def new_version(var: Variable) -> Variable:
        fresh = function.new_variable(var.name)
        version_stacks.setdefault(var, []).append(fresh)
        if var in function.pinned:
            pinned_version[var] = fresh
        return fresh

    def current_version(var: Variable) -> Variable:
        stack = version_stacks.get(var)
        if stack:
            return stack[-1]
        return var  # parameters / counters / already-unique names

    # Parameters are their own first version.
    for param in function.params:
        version_stacks.setdefault(param, []).append(param)

    def rename_block(label: str) -> List[Variable]:
        """Rename ``label``'s definitions and uses; return the pushed variables."""
        block = function.blocks[label]
        pushed: List[Variable] = []

        for phi in block.phis:
            original = original_of.get(phi, phi.dst)
            fresh = new_version(original)
            phi.dst = fresh
            pushed.append(original)

        for instruction in block.body:
            instruction.replace_uses({var: current_version(var) for var in instruction.uses()})
            for var in list(instruction.defs()):
                if var in counters:
                    continue
                fresh = new_version(var)
                instruction.replace_defs({var: fresh})
                pushed.append(var)

        terminator = block.terminator
        if terminator is not None and not isinstance(terminator, BrDec):
            terminator.replace_uses({var: current_version(var) for var in terminator.uses()})

        # Fill φ-arguments of successors for the edges leaving this block.
        for successor in function.successors(label):
            for phi in function.blocks[successor].phis:
                original = original_of.get(phi)
                if original is not None:
                    phi.set_arg(label, current_version(original))
        return pushed

    # Dominator-tree pre-order with an explicit stack: a block's versions are
    # popped once all of its dominator-tree children are renamed.
    stack: List[Tuple[str, Optional[List[Variable]]]] = [(function.entry_label, None)]
    while stack:
        label, pushed = stack.pop()
        if pushed is not None:
            for var in pushed:
                version_stacks[var].pop()
            continue
        stack.append((label, rename_block(label)))
        stack.extend((child, None) for child in reversed(domtree.children(label)))
    function.invalidate_cfg()
    function.pinned = {
        pinned_version.get(var, var): register for var, register in function.pinned.items()
    }
    return function


def _check_pins(function: Function, counters: Set[Variable]) -> None:
    """Raise a located :class:`ValidationError` for a pinned variable that
    renaming would split into several versions: its pin could follow only one.

    Run after φ placement and zero-initialisation, before renaming, so every
    future version is a definition of the variable (or the parameter itself).
    """
    for var, register in function.pinned.items():
        if var in counters:
            continue
        sites = [function.entry_label] if var in function.params else []
        for block in function:
            for instruction in block.instructions():
                if var in instruction.defs():
                    sites.append(block.label)
        if len(sites) > 1:
            raise ValidationError(
                f"{function.name}:{sites[1]}: pinned variable {var.name!r} (register {register}) "
                f"would get {len(sites)} SSA versions (defined in {', '.join(sites)}); "
                f"a register pin needs exactly one definition"
            )
