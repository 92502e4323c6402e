"""SSA construction (Cytron et al. style).

``construct_ssa`` turns a non-SSA function (variables assigned several times,
no φ-functions) into pruned SSA:

1. φ-functions are placed at the iterated dominance frontier of each
   variable's definition blocks, restricted to blocks where the variable is
   live-in (pruned SSA, to avoid φs for dead paths).  Liveness comes from
   the bit-set solver (:class:`~repro.liveness.bitsets.BitLivenessSets`),
   which needs no SSA form, and is built once;
2. a dominator-tree walk renames every definition to a fresh version and
   rewrites uses to the reaching version, filling φ-arguments edge by edge.

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

from typing import Dict, List, Optional, Set

from repro.cfg.dominance import DominatorTree, dominance_frontiers, iterated_dominance_frontier
from repro.ir.function import Function
from repro.ir.instructions import BrDec, Constant, Op, Phi, Variable
from repro.ir.validate import ValidationError
from repro.liveness.bitsets import BitLivenessSets


def _counter_variables(function: Function) -> Set[Variable]:
    """Variables used/defined by a BrDec terminator (never promoted to SSA)."""
    counters: Set[Variable] = set()
    for block in function:
        if isinstance(block.terminator, BrDec):
            counters.add(block.terminator.counter)
    return counters


def construct_ssa(function: Function) -> Function:
    """Convert ``function`` to pruned SSA form, in place, and return it."""
    if function.has_phis():
        raise ValueError("construct_ssa expects a function without phi-functions")

    domtree = DominatorTree(function)
    frontiers = dominance_frontiers(function, domtree)
    liveness = BitLivenessSets(function)
    counters = _counter_variables(function)

    # ------------------------------------------------------------------ defs
    def_blocks: Dict[Variable, Set[str]] = {}
    for block in function:
        for instruction in block.instructions():
            for var in instruction.defs():
                def_blocks.setdefault(var, set()).add(block.label)
    for param in function.params:
        def_blocks.setdefault(param, set()).add(function.entry_label)  # type: ignore[arg-type]

    # Variables read before written anywhere get a zero-initialisation at entry.
    entry_block = function.entry
    zero_inits: List[Variable] = []
    for var in list(function.variables()):
        if var in counters or var in def_blocks and function.entry_label in def_blocks[var]:
            continue
        if liveness.is_live_in(function.entry_label, var) or var not in def_blocks:
            zero_inits.append(var)
    for var in zero_inits:
        entry_block.body.insert(0, Op(var, "const", [Constant(0)]))
        def_blocks.setdefault(var, set()).add(entry_block.label)
    if zero_inits and function.predecessors(entry_block.label):
        liveness = BitLivenessSets(function)  # the entry's live-in can reach a join

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

    def rename_block(label: str) -> None:
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

        for child in domtree.children(label):
            rename_block(child)

        for var in pushed:
            version_stacks[var].pop()

    rename_block(function.entry_label)  # type: ignore[arg-type]
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
