"""Dead-code elimination and trivial-φ removal for SSA programs.

Cytron et al. already observe that the naive φ replacement only yields decent
code "if the naive replacement is preceded by dead code elimination"; both
the workload generator and the out-of-SSA engines use these passes to keep
their inputs/outputs tidy.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.function import Function
from repro.ir.instructions import Copy, Op, ParallelCopy, Phi, Variable


_SIDE_EFFECT_FREE = (Op, Copy, Phi)


def remove_dead_code(function: Function) -> int:
    """Remove side-effect-free instructions whose results are unused, to a fixpoint.

    Returns the number of instructions (or parallel-copy components) removed.
    ``Call`` and ``Print`` instructions are conservatively kept.

    One walk counts the uses of every variable and collects the operands of
    each removable definition (φ, ``Op``, ``Copy``, parallel-copy pair); a
    worklist then pops the variables whose count is zero, kills all their
    removable definitions and decrements those definitions' operands.  A
    final sweep filters the blocks, keeping the survivors in order.  The
    result is the fixpoint of removing unused definitions round after round
    until a round removes nothing; a dead φ cycle keeps itself alive.
    """
    use_count: Dict[Variable, int] = {}
    #: Operands of each variable's removable definitions, one list per site.
    sites: Dict[Variable, List[List[Variable]]] = {}
    for block in function:
        for instruction in block.instructions():
            uses = instruction.uses()
            for var in uses:
                use_count[var] = use_count.get(var, 0) + 1
            if isinstance(instruction, ParallelCopy):
                for dst, src in instruction.pairs:
                    operands = [src] if isinstance(src, Variable) else []
                    sites.setdefault(dst, []).append(operands)
            elif isinstance(instruction, _SIDE_EFFECT_FREE):
                sites.setdefault(instruction.dst, []).append(uses)

    dead: Set[Variable] = set()
    removed = 0
    worklist = [var for var in sites if var not in use_count]
    while worklist:
        var = worklist.pop()
        dead.add(var)
        for operands in sites[var]:
            removed += 1
            for operand in operands:
                count = use_count[operand] - 1
                use_count[operand] = count
                if count == 0 and operand in sites:
                    worklist.append(operand)

    for block in function:
        block.phis = [phi for phi in block.phis if phi.dst not in dead]
        kept_body = []
        for instruction in block.body:
            if isinstance(instruction, ParallelCopy):
                instruction.pairs = [pair for pair in instruction.pairs if pair[0] not in dead]
                if instruction.is_empty():
                    continue
            elif isinstance(instruction, (Op, Copy)) and instruction.dst in dead:
                continue
            kept_body.append(instruction)
        block.body = kept_body
        for pcopy in (block.entry_pcopy, block.exit_pcopy):
            if pcopy is not None:
                pcopy.pairs = [pair for pair in pcopy.pairs if pair[0] not in dead]
        block.drop_empty_pcopies()
    return removed


def remove_trivial_phis(function: Function) -> int:
    """Remove φ-functions whose arguments are all identical (or the φ itself).

    ``x = φ(a, a, ..., a)`` is replaced by rewriting every use of ``x`` to
    ``a``.  Returns the number of φ-functions removed.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        replacement: Dict[Variable, object] = {}
        for block in function:
            kept = []
            for phi in block.phis:
                distinct = {arg for arg in phi.args.values() if arg != phi.dst}
                if len(distinct) == 1:
                    replacement[phi.dst] = next(iter(distinct))
                    removed += 1
                    changed = True
                else:
                    kept.append(phi)
            block.phis = kept
        if replacement:
            # Resolve chains (x -> a where a itself was replaced by b this round).
            def resolve(value):
                seen = set()
                while isinstance(value, Variable) and value in replacement and value not in seen:
                    seen.add(value)
                    value = replacement[value]
                return value

            resolved = {var: resolve(target) for var, target in replacement.items()}
            for block in function:
                for instruction in block.instructions():
                    instruction.replace_uses(resolved)  # type: ignore[arg-type]
    return removed
