"""The SSA optimizations that break conventionality.

Straight out of construction the program is CSSA and going out of SSA would be
trivial.  The situations the paper is about appear after:

* **copy folding / copy propagation** (``fold_copies``): every use of ``b``
  where ``b = copy a`` is rewritten to use ``a`` directly and the copy is
  removed.  In SSA this is always legal (the definition of ``a`` dominates the
  copy, which dominates every use of ``b``) but it typically makes φ-related
  live ranges overlap — the classic swap and lost-copy situations.
* **dominance-based value numbering** (``value_number``): redundant
  computations are replaced by the dominating equivalent one, extending live
  ranges across block boundaries.

Both passes operate on strict SSA and keep it strict; neither attempts to
maintain CSSA — that is exactly the job of the out-of-SSA translation.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Call, Constant, Copy, Op, Operand, Phi, Variable


def _multiply_defined_variables(function: Function) -> set:
    """Variables with several definitions (e.g. ``br_dec`` loop counters).

    Such variables are not in SSA form (the paper notes hardware-loop counters
    "must not be promoted to SSA"); their value changes over time, so neither
    copy folding nor value numbering may treat them as single-valued.
    """
    counts: Dict[Variable, int] = {}
    for block in function:
        for instruction in block.instructions():
            for var in instruction.defs():
                counts[var] = counts.get(var, 0) + 1
    return {var for var, count in counts.items() if count > 1}


def fold_copies(
    function: Function,
    fold_constants: bool = True,
    should_fold: Optional[callable] = None,
) -> int:
    """Copy propagation: remove ``b = copy a`` and rewrite uses of ``b`` to ``a``.

    Returns the number of copies removed.  When ``fold_constants`` is False,
    copies of constants are kept (some architectures rematerialize constants
    instead).  ``should_fold(copy)`` may veto individual copies — real
    compilers keep some copies for rematerialization or scheduling reasons,
    and the workload generator uses this hook to produce programs with a
    realistic mix of folded and surviving copies.
    """
    # Collect the replacement map, resolving chains b -> a -> ... -> root.
    volatile = _multiply_defined_variables(function)
    replacement: Dict[Variable, Operand] = {}
    for block in function:
        for instruction in block.body:
            if isinstance(instruction, Copy):
                if isinstance(instruction.src, Constant) and not fold_constants:
                    continue
                if instruction.dst in volatile or (
                    isinstance(instruction.src, Variable) and instruction.src in volatile
                ):
                    continue  # never fold through a mutable (non-SSA) counter
                if should_fold is not None and not should_fold(instruction):
                    continue
                replacement[instruction.dst] = instruction.src

    def resolve(operand: Operand) -> Operand:
        seen = set()
        while isinstance(operand, Variable) and operand in replacement and operand not in seen:
            seen.add(operand)
            operand = replacement[operand]
        return operand

    resolved = {var: resolve(src) for var, src in replacement.items()}
    if not resolved:
        return 0

    removed = 0
    for block in function:
        new_body = []
        for instruction in block.body:
            if isinstance(instruction, Copy) and instruction.dst in resolved:
                removed += 1
                continue
            instruction.replace_uses(resolved)
            new_body.append(instruction)
        block.body = new_body
        for phi in block.phis:
            phi.replace_uses(resolved)
        if block.terminator is not None:
            block.terminator.replace_uses(resolved)
    return removed


_PURE_OPCODES_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "eq", "ne"}


def _operand_key(operand: Operand, value_of: Dict[Variable, Hashable]) -> Hashable:
    if isinstance(operand, Constant):
        return ("const", operand.value)
    return ("var", value_of.get(operand, operand))


def value_number(function: Function, domtree: Optional[DominatorTree] = None) -> int:
    """Dominance-based value numbering on ``Op`` instructions.

    A computation whose (opcode, operand-values) was already computed by a
    dominating instruction is replaced by a reference to that instruction's
    result: the redundant ``Op`` is dropped and later uses are rewritten.
    Returns the number of instructions eliminated.
    """
    domtree = domtree or DominatorTree(function)
    volatile = _multiply_defined_variables(function)
    value_of: Dict[Variable, Hashable] = {}
    replacement: Dict[Variable, Variable] = {}
    removed = 0

    # Scoped hash table: one dict per dominator-tree path, implemented with an
    # undo log per block.
    table: Dict[Tuple, Variable] = {}

    def visit(label: str) -> List[Tuple]:
        """Number ``label``'s instructions; return the keys it added to ``table``."""
        nonlocal removed
        block = function.blocks[label]
        added_keys: List[Tuple] = []

        for phi in block.phis:
            value_of[phi.dst] = phi.dst

        new_body = []
        for instruction in block.body:
            instruction.replace_uses(replacement)
            touches_volatile = any(var in volatile for var in instruction.defs()) or any(
                var in volatile for var in instruction.uses()
            )
            if isinstance(instruction, Op) and instruction.opcode != "param" and not touches_volatile:
                operand_keys = [_operand_key(arg, value_of) for arg in instruction.args]
                if instruction.opcode in _PURE_OPCODES_COMMUTATIVE:
                    operand_keys = sorted(operand_keys, key=repr)
                key = (instruction.opcode, tuple(operand_keys))
                existing = table.get(key)
                if existing is not None:
                    replacement[instruction.dst] = existing
                    value_of[instruction.dst] = value_of.get(existing, existing)
                    removed += 1
                    continue
                table[key] = instruction.dst
                added_keys.append(key)
                value_of[instruction.dst] = instruction.dst
            else:
                for var in instruction.defs():
                    value_of[var] = var
            new_body.append(instruction)
        block.body = new_body

        if block.terminator is not None:
            block.terminator.replace_uses(replacement)
        for successor in function.successors(label):
            for phi in function.blocks[successor].phis:
                phi.replace_uses(replacement)
        return added_keys

    # Dominator-tree pre-order with an explicit stack: a block's keys leave
    # the table once all of its dominator-tree children are numbered.
    stack: List[Tuple[str, Optional[List[Tuple]]]] = [(function.entry_label, None)]
    while stack:
        label, added_keys = stack.pop()
        if added_keys is not None:
            for key in added_keys:
                del table[key]
            continue
        stack.append((label, visit(label)))
        stack.extend((child, None) for child in reversed(domtree.children(label)))

    # A final pass rewrites any remaining uses of replaced variables (e.g. in
    # φ-functions of blocks visited before the replacement was discovered).
    if replacement:
        for block in function:
            for instruction in block.instructions():
                instruction.replace_uses(replacement)
    return removed
