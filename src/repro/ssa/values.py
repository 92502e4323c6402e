"""The paper's "SSA value" V(x) (§III-A).

In SSA every variable has a single static value, and the "has-the-same-value"
relation is an equivalence whose class representative is the variable whose
definition dominates all the others.  Following the same scheme as SSA
copy-folding, V is computed by one traversal of the blocks in dominator-tree
pre-order:

* ``b = copy a``       →  V(b) = V(a)
* ``b = copy <const>`` →  V(b) = the constant (two copies of ``5`` share a value)
* anything else        →  V(b) = b  (including φ-functions: the paper does not
  propagate values through φs to keep the test free)

The table is *incremental*: when the coalescer materializes a new copy
variable (virtualization, §IV-C) or Method I inserts the φ-copies, the new
variables are registered with :meth:`ValueTable.set_copy_of`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Union

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Constant, Copy, Instruction, ParallelCopy, Variable
from repro.ir.positions import DefUseIndex

ValueId = Hashable


class ValueTable:
    """Maps every SSA variable to its value representative.

    Variables with several definitions (``br_dec`` counters) are not
    single-valued: each keeps a value of its own.  That *volatile* set is
    the ``multiply_defined`` set of a :class:`~repro.ir.positions.DefUseIndex`
    (the analysis cache passes its shared one; without it, the function is
    walked here).
    """

    def __init__(
        self,
        function: Function,
        domtree: Optional[DominatorTree] = None,
        index: Optional[DefUseIndex] = None,
    ) -> None:
        self.function = function
        self.domtree = domtree or DominatorTree(function)
        self._value: Dict[Variable, ValueId] = {}
        if index is None:
            index = DefUseIndex(function)
        self._volatile = index.multiply_defined
        self._compute()

    # -- construction -----------------------------------------------------------
    def _value_of_operand(self, operand: Union[Variable, Constant]) -> ValueId:
        if isinstance(operand, Constant):
            return ("const", operand.value)
        if operand in self._volatile:
            return operand
        return self._value.get(operand, operand)

    def _record(self, instruction: Instruction) -> None:
        if isinstance(instruction, Copy):
            self._value[instruction.dst] = (
                instruction.dst
                if instruction.dst in self._volatile
                or (isinstance(instruction.src, Variable) and instruction.src in self._volatile)
                else self._value_of_operand(instruction.src)
            )
        elif isinstance(instruction, ParallelCopy):
            for dst, src in instruction.pairs:
                if dst in self._volatile or (isinstance(src, Variable) and src in self._volatile):
                    self._value[dst] = dst
                else:
                    self._value[dst] = self._value_of_operand(src)
        else:
            for var in instruction.defs():
                self._value[var] = var

    def _compute(self) -> None:
        for param in self.function.params:
            self._value[param] = param
        for label in self.domtree.dominator_tree_preorder():
            for instruction in self.function.blocks[label].instructions():
                self._record(instruction)
        # Variables in unreachable blocks still get a (trivial) value.
        for block in self.function:
            if block.label not in self.domtree._rpo_index:
                for instruction in block.instructions():
                    for var in instruction.defs():
                        self._value.setdefault(var, var)

    # -- queries ----------------------------------------------------------------
    def value(self, var: Variable) -> ValueId:
        """The value representative of ``var`` (itself if unknown)."""
        return self._value.get(var, var)

    def same_value(self, a: Variable, b: Variable) -> bool:
        return self.value(a) == self.value(b)

    def __contains__(self, var: Variable) -> bool:
        return var in self._value

    # -- incremental updates -------------------------------------------------------
    def set_copy_of(self, new_var: Variable, source: Union[Variable, Constant]) -> None:
        """Register that ``new_var`` is a copy of ``source`` (e.g. a φ-copy)."""
        self._value[new_var] = self._value_of_operand(source)

    def set_fresh(self, new_var: Variable) -> None:
        """Register ``new_var`` as carrying its own, new value."""
        self._value[new_var] = new_var
