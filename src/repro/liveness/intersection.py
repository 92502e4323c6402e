"""Live-range intersection tests.

The paper (§IV-A) surveys three ways to answer "do the live ranges of two SSA
variables intersect?".  All of them reduce, thanks to the dominance property,
to the check of Budimlić et al.: *the variable whose definition dominates the
definition of the other intersects it iff it is live at that second definition
point*.  The :class:`IntersectionOracle` implements exactly that on top of any
:class:`~repro.liveness.base.LivenessOracle` (data-flow sets or liveness
checking), so that every engine configuration of Figure 6 shares one code
path and differs only in the oracle it plugs in.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.liveness.base import LivenessOracle
from repro.liveness.dataflow import LivenessSets

#: ``(block, index, dom-pre, dom-post)`` of a definition, see
#: :meth:`IntersectionOracle.definition_row`.
DefinitionRow = Tuple[Optional[str], int, int, int]


class IntersectionOracle:
    """Dominance-based live-range intersection test with query counting.

    Besides the pairwise :meth:`intersect` it serves the congruence layer's id
    table: :meth:`dominance_order_key` (the ≺ key a class is sorted by) and
    :meth:`definition_row` are read once per variable, both from one lookup
    through :meth:`order_key_and_row`, and
    :meth:`intersect_rows` answers a query on two such cached rows.  Every
    query, through either entry point, advances ``query_count``.
    """

    def __init__(
        self,
        function: Function,
        liveness: LivenessOracle,
        domtree: Optional[DominatorTree] = None,
    ) -> None:
        self.function = function
        self.liveness = liveness
        self._domtree = domtree
        self.query_count = 0
        # Definition points are fixed for the lifetime of the oracle (the
        # function is only rewritten after coalescing), so the ≺ sort keys
        # are memoized: each variable's key is computed exactly once
        # (``order_key_computations`` counts the misses; a regression test
        # pins it to the number of distinct variables).
        self._order_keys: Dict[Variable, tuple] = {}
        #: Fresh ≺-key computations (cache misses); never decremented.
        self.order_key_computations = 0
        # Stand-in dominator-tree numbers of the definitions outside the tree
        # (unreachable blocks, undefined variables); see ``definition_row``.
        self._outside: Dict[object, int] = {}

    @property
    def domtree(self) -> DominatorTree:
        """The dominator tree, built lazily on first dominance-flavoured query.

        Pure intersection work over a bit-set liveness backend (e.g. the
        interference matrix scan under the ``intersect`` notion) never needs
        it, and on multi-thousand-block stress CFGs building it eagerly would
        dominate the oracle's construction cost.
        """
        if self._domtree is None:
            self._domtree = DominatorTree(self.function)
        return self._domtree

    def definition_row(self, var: Variable) -> DefinitionRow:
        """``(block, index, dom-pre, dom-post)`` of the definition of ``var``.

        The definition of ``a`` dominates that of ``b`` iff ``index_a <=
        index_b`` when their ``dom-pre`` numbers are equal (one block), and
        iff ``pre_a <= pre_b and post_b <= post_a`` otherwise.  A definition in an
        unreachable block gets a negative stand-in number of its own for both
        (it dominates only within its block); an undefined variable gets one
        of its own and block ``None`` (it dominates and intersects nothing).
        """
        return self._row(var, self.liveness.def_points.get(var))

    def _row(self, var: Variable, point) -> DefinitionRow:
        """:meth:`definition_row` of ``var`` defined at ``point``."""
        if point is None:
            outside = -1 - self._outside.setdefault(var, len(self._outside))
            return (None, 0, outside, outside)
        interval = self.domtree.interval(point.block)
        if interval is None:
            outside = -1 - self._outside.setdefault(point.block, len(self._outside))
            return (point.block, point.index, outside, outside)
        return (point.block, point.index, interval[0], interval[1])

    def order_key_and_row(self, var: Variable) -> Tuple[tuple, DefinitionRow]:
        """:meth:`dominance_order_key` and :meth:`definition_row` of ``var``
        from one lookup of its definition point (the congruence id table
        reads both when it interns a variable).  The key is memoized and
        counted exactly as :meth:`dominance_order_key` does."""
        point = self.liveness.def_points.get(var)
        row = self._row(var, point)
        key = self._order_keys.get(var)
        if key is None:
            self.order_key_computations += 1
            if point is None:
                key = (-1, -1, var.name)
            else:
                key = (self.domtree.preorder_index(point.block), point.index, var.name)
            self._order_keys[var] = key
        return key, row

    def intersect(self, a: Variable, b: Variable) -> bool:
        """Do the live ranges of ``a`` and ``b`` intersect?"""
        if a == b:
            self.query_count += 1
            return True
        return self.intersect_rows(a, self.definition_row(a), b, self.definition_row(b))

    def intersect_rows(
        self, a: Variable, row_a: DefinitionRow, b: Variable, row_b: DefinitionRow
    ) -> bool:
        """:meth:`intersect` for two distinct variables, given their
        :meth:`definition_row` s."""
        self.query_count += 1
        block_a, index_a, pre_a, post_a = row_a
        block_b, index_b, pre_b, post_b = row_b
        if block_a is None or block_b is None:
            return False
        # In strict SSA two live ranges can only intersect if one definition
        # dominates the other (Budimlić et al.); check the dominated one.
        if pre_a == pre_b:
            a_dominates = index_a <= index_b
            b_dominates = index_b <= index_a
        else:
            a_dominates = pre_a <= pre_b and post_b <= post_a
            b_dominates = pre_b <= pre_a and post_a <= post_b
        if a_dominates and self.liveness.is_live_after(block_b, index_b, a):
            return True
        if b_dominates and self.liveness.is_live_after(block_a, index_a, b):
            return True
        return False

    def dominance_order_key(self, var: Variable):
        """Sort key placing variables in dominance pre-order of their definitions.

        This is the order ≺ used to keep congruence classes sorted for the
        linear interference test (§IV-B).  Memoized, so each variable's
        definition point is located once.
        """
        key = self._order_keys.get(var)
        if key is None:
            key = self.order_key_and_row(var)[0]
        return key


def live_ranges_intersect(function: Function, a: Variable, b: Variable) -> bool:
    """Convenience one-shot intersection test (builds a data-flow oracle)."""
    liveness = LivenessSets(function)
    return IntersectionOracle(function, liveness).intersect(a, b)
