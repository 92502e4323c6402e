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

from typing import Dict, List, Optional, Tuple

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.liveness.base import LivenessOracle
from repro.liveness.dataflow import LivenessSets

#: ``(block, index, dom-pre, dom-post)`` of a definition, see
#: :attr:`IntersectionOracle.rows`.
DefinitionRow = Tuple[Optional[str], int, int, int]


class IntersectionOracle:
    """Dominance-based live-range intersection test with query counting.

    Definition points are fixed while the oracle lives (the function is only
    rewritten after coalescing), so what the congruence classes read per
    variable — its ≺ key (:attr:`keys`) and its definition row
    (:attr:`rows`) — is built once, as two lists indexed by the liveness
    oracle's :class:`~repro.ir.positions.DefUseIndex` ids, in one pass over
    the index.  :meth:`intersect_rows` answers a query on two such rows;
    every query, through either entry point, advances ``query_count``.
    """

    def __init__(
        self,
        function: Function,
        liveness: LivenessOracle,
        domtree: Optional[DominatorTree] = None,
    ) -> None:
        self.function = function
        self.liveness = liveness
        #: The numbering :attr:`keys` and :attr:`rows` are indexed by.
        self.index = liveness.index
        self._domtree = domtree
        self.query_count = 0
        self._keys: Optional[List[tuple]] = None
        self._rows: Optional[List[DefinitionRow]] = None

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

    @property
    def keys(self) -> List[tuple]:
        """id -> ≺ key ``(dom-pre, index, name)``: the dominance pre-order of
        the definitions that congruence classes are sorted by for the linear
        interference test (§IV-B).  Names break the ties between variables
        defined at one program point (φs of one block, the destinations of
        one parallel copy); an undefined variable sorts first, a definition
        in an unreachable block last."""
        if self._keys is None:
            self._build_tables()
        return self._keys  # type: ignore[return-value]

    @property
    def rows(self) -> List[DefinitionRow]:
        """id -> ``(block, index, dom-pre, dom-post)`` of the definition.

        The definition of ``a`` dominates that of ``b`` iff ``index_a <=
        index_b`` when their ``dom-pre`` numbers are equal (one block), and
        iff ``pre_a <= pre_b and post_b <= post_a`` otherwise.  A definition
        in an unreachable block gets a negative stand-in number of its own
        block for both (it dominates only within its block); an undefined
        variable gets one of its own and block ``None`` (it dominates and
        intersects nothing).
        """
        if self._rows is None:
            self._build_tables()
        return self._rows  # type: ignore[return-value]

    def _build_tables(self) -> None:
        """:attr:`keys` and :attr:`rows` of every variable of the index."""
        index = self.index
        def_points = index.def_points
        domtree = self.domtree
        interval = domtree.interval
        outside: Dict[object, int] = {}
        keys: List[tuple] = []
        rows: List[DefinitionRow] = []
        for var in index.variables:
            point = def_points.get(var)
            if point is None:
                stand_in = -1 - outside.setdefault(var, len(outside))
                keys.append((-1, -1, var.name))
                rows.append((None, 0, stand_in, stand_in))
                continue
            block = point.block
            numbers = interval(block)
            if numbers is None:
                stand_in = -1 - outside.setdefault(block, len(outside))
                keys.append((domtree.preorder_index(block), point.index, var.name))
                rows.append((block, point.index, stand_in, stand_in))
            else:
                keys.append((numbers[0], point.index, var.name))
                rows.append((block, point.index, numbers[0], numbers[1]))
        self._keys = keys
        self._rows = rows

    def intersect(self, a: Variable, b: Variable) -> bool:
        """Do the live ranges of ``a`` and ``b`` intersect?"""
        if a == b:
            self.query_count += 1
            return True
        ids = self.index.ids
        id_a = ids.get(a)
        id_b = ids.get(b)
        if id_a is None or id_b is None:
            self.query_count += 1   # a variable the function never mentions
            return False
        rows = self.rows
        return self.intersect_rows(a, rows[id_a], b, rows[id_b])

    def intersect_rows(
        self, a: Variable, row_a: DefinitionRow, b: Variable, row_b: DefinitionRow
    ) -> bool:
        """:meth:`intersect` for two distinct variables, given their
        :attr:`rows`."""
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


def live_ranges_intersect(function: Function, a: Variable, b: Variable) -> bool:
    """Convenience one-shot intersection test (builds a data-flow oracle)."""
    liveness = LivenessSets(function)
    return IntersectionOracle(function, liveness).intersect(a, b)
