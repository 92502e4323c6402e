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


class IntersectionOracle:
    """Dominance-based live-range intersection test with query counting."""

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
        # are memoized: each variable's key is computed exactly once, no
        # matter how many congruence-class merges re-compare it
        # (``order_key_computations`` counts the misses; a regression test
        # pins it to the number of distinct variables).
        self._order_keys: Dict[Variable, tuple] = {}
        #: Fresh ≺-key computations (cache misses); never decremented.
        self.order_key_computations = 0
        # Definition-dominance answers are similarly stable between edits and
        # are re-asked constantly by the congruence sweeps (every stack
        # pop/push tests the same few pairs); memoized per ordered pair.
        self._dominates_memo: Dict[Tuple[Variable, Variable], bool] = {}

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

    def intersect(self, a: Variable, b: Variable) -> bool:
        """Do the live ranges of ``a`` and ``b`` intersect?"""
        self.query_count += 1
        if a == b:
            return True
        def_a = self.liveness.definition_of(a)
        def_b = self.liveness.definition_of(b)
        if def_a is None or def_b is None:
            return False

        # In strict SSA two live ranges can only intersect if one definition
        # dominates the other (Budimlić et al.); check the dominated one.
        domtree = self._domtree
        if domtree is None:
            domtree = self.domtree      # lazily built on first dominance use
        if def_a.dominates(def_b, domtree):
            if self.liveness.is_live_after(def_b.block, def_b.index, a):
                return True
        if def_b.dominates(def_a, domtree):
            if self.liveness.is_live_after(def_a.block, def_a.index, b):
                return True
        return False

    def dominance_order_key(self, var: Variable):
        """Sort key placing variables in dominance pre-order of their definitions.

        This is the order ≺ used to keep congruence classes sorted for the
        linear interference test (§IV-B).  Memoized: merges and re-sorts hit
        the cache, so each variable's definition point is located once.
        """
        key = self._order_keys.get(var)
        if key is None:
            self.order_key_computations += 1
            def_point = self.liveness.definition_of(var)
            if def_point is None:
                key = (-1, -1, var.name)
            else:
                key = (
                    self.domtree.preorder_index(def_point.block),
                    def_point.index,
                    var.name,
                )
            self._order_keys[var] = key
        return key

    def dominates(self, a: Variable, b: Variable) -> bool:
        """Does the definition of ``a`` dominate the definition of ``b``?"""
        memo_key = (a, b)
        cached = self._dominates_memo.get(memo_key)
        if cached is not None:
            return cached
        def_a = self.liveness.definition_of(a)
        def_b = self.liveness.definition_of(b)
        if def_a is None or def_b is None:
            answer = False
        else:
            answer = def_a.dominates(def_b, self.domtree)
        self._dominates_memo[memo_key] = answer
        return answer


def live_ranges_intersect(function: Function, a: Variable, b: Variable) -> bool:
    """Convenience one-shot intersection test (builds a data-flow oracle)."""
    liveness = LivenessSets(function)
    return IntersectionOracle(function, liveness).intersect(a, b)
