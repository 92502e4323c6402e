"""Dominator tree, dominance queries and dominance frontiers.

The dominator tree is computed with the Cooper–Harvey–Kennedy iterative
algorithm ("A simple, fast dominance algorithm"), which is quadratic in the
worst case but very fast on real CFGs and trivially correct.

Constant-time ``dominates`` queries use the classic pre/post DFS numbering of
the dominator tree — this is the O(1) ancestor test the paper relies on in its
linear congruence-class interference check ("querying if a variable is an
ancestor of another one can be achieved in O(1)").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.traversal import reverse_postorder
from repro.ir.function import Function


class DominatorTree:
    """Immediate dominators, dominator-tree numbering and frontier helpers."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.entry = function.entry_label
        if self.entry is None:
            raise ValueError("cannot compute dominance of an empty function")
        self.rpo: List[str] = reverse_postorder(function)
        self._rpo_index: Dict[str, int] = {label: i for i, label in enumerate(self.rpo)}
        self.idom: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._pre: Dict[str, int] = {}
        self._post: Dict[str, int] = {}
        self._compute_idoms()
        self._number_tree()

    # -- construction -----------------------------------------------------------
    def _compute_idoms(self) -> None:
        function = self.function
        entry = self.entry
        idom: Dict[str, Optional[str]] = {entry: entry}

        def intersect(a: str, b: str) -> str:
            index = self._rpo_index
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for label in self.rpo:
                if label == entry:
                    continue
                processed_preds = [
                    pred for pred in function.predecessors(label)
                    if pred in idom and pred in self._rpo_index
                ]
                if not processed_preds:
                    continue
                new_idom = processed_preds[0]
                for pred in processed_preds[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True

        idom[entry] = None
        self.idom = idom
        self._children = {label: [] for label in self.rpo}
        for label, parent in idom.items():
            if parent is not None:
                self._children[parent].append(label)

    def _number_tree(self) -> None:
        """Assign pre/post order numbers for O(1) ancestor tests."""
        counter = 0
        stack: List[tuple] = [(self.entry, False)]
        while stack:
            label, expanded = stack.pop()
            if expanded:
                counter += 1
                self._post[label] = counter
                continue
            counter += 1
            self._pre[label] = counter
            stack.append((label, True))
            for child in reversed(self._children.get(label, [])):
                stack.append((child, False))

    # -- queries -------------------------------------------------------------------
    def children(self, label: str) -> List[str]:
        return self._children.get(label, [])

    def dominates(self, a: str, b: str) -> bool:
        """Does block ``a`` dominate block ``b`` (reflexively)?"""
        if a not in self._pre or b not in self._pre:
            # Unreachable blocks dominate nothing and are dominated by nothing.
            return a == b
        return self._pre[a] <= self._pre[b] and self._post[b] <= self._post[a]

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def preorder_index(self, label: str) -> int:
        """Pre-DFS index of ``label`` in the dominator tree (paper's ≺ order)."""
        return self._pre.get(label, 1 << 30)

    def interval(self, label: str) -> Optional[Tuple[int, int]]:
        """``(pre, post)`` numbers of ``label`` (``None`` if unreachable):
        ``a`` dominates ``b`` iff ``pre[a] <= pre[b] and post[b] <= post[a]``."""
        pre = self._pre.get(label)
        return None if pre is None else (pre, self._post[label])

    def dominator_tree_preorder(self) -> List[str]:
        """Block labels sorted by dominator-tree pre-order."""
        return sorted(self._pre, key=self._pre.get)  # type: ignore[arg-type]

    def dominators_of(self, label: str) -> List[str]:
        """All dominators of ``label`` from itself up to the entry block."""
        result = []
        current: Optional[str] = label
        while current is not None:
            result.append(current)
            if current == self.entry:
                break
            current = self.idom.get(current)
        return result

    def is_back_edge(self, source: str, target: str) -> bool:
        """Is the CFG edge ``source -> target`` a back edge (target dominates source)?"""
        return self.dominates(target, source)


def dominance_frontiers(function: Function, domtree: Optional[DominatorTree] = None) -> Dict[str, Set[str]]:
    """Dominance frontier of every reachable block (Cytron's algorithm).

    Used by SSA construction to decide where φ-functions are needed.
    """
    domtree = domtree or DominatorTree(function)
    frontiers: Dict[str, Set[str]] = {label: set() for label in domtree.rpo}
    for label in domtree.rpo:
        preds = [pred for pred in function.predecessors(label) if pred in domtree._rpo_index]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner: Optional[str] = pred
            while runner is not None and runner != domtree.idom[label]:
                frontiers[runner].add(label)
                runner = domtree.idom[runner]
    return frontiers


def iterated_dominance_frontier(
    function: Function,
    blocks: Iterable[str],
    domtree: Optional[DominatorTree] = None,
    frontiers: Optional[Dict[str, Set[str]]] = None,
) -> Set[str]:
    """The iterated dominance frontier DF+ of a set of blocks."""
    domtree = domtree or DominatorTree(function)
    frontiers = frontiers or dominance_frontiers(function, domtree)
    result: Set[str] = set()
    worklist = [label for label in blocks if label in frontiers]
    seen = set(worklist)
    while worklist:
        label = worklist.pop()
        for frontier_block in frontiers.get(label, ()):  # pragma: no branch
            if frontier_block not in result:
                result.add(frontier_block)
                if frontier_block not in seen:
                    seen.add(frontier_block)
                    worklist.append(frontier_block)
    return result
