"""Congruence classes and the linear class-vs-class interference check.

A *congruence class* is the set of variables already coalesced together
(Sreedhar et al.'s terminology).  Deciding whether two classes can be merged
requires checking that no variable of one interferes with a variable of the
other.  Done naively this is quadratic in the class sizes; the paper's §IV-B
shows how to do it with a linear number of variable-to-variable tests by
generalising the dominance-forest idea of Budimlić et al.:

* each class is kept as a list of variables sorted by a pre-DFS order ≺ of the
  dominance tree of their definition points;
* the two sorted lists are swept jointly while maintaining the stack of the
  current variable's dominating ancestors (Algorithm 2), so the dominance
  forest is *simulated*, never built;
* with plain intersection-interference it suffices to test each variable
  against its immediate ancestor from the *other* set;
* with value-based interference the "equal intersecting ancestor" chains
  (``equal_anc_in`` / ``equal_anc_out``) extend the test while keeping the
  number of intersection queries linear (functions ``interference``,
  ``chain_intersect`` and ``update_equal_anc_out`` of the paper).

All of that needs only int keys and id→id chains, so the classes run on the
translation's one variable numbering, the
:class:`~repro.ir.positions.DefUseIndex` ids: the ≺ key and the definition
row ``(block, index, dom-pre, dom-post)`` of an id come from the intersection
oracle's tables, and its SSA value, matrix slot, class and ``equal_anc_in``
are stored in lists indexed by the same id.  Both the linear check and a
quadratic reference are provided; the test-suite verifies they agree on
random programs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.instructions import Variable
from repro.interference.base import InterferenceKind, InterferenceOracle
from repro.liveness.intersection import IntersectionOracle

#: ``equal_anc_out`` of one class check: member id -> equal intersecting
#: ancestor id in the other class (absent = none).
AncestorMap = Dict[int, int]


class CongruenceClass:
    """One set of coalesced variables: member ids sorted in dominance pre-order ≺."""

    __slots__ = ("ids", "register", "slot_mask", "adj_mask", "_variables")

    def __init__(
        self, ids: List[int], variables: List[Variable], register: Optional[str] = None
    ) -> None:
        #: Member ids in ≺ order (:class:`~repro.ir.positions.DefUseIndex` ids).
        self.ids = ids
        #: Architectural register this class is pinned to (renaming constraints).
        self.register = register
        #: Matrix-backed class rows (``None`` = not computed yet, ``-1`` = a
        #: member is outside the matrix universe): the members' slot bits and
        #: their merged symmetric adjacency — coalesces OR these instead of
        #: re-deriving anything, and a class-vs-class check is one AND.
        self.slot_mask: Optional[int] = None
        self.adj_mask: Optional[int] = None
        self._variables = variables

    @property
    def members(self) -> List[Variable]:
        """The member variables in ≺ order (a read-only view of :attr:`ids`)."""
        variables = self._variables
        return [variables[ident] for ident in self.ids]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, var: Variable) -> bool:
        return var in self.members

    def __repr__(self) -> str:
        label = f", register={self.register}" if self.register else ""
        return f"CongruenceClass({[str(v) for v in self.members]}{label})"


class CongruenceClasses:
    """All congruence classes of a function plus the class-vs-class checks.

    Built over one :class:`~repro.interference.base.InterferenceOracle`
    backend; the intersection oracle is taken from it (``test.oracle``).

    Classes live on the ids of the oracle's
    :class:`~repro.ir.positions.DefUseIndex` (``index``): ``class_by_id``
    maps an id to its class, ``None`` until :meth:`ensure` or
    :meth:`make_class` first sees the variable (:meth:`find` never creates
    one).  Merges are union by size: the larger class keeps its object and
    only the smaller side's ids are re-pointed.

    On a matrix-backed test (``supports_class_rows``) the quadratic check
    answers each left member with one AND of its symmetric adjacency row
    against the other class's slot bits, advancing ``pair_queries`` and the
    backend's ``matrix_hits`` by exactly what the pairwise sweep would have
    issued up to its first hit.  When no linear sweep is configured and no
    pair is exempted, the whole check is one AND of the classes' merged rows
    instead — ``class_row_checks`` counts how many sweeps that replaced.
    """

    def __init__(self, test: InterferenceOracle, *, use_linear_check: bool = True) -> None:
        self.test = test
        self.oracle: IntersectionOracle = test.oracle
        #: The variable numbering every per-id table below is indexed by.
        self.index = self.oracle.index
        self.use_linear_check = use_linear_check
        kind = test.kind
        self._value_based = kind is InterferenceKind.VALUE
        matrix = test.supports_class_rows
        #: Whether class-vs-class checks may be answered from merged matrix
        #: rows (matrix-backed test, no linear sweep configured).
        self._class_rows = not use_linear_check and matrix
        #: Slot -> symmetric adjacency row of a matrix-backed test.
        self._adjacency: Optional[List[int]] = test.adjacency_rows() if matrix else None
        #: Whether the pairwise sweep may test ids on their definition rows
        #: (query backend under the intersection or value notion); otherwise
        #: it asks the test about the variables.
        self._row_pairs = not matrix and kind in (
            InterferenceKind.INTERSECT, InterferenceKind.VALUE
        )

        # -- the per-id tables -----------------------------------------------------
        variables = self.index.variables
        size = len(variables)
        self._variables = variables
        self._ids = self.index.ids
        #: id -> class (``None``: not seen yet).
        self.class_by_id: List[Optional[CongruenceClass]] = [None] * size
        self._keys = self.oracle.keys                 #: id -> ≺ key
        self._rows = self.oracle.rows                 #: id -> definition row
        #: id -> SSA value number (without a value table no two ids share one).
        self._value_of: List[int]
        values = test.values
        if values is not None:
            value_ids: Dict[object, int] = {}
            self._value_of = [
                value_ids.setdefault(values.value(var), len(value_ids)) for var in variables
            ]
        else:
            self._value_of = [-1 - ident for ident in range(size)]
        #: id -> matrix slot (-1: none).
        self._slots = [-1] * size
        if self._adjacency is not None:
            slot_of = test.slot
            for ident, var in enumerate(variables):
                slot = slot_of(var)
                if slot is not None:
                    self._slots[ident] = slot
        #: id -> equal intersecting ancestor id inside its class.
        self._equal_anc_in: List[Optional[int]] = [None] * size

        #: Number of variable-to-variable interference queries issued by the
        #: class-vs-class checks (reported by the Figure 6 harness).
        self.pair_queries = 0
        #: Class-vs-class checks answered from merged matrix rows (no
        #: pairwise queries at all).
        self.class_row_checks = 0

    # -- class management --------------------------------------------------------------
    def ensure(self, var: Variable) -> CongruenceClass:
        """Return the class of ``var``, creating a singleton if needed."""
        ident = self._ids[var]
        cls = self.class_by_id[ident]
        if cls is None:
            cls = CongruenceClass([ident], self._variables)
            self.class_by_id[ident] = cls
        return cls

    def class_of(self, var: Variable) -> CongruenceClass:
        return self.ensure(var)

    def find(self, var: Variable) -> Optional[CongruenceClass]:
        """The class of ``var``, or ``None`` if the classes never saw it."""
        ident = self._ids.get(var)
        return None if ident is None else self.class_by_id[ident]

    def same_class(self, a: Variable, b: Variable) -> bool:
        return self.ensure(a) is self.ensure(b)

    def classes(self) -> List[CongruenceClass]:
        return list(dict.fromkeys(cls for cls in self.class_by_id if cls is not None))

    def representative(self, var: Variable) -> Variable:
        """A canonical member of ``var``'s class (the ≺-smallest one)."""
        cls = self.ensure(var)
        return self._variables[cls.ids[0]] if cls.ids else var

    def make_class(self, members: Iterable[Variable], register: Optional[str] = None) -> CongruenceClass:
        """Create one class containing ``members`` (assumed interference-free)."""
        var_ids = self._ids
        ids = [var_ids[var] for var in members]
        ids.sort(key=self._keys.__getitem__)
        cls = CongruenceClass(ids, self._variables, register=register)
        self._precompute_equal_anc_in(cls)
        class_by_id = self.class_by_id
        for ident in ids:
            class_by_id[ident] = cls
        return cls

    def _dominates(self, a: int, b: int) -> bool:
        """Does the definition of id ``a`` dominate the definition of id ``b``?"""
        _, index_a, pre_a, post_a = self._rows[a]
        _, index_b, pre_b, post_b = self._rows[b]
        if pre_a == pre_b:
            return index_a <= index_b
        return pre_a <= pre_b and post_b <= post_a

    def _intersect(self, a: int, b: int) -> bool:
        """Live-range intersection of two ids (counted by the oracle)."""
        variables = self._variables
        if a == b:
            return self.oracle.intersect(variables[a], variables[b])
        rows = self._rows
        return self.oracle.intersect_rows(variables[a], rows[a], variables[b], rows[b])

    def _precompute_equal_anc_in(self, cls: CongruenceClass) -> None:
        """Compute equal intersecting ancestors inside a freshly built class.

        Classes built by :meth:`merge` maintain this incrementally; classes
        built directly (φ-nodes, pinned groups) are usually intersection-free
        so the chains are empty, but we compute them exactly for safety.
        """
        value_of = self._value_of
        has_values = self.test.values is not None
        ids = cls.ids
        for i, member in enumerate(ids):
            ancestor: Optional[int] = None
            for candidate in reversed(ids[:i]):
                if not self._dominates(candidate, member):
                    continue
                if (
                    has_values
                    and value_of[candidate] == value_of[member]
                    and self._intersect(candidate, member)
                ):
                    ancestor = candidate
                    break
            self._equal_anc_in[member] = ancestor

    # -- matrix-backed class rows ---------------------------------------------------------
    def _row_masks(self, cls: CongruenceClass) -> Optional[Tuple[int, int]]:
        """``(slot bits, merged adjacency)`` of a class, or ``None`` when a
        member falls outside the matrix universe.  Computed lazily once per
        class; merges combine the parents' masks with two ORs."""
        if cls.slot_mask is not None:
            if cls.slot_mask < 0:
                return None
            return cls.slot_mask, cls.adj_mask  # type: ignore[return-value]
        slot_of = self._slots
        adjacency = self._adjacency
        slots = 0
        adj = 0
        for ident in cls.ids:
            slot = slot_of[ident]
            if slot < 0:
                cls.slot_mask = -1
                return None
            slots |= 1 << slot
            adj |= adjacency[slot]  # type: ignore[index]
        cls.slot_mask = slots
        cls.adj_mask = adj
        return slots, adj

    # -- quadratic reference check ----------------------------------------------------------
    def interfere_quadratic(
        self,
        left: CongruenceClass,
        right: CongruenceClass,
        skip_pairs: Iterable[Tuple[Variable, Variable]] = (),
    ) -> bool:
        """All-pairs interference test between two classes.

        ``skip_pairs`` supports Sreedhar's SSA-based coalescing rule, which
        exempts the copy's own (source, destination) pair from the check.
        """
        if left.register and right.register and left.register != right.register:
            return True
        skip: Set[Tuple[int, int]] = set()
        for a, b in skip_pairs:
            id_a = self._ids.get(a)
            id_b = self._ids.get(b)
            if id_a is not None and id_b is not None:
                skip.add((id_a, id_b))
                skip.add((id_b, id_a))
        if self._adjacency is not None:
            left_masks = self._row_masks(left)
            right_masks = self._row_masks(right)
            if left_masks is not None and right_masks is not None:
                return self._quadratic_rows(left, right, right_masks[0], skip)
        return self._quadratic_pairs(left, right, skip)

    def _quadratic_rows(
        self,
        left: CongruenceClass,
        right: CongruenceClass,
        right_slots: int,
        skip: Set[Tuple[int, int]],
    ) -> bool:
        """The pairwise sweep over matrix rows: one AND per left member.

        Counts what the pairwise sweep would have issued — every non-skipped
        pair up to and including the first interfering one — as pair queries
        and matrix hits.
        """
        slots = self._slots
        adjacency = self._adjacency
        skipped_bits: Dict[int, int] = {}
        for a, b in skip:
            if self.class_by_id[b] is right:
                skipped_bits[a] = skipped_bits.get(a, 0) | 1 << slots[b]
        right_ids = right.ids
        issued = 0
        hit = False
        for a in left.ids:
            skipped = skipped_bits.get(a, 0) if skipped_bits else 0
            row = adjacency[slots[a]] & right_slots & ~skipped  # type: ignore[index]
            if row:
                for b in right_ids:
                    bit = 1 << slots[b]
                    if bit & skipped:
                        continue
                    issued += 1
                    if row & bit:
                        break
                hit = True
                break
            issued += len(right_ids) - skipped.bit_count()
        self.pair_queries += issued
        self.test.matrix_hits += issued
        return hit

    def _quadratic_pairs(
        self, left: CongruenceClass, right: CongruenceClass, skip: Set[Tuple[int, int]]
    ) -> bool:
        """The pairwise sweep: every non-skipped pair, up to the first hit."""
        variables = self._variables
        issued = 0
        hit = False
        if self._row_pairs:
            rows = self._rows
            value_of = self._value_of
            value_based = self._value_based
            intersect_rows = self.oracle.intersect_rows
            for a in left.ids:
                var_a = variables[a]
                row_a = rows[a]
                value_a = value_of[a]
                for b in right.ids:
                    if skip and (a, b) in skip:
                        continue
                    issued += 1
                    if (
                        a != b
                        and intersect_rows(var_a, row_a, variables[b], rows[b])
                        and not (value_based and value_a == value_of[b])
                    ):
                        hit = True
                        break
                if hit:
                    break
        else:
            interferes = self.test.interferes
            for a in left.ids:
                var_a = variables[a]
                for b in right.ids:
                    if skip and (a, b) in skip:
                        continue
                    issued += 1
                    if interferes(var_a, variables[b]):
                        hit = True
                        break
                if hit:
                    break
        self.pair_queries += issued
        return hit

    # -- linear check (paper Algorithm 2 + value extension) -----------------------------------
    def interfere_linear(
        self,
        left: CongruenceClass,
        right: CongruenceClass,
    ) -> Tuple[bool, AncestorMap]:
        """Linear-time interference check between two classes.

        Returns ``(interferes, equal_anc_out)``; the ``equal_anc_out`` map is
        what :meth:`merge` needs to maintain the per-member chains when the
        classes are coalesced.
        """
        if left.register and right.register and left.register != right.register:
            return True, {}

        variables = self._variables
        rows = self._rows
        keys = self._keys
        value_of = self._value_of
        equal_anc_in = self._equal_anc_in
        intersect_rows = self.oracle.intersect_rows
        value_based = self._value_based
        equal_anc_out: AncestorMap = {}
        queries = 0

        # Joint sweep of the two sorted lists in dominance pre-order ≺,
        # simulating the recursive traversal of the dominance forest.  Stack
        # entries are (id, from left, index, dom-pre, dom-post).
        red = left.ids
        blue = right.ids
        n_red = len(red)
        n_blue = len(blue)
        ir = ib = 0
        stack: List[tuple] = []
        stack_from_left = 0
        stack_from_right = 0
        interferes = False

        while (
            (ir < n_red and (stack_from_right > 0 or ib < n_blue))
            or (ib < n_blue and (stack_from_left > 0 or ir < n_red))
        ):
            if ir < n_red and (ib >= n_blue or keys[red[ir]] <= keys[blue[ib]]):
                current = red[ir]
                ir += 1
                is_left = True
            else:
                current = blue[ib]
                ib += 1
                is_left = False
            row = rows[current]
            _, index, pre, post = row

            # Pop the ancestors whose definition does not dominate current's.
            while stack:
                _, top_left, top_index, top_pre, top_post = stack[-1]
                if top_index <= index if top_pre == pre else (top_pre <= pre and post <= top_post):
                    break
                stack.pop()
                if top_left:
                    stack_from_left -= 1
                else:
                    stack_from_right -= 1

            if stack:
                parent, parent_left = stack[-1][0], stack[-1][1]
                if value_based:
                    # Paper's ``interference``: current against its dominating
                    # parent, redirected to the parent's equal intersecting
                    # ancestor in the other set when both come from one set.
                    other = equal_anc_out.get(parent) if parent_left == is_left else parent
                    if other is not None:
                        # ``chain_intersect`` / ``update_equal_anc_out``: walk
                        # the equal-ancestor chain to the first intersection.
                        var = variables[current]
                        tmp: Optional[int] = other
                        while tmp is not None:
                            queries += 1
                            if intersect_rows(var, row, variables[tmp], rows[tmp]):
                                break
                            tmp = equal_anc_in[tmp]
                        if value_of[current] != value_of[other]:
                            if tmp is not None:
                                interferes = True
                                break
                        elif tmp is not None:
                            equal_anc_out[current] = tmp
                elif parent_left != is_left:
                    # Intersection-only variant: test only across sets.
                    queries += 1
                    if intersect_rows(variables[current], row, variables[parent], rows[parent]):
                        interferes = True
                        break

            stack.append((current, is_left, index, pre, post))
            if is_left:
                stack_from_left += 1
            else:
                stack_from_right += 1

        self.pair_queries += queries
        return interferes, equal_anc_out

    # -- public check + merge ---------------------------------------------------------------------
    def interfere(
        self,
        left: CongruenceClass,
        right: CongruenceClass,
        skip_pairs: Iterable[Tuple[Variable, Variable]] = (),
    ) -> Tuple[bool, AncestorMap]:
        """Do the two classes interfere?  Returns ``(answer, equal_anc_out)``."""
        if left is right:
            return False, {}
        skip_pairs = list(skip_pairs)
        # The linear sweep relies on every class being interference-free under
        # the test in use, which holds for the intersection and value-based
        # notions; Chaitin-style tests and Sreedhar's skip-pair rule fall back
        # to the quadratic reference.
        linear_ok = self.test.kind in (InterferenceKind.INTERSECT, InterferenceKind.VALUE)
        if self.use_linear_check and linear_ok and not skip_pairs:
            return self.interfere_linear(left, right)
        if self._class_rows and not skip_pairs:
            # Matrix-backed classes: the merged adjacency row of one class
            # against the slot bits of the other answers the whole quadratic
            # sweep in one AND (the matrix already stores the notion-specific
            # verdict for every universe pair).
            if not (left.register and right.register and left.register != right.register):
                left_masks = self._row_masks(left)
                right_masks = self._row_masks(right)
                if left_masks is not None and right_masks is not None:
                    self.class_row_checks += 1
                    return bool(left_masks[1] & right_masks[0]), {}
        return self.interfere_quadratic(left, right, skip_pairs), {}

    def merge(
        self,
        left: CongruenceClass,
        right: CongruenceClass,
        equal_anc_out: Optional[AncestorMap] = None,
    ) -> CongruenceClass:
        """Coalesce two (non-interfering) classes into one; return the result.

        Union by size: the larger class (``left`` on a tie) absorbs the
        smaller one, whose object is left stale.
        """
        if left is right:
            return left
        if left.register and right.register and left.register != right.register:
            raise ValueError("cannot merge classes pinned to different registers")

        keys = self._keys
        # One stable sort of two sorted runs is a merge (left first on ties).
        merged = left.ids + right.ids
        merged.sort(key=keys.__getitem__)
        big, small = (left, right) if len(left.ids) >= len(right.ids) else (right, left)
        big.ids = merged
        big.register = left.register or right.register
        class_by_id = self.class_by_id
        for ident in small.ids:
            class_by_id[ident] = big

        if big.slot_mask is not None and small.slot_mask is not None:
            if big.slot_mask < 0 or small.slot_mask < 0:
                big.slot_mask = -1
            else:
                # Coalescing merges the matrix rows: the class's slot bits and
                # adjacency are the OR of its parents' — no re-derivation.
                big.slot_mask |= small.slot_mask
                big.adj_mask = (big.adj_mask or 0) | (small.adj_mask or 0)
        elif big.slot_mask is not None:
            big.slot_mask = big.adj_mask = None

        if equal_anc_out:
            # Each member keeps the ≺-greater (deeper) of its ancestor in its
            # own class and the one found in the other class.
            equal_anc_in = self._equal_anc_in
            for member, outside in equal_anc_out.items():
                inside = equal_anc_in[member]
                if inside is None or keys[inside] < keys[outside]:
                    equal_anc_in[member] = outside
        return big

    # -- convenience for drivers ----------------------------------------------------------------------
    def try_coalesce(
        self,
        a: Variable,
        b: Variable,
        skip_copy_pair: bool = False,
    ) -> bool:
        """Coalesce the classes of ``a`` and ``b`` if they do not interfere.

        ``skip_copy_pair`` implements Sreedhar's SSA-based coalescing rule
        (the pair ``(a, b)`` itself is exempted from the interference check).
        Returns True if the classes were merged (or already equal).
        """
        left = self.ensure(a)
        right = self.ensure(b)
        if left is right:
            return True
        skip_pairs = [(a, b)] if skip_copy_pair else []
        interferes, equal_anc_out = self.interfere(left, right, skip_pairs)
        if interferes:
            return False
        self.merge(left, right, equal_anc_out)
        return True
