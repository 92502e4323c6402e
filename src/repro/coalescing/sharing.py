"""Copy sharing — the paper's §III-B post-optimisation (the "Sharing" variant).

Consider a copy ``b = a`` that the coalescer could not remove (the classes of
``a`` and ``b`` interfere).  If some variable ``c`` with the *same value* as
``a`` is live just after the copy, the value is already available under ``c``'s
name, so the copy can still disappear:

1. if ``c`` is already in ``b``'s congruence class (and that class differs
   from ``a``'s), the copy is plain redundant — drop it;
2. otherwise, if ``b``'s and ``c``'s classes can be coalesced under the
   value-based rule, coalesce them and drop the copy.

This is a direct by-product of the value-based interference definition and is
only sound with it (two same-value variables may share a name even when their
live ranges overlap).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.ir.instructions import Variable
from repro.interference.base import InterferenceOracle
from repro.interference.congruence import CongruenceClasses
from repro.coalescing.engine import Affinity


def apply_copy_sharing(
    classes: CongruenceClasses,
    test: InterferenceOracle,
    remaining: Iterable[Affinity],
) -> int:
    """Try to remove remaining copies by sharing an already-live same-value variable.

    Marks the removed affinities with ``affinity.shared = True`` and returns
    how many copies were removed.  Requires a value-based interference
    backend (``test.values`` must be available); any backend of the
    pluggable stack works, the sharing rule only needs the protocol surface.
    The function's variables and their definition points are read from the
    liveness oracle's :class:`~repro.ir.positions.DefUseIndex`.
    """
    values = test.values
    if values is None:
        return 0
    liveness = test.oracle.liveness
    index = liveness.index
    by_value: Dict[object, List[Variable]] = {}
    for var in index.variables:
        by_value.setdefault(values.value(var), []).append(var)
    def_points = index.def_points
    removed = 0

    for affinity in remaining:
        if affinity.coalesced or affinity.shared:
            continue
        a, b = affinity.src, affinity.dst
        class_x = classes.class_of(a)
        class_y = classes.class_of(b)
        if class_x is class_y:
            continue

        copy_point = def_points.get(b)
        if copy_point is None:
            continue

        for c in by_value.get(values.value(a), ()):  # pragma: no branch
            if c == a or c == b:
                continue
            # ``c`` must hold the value just after the copy point.
            if not liveness.is_live_after(copy_point.block, copy_point.index, c):
                continue
            class_z = classes.class_of(c)
            if class_z is class_x:
                continue
            if class_z is class_y:
                # Case 1: b's class already contains a live same-value variable.
                affinity.shared = True
                removed += 1
                break
            # Case 2: coalesce Y and Z under the value-based rule, then drop.
            interferes, equal_anc_out = classes.interfere(class_y, class_z)
            if not interferes:
                classes.merge(class_y, class_z, equal_anc_out)
                affinity.shared = True
                removed += 1
                break

    return removed
