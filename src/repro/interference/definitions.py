"""The three interference definitions compared in the paper (§III-A, §III-E).

The notions (:class:`InterferenceKind`) and the pairwise test machinery live
in :mod:`repro.interference.base`, where they are shared by every backend of
the pluggable stack (``matrix`` / ``query``).  This module keeps
:func:`make_interference_test`, a convenience constructor for the ``query``
backend that builds the :class:`~repro.ssa.values.ValueTable` when
value-based interference asks for one.

Every test is expressed on top of an
:class:`~repro.liveness.intersection.IntersectionOracle`, so the same code
runs whether liveness comes from data-flow sets or from liveness checking,
and whether an explicit interference graph is used or not.
"""

from __future__ import annotations

from typing import Optional

from repro.interference.base import (  # noqa: F401  (re-exported API surface)
    InterferenceKind,
    InterferenceOracle,
    QueryInterference,
)
from repro.ir.function import Function
from repro.ir.instructions import Variable  # noqa: F401  (historical re-export)
from repro.liveness.intersection import IntersectionOracle
from repro.ssa.values import ValueTable


def make_interference_test(
    function: Function,
    oracle: IntersectionOracle,
    kind: InterferenceKind = InterferenceKind.VALUE,
    values: Optional[ValueTable] = None,
) -> QueryInterference:
    """Build a ``query`` backend, creating the value table if needed."""
    if kind is InterferenceKind.VALUE and values is None:
        values = ValueTable(function, oracle.domtree)
    return QueryInterference(function, oracle, kind, values)
