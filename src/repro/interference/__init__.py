"""Interference: the pluggable backend stack, graph representation, congruence classes.

The stack mirrors the liveness one: one protocol
(:class:`~repro.interference.base.InterferenceOracle`), two backends —
``query`` (pairwise dominance/value queries, the paper's contribution) and
``matrix`` (eager half bit-matrix) — selected per engine via
``EngineConfig.interference`` / CLI ``--interference``.
"""

from repro.interference.base import (
    InterferenceKind,
    InterferenceOracle,
    QueryInterference,
)
from repro.interference.definitions import make_interference_test
from repro.interference.graph import (
    InterferenceGraph,
    MatrixInterference,
    scan_interference_edges,
)
from repro.interference.congruence import CongruenceClass, CongruenceClasses

__all__ = [
    "InterferenceKind",
    "InterferenceOracle",
    "QueryInterference",
    "MatrixInterference",
    "make_interference_test",
    "InterferenceGraph",
    "scan_interference_edges",
    "CongruenceClass",
    "CongruenceClasses",
]
