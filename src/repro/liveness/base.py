"""Shared query interface of the liveness oracles.

The only block-level facts an oracle must provide are ``is_live_in`` and
``is_live_out``; every finer-grained query (live after a given program point,
live at a definition) is derived here from the definition/use position maps,
which both oracles share.

Conventions (see :mod:`repro.ir.positions`):

* φ-function arguments are uses *on the edge* from the corresponding
  predecessor — they make the argument live-out of the predecessor, not
  live-in of the φ's block;
* φ-function results are defined at index 0 of their block — they are not
  live-in of that block;
* function parameters are defined at the virtual index ``-1`` of the entry
  block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.ir.positions import ProgramPoint, definition_points, use_points


class LivenessOracle:
    """Base class: block-level liveness plus derived program-point queries."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self._index_positions()

    def _index_positions(self) -> None:
        """(Re)build the definition/use position maps from the function.

        Called at construction; :class:`~repro.liveness.livecheck.LivenessChecker`
        calls it again after the function was edited underneath it (see
        its ``apply_edits``).
        """
        function = self.function
        self.def_points: Dict[Variable, ProgramPoint] = definition_points(function)
        self.use_points: Dict[Variable, List[ProgramPoint]] = use_points(function)
        # Per-variable, per-block index of the latest use (for "used after"
        # queries without re-scanning blocks).
        self._last_use_index: Dict[Tuple[Variable, str], int] = {}
        for var, points in self.use_points.items():
            for point in points:
                key = (var, point.block)
                previous = self._last_use_index.get(key, -1)
                if point.index > previous:
                    self._last_use_index[key] = point.index

    # -- to be provided by concrete oracles --------------------------------------
    def is_live_in(self, block_label: str, var: Variable) -> bool:
        raise NotImplementedError

    def is_live_out(self, block_label: str, var: Variable) -> bool:
        raise NotImplementedError

    # -- derived queries -----------------------------------------------------------
    def definition_of(self, var: Variable) -> Optional[ProgramPoint]:
        return self.def_points.get(var)

    def is_used_after(self, block_label: str, index: int, var: Variable) -> bool:
        """Is there a use of ``var`` in ``block_label`` strictly after ``index``?"""
        last = self._last_use_index.get((var, block_label))
        return last is not None and last > index

    def is_live_after(self, block_label: str, index: int, var: Variable) -> bool:
        """Is ``var`` live immediately *after* the instruction at ``index``?

        ``var`` is live there iff it is used later in the block, or is
        live-out of the block — unless its unique definition appears later in
        the same block (then its live range has not started yet).
        """
        def_point = self.def_points.get(var)
        if def_point is not None and def_point.block == block_label and def_point.index > index:
            return False
        if self.is_used_after(block_label, index, var):
            return True
        return self.is_live_out(block_label, var)

    def is_live_at_definition(self, var: Variable, of: Variable) -> bool:
        """Is ``var`` live just after the definition point of ``of``?

        This is the building block of every interference test in the paper:
        ``a`` and ``b`` intersect iff one is live at the definition of the
        other.  Variables defined by the same parallel copy / φ-group are
        simultaneously live right after it, which this query captures.
        """
        def_point = self.def_points.get(of)
        if def_point is None:
            return False
        return self.is_live_after(def_point.block, def_point.index, var)

    # -- footprint accounting (overridden where meaningful) -------------------------
    def footprint_bytes(self) -> int:
        """Idealised byte footprint of the oracle's long-lived structures."""
        return 0
