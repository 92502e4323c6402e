"""Shared query interface of the liveness oracles.

The only block-level facts an oracle must provide are ``is_live_in`` and
``is_live_out``; every finer-grained query (used or live after a given
program point) is derived here from the definition/use position maps
of a :class:`~repro.ir.positions.DefUseIndex`, which the analysis cache
shares between the oracle and the other analyses of one translation.

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
from repro.ir.positions import DefUseIndex, ProgramPoint


class LivenessOracle:
    """Base class: block-level liveness plus derived program-point queries."""

    def __init__(self, function: Function, index: Optional[DefUseIndex] = None) -> None:
        self.function = function
        # The analysis cache passes its shared index (one walk of the
        # function per translation); without one, the function is walked here.
        if index is None:
            index = DefUseIndex(function)
        self.index = index
        self.def_points: Dict[Variable, ProgramPoint] = index.def_points
        #: ``(block, index)`` of every use (see :class:`DefUseIndex`).
        self.use_points: Dict[Variable, List[Tuple[str, int]]] = index.use_points
        # Per-variable, per-block index of the latest use (for "used after"
        # queries without re-scanning blocks).
        self._last_use_index: Dict[Tuple[Variable, str], int] = index.last_use

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

    # -- footprint accounting (overridden where meaningful) -------------------------
    def footprint_bytes(self) -> int:
        """Idealised byte footprint of the oracle's long-lived structures."""
        return 0
