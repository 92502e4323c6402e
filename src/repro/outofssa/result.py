"""Result and statistics objects of one out-of-SSA translation run.

Shared by the legacy :func:`~repro.outofssa.driver.destruct_ssa` wrapper and
the pass-based :class:`~repro.pipeline.Pipeline`, which both return the same
:class:`OutOfSSAResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ir.function import Function
from repro.ir.instructions import Variable
from repro.outofssa.config import EngineConfig
from repro.utils.instrument import AllocationTracker


@dataclass
class OutOfSSAStats:
    """Counters describing one translation run."""

    inserted_phi_copies: int = 0
    affinities: int = 0
    coalesced: int = 0
    shared: int = 0
    remaining_copies: int = 0          #: variable-to-variable copies in the output
    constant_moves: int = 0            #: copies materializing constants
    sequentialization_temps: int = 0   #: extra cycle-breaking temporaries
    dynamic_copy_cost: float = 0.0     #: frequency-weighted remaining copies
    pair_queries: int = 0
    intersection_queries: int = 0
    #: Class-vs-class checks answered from merged matrix rows (no pairwise
    #: queries at all; matrix-backed engines only).
    class_row_checks: int = 0
    split_blocks: int = 0
    elapsed_seconds: float = 0.0
    #: Interference backend the run used ("matrix" / "query").
    interference_backend: str = ""
    #: Measured bytes of the interference bit-matrix (0 for the query backend).
    matrix_bytes: int = 0
    #: Wall-clock milliseconds of the one-time flat-arena lowering
    #: (:class:`~repro.ir.flat.FlatFunction`; 0 when no arena consumer — the
    #: bit-set liveness solve or the matrix scan — was built).
    lowering_ms: float = 0.0
    #: Measured bytes of the flat arena tables — reported next to
    #: ``matrix_bytes`` in the Figure 7 lane (0 without a flat lowering).
    flat_bytes: int = 0
    # Inputs to the Figure 7 "evaluated" memory formulas.
    num_blocks: int = 0                #: blocks after copy insertion / splitting
    candidate_variables: int = 0       #: φ-related + copy-related variables
    liveness_set_entries: int = 0      #: total entries of live-in/out ordered sets
    # Verification (zero unless ``EngineConfig.verify_level`` enabled it).
    verify_ms: float = 0.0             #: wall-clock the stage checkers took
    verify_diagnostics: int = 0        #: total findings of the checked run
    verify_errors: int = 0             #: error-severity findings
    verify_warnings: int = 0           #: warning-severity findings


@dataclass
class OutOfSSAResult:
    """Everything produced by one out-of-SSA translation."""

    function: Function
    config: EngineConfig
    stats: OutOfSSAStats
    tracker: AllocationTracker
    rename_map: Dict[Variable, Variable] = field(default_factory=dict)
    #: Wall-clock seconds per pipeline pass (empty for ad-hoc constructions).
    pass_seconds: Dict[str, float] = field(default_factory=dict)
    #: The :class:`~repro.verify.diagnostics.VerifyReport` of a checked run
    #: (``None`` when ``config.verify_level`` is ``"off"``).
    verify_report: Optional[object] = None

    @property
    def memory_total_bytes(self) -> int:
        return self.tracker.total()

    @property
    def memory_peak_bytes(self) -> int:
        return self.tracker.peak()
