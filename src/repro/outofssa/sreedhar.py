"""The Sreedhar et al. Method III style baseline.

This is the configuration the paper measures everything against: copies are
decided φ-function by φ-function (the virtualized processing order), the
interference notion is plain live-range intersection, Sreedhar's SSA-based
coalescing rule (the copy's own pair is exempted from the class interference
test) handles the remaining copies, and the implementation carries both an
explicit interference bit-matrix and data-flow liveness sets — the two
structures responsible for most of the memory footprint in Figure 7.

Reproduction note: the φ-copies are inserted eagerly (Method I isolation)
and coalesced rather than virtually deferred; the resulting copy
placements, interference decisions and data-structure footprints match the
Method III behaviour, which is what Figures 5-7 compare.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Function
from repro.outofssa.driver import OutOfSSAResult, destruct_ssa, engine_by_name
from repro.utils.instrument import AllocationTracker


def translate_sreedhar_iii(
    function: Function,
    tracker: Optional[AllocationTracker] = None,
) -> OutOfSSAResult:
    """Translate out of SSA with the Sreedhar Method III baseline engine."""
    return destruct_ssa(function, engine_by_name("sreedhar_iii"), tracker=tracker)
