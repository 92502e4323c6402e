"""Liveness analyses.

Three interchangeable *oracles* answer the liveness queries needed by the
out-of-SSA translation:

* :class:`~repro.liveness.dataflow.LivenessSets` — classic iterative data-flow
  analysis computing live-in / live-out sets per block as ordered sets (the
  reference backend, kept as the semantic oracle the others are tested
  against);
* :class:`~repro.liveness.bitsets.BitLivenessSets` — the same live-in /
  live-out facts stored as :class:`~repro.utils.bitset.BitSet` rows over the
  :class:`~repro.ir.positions.DefUseIndex` variable ids and solved with a
  reverse-postorder worklist (the bit-set encoding whose footprint Figure 7 evaluates; the backend the
  paper's set-based configurations — "Sreedhar III", plain "Us I"/"Us III" —
  now run on);
* :class:`~repro.liveness.livecheck.LivenessChecker` — liveness *checking*
  without global sets, from CFG-only precomputation plus per-variable cached
  backward walks (the role played by fast liveness checking [16] in the
  paper's "LiveCheck" configurations).

All three share the query interface of
:class:`~repro.liveness.base.LivenessOracle` so every engine can be
instantiated with any of them (``EngineConfig.liveness`` /
``--liveness {sets,bitsets,check}``).
"""

from repro.liveness.base import LivenessOracle
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.livecheck import LivenessChecker
from repro.liveness.intersection import IntersectionOracle, live_ranges_intersect

__all__ = [
    "LivenessOracle",
    "LivenessSets",
    "BitLivenessSets",
    "LivenessChecker",
    "IntersectionOracle",
    "live_ranges_intersect",
]
