"""The Figure 7 memory model.

The paper reports, per engine configuration, the memory footprint of the
interference graph and the liveness structures in two flavours:

* **Measured** — what the memory allocator actually handed out while the
  translation ran (our :class:`~repro.utils.instrument.AllocationTracker`
  totals and peaks);
* **Evaluated** — closed-form "perfect memory" estimates:
  ``ceil(#vars / 8) × #vars / 2`` for the half bit-matrix,
  one word per element for ordered liveness sets or
  ``ceil(#vars / 8) × #blocks × 2`` for bit-set liveness sets, and
  ``ceil(#blocks / 8) × #blocks × 2`` for the liveness-checking structures.

Both are produced here from one :class:`~repro.outofssa.driver.OutOfSSAResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.outofssa.driver import EngineConfig, OutOfSSAResult


@dataclass
class MemoryFootprint:
    """Bytes attributed to the analysis structures of one translation run."""

    measured_total: int = 0
    measured_peak: int = 0
    evaluated_ordered_sets: int = 0
    evaluated_bit_sets: int = 0

    def __add__(self, other: "MemoryFootprint") -> "MemoryFootprint":
        return MemoryFootprint(
            measured_total=self.measured_total + other.measured_total,
            measured_peak=self.measured_peak + other.measured_peak,
            evaluated_ordered_sets=self.evaluated_ordered_sets + other.evaluated_ordered_sets,
            evaluated_bit_sets=self.evaluated_bit_sets + other.evaluated_bit_sets,
        )


def _bitmatrix_bytes(num_variables: int) -> int:
    return ((num_variables + 7) // 8) * num_variables // 2


def _liveness_bitset_bytes(num_variables: int, num_blocks: int) -> int:
    return ((num_variables + 7) // 8) * num_blocks * 2


def _livecheck_bytes(num_blocks: int) -> int:
    return ((num_blocks + 7) // 8) * num_blocks * 2


def footprint_of(result: OutOfSSAResult) -> MemoryFootprint:
    """Compute the measured and evaluated footprints of one translation run."""
    stats = result.stats
    config: EngineConfig = result.config

    evaluated_graph = (
        _bitmatrix_bytes(stats.candidate_variables) if config.interference == "matrix" else 0
    )
    if config.liveness in ("sets", "bitsets"):
        # Both set-based backends evaluate to the same two closed forms; with
        # the "bitsets" backend the bit-set formula is additionally *measured*
        # (the oracle allocates exactly those rows, reported via the tracker
        # into ``measured_total`` / ``measured_peak``).
        evaluated_live_ordered = 8 * stats.liveness_set_entries
        evaluated_live_bitset = _liveness_bitset_bytes(stats.candidate_variables, stats.num_blocks)
    else:
        evaluated_live_ordered = _livecheck_bytes(stats.num_blocks)
        evaluated_live_bitset = _livecheck_bytes(stats.num_blocks)

    return MemoryFootprint(
        measured_total=result.memory_total_bytes,
        measured_peak=result.memory_peak_bytes,
        evaluated_ordered_sets=evaluated_graph + evaluated_live_ordered,
        evaluated_bit_sets=evaluated_graph + evaluated_live_bitset,
    )


def category_breakdown(result: OutOfSSAResult) -> Dict[str, Dict[str, int]]:
    """Measured bytes split by structure (interference graph, liveness, ...)."""
    return result.tracker.by_category()
