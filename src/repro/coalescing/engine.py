"""Affinity collection and the aggressive coalescing loop.

Once Method I has made the program conventional, removing copies is "nothing
but a traditional aggressive coalescing problem": each copy ``dst = src`` is
an *affinity* between two congruence classes, weighted by the estimated
execution frequency of the block that would hold the copy, and the coalescer
greedily merges the classes of the heaviest affinities first whenever they do
not interfere under the selected interference notion.

Two processing orders are provided:

* ``global`` — all affinities sorted by decreasing weight (what the paper's
  Method-I based engines do, "Us I");
* ``per_phi`` — φ-functions are processed one at a time, each φ's copies by
  decreasing weight, then the remaining (non-φ) copies: this reproduces the
  ordering constraint of the virtualized engines (Sreedhar III / "Us III"),
  where only a partial view of the interference structure is available.

Interference reaches the coalescer through the
:class:`~repro.interference.congruence.CongruenceClasses` it drives, which
are wired to one pluggable
:class:`~repro.interference.base.InterferenceOracle` backend (``matrix`` /
``query``): the loop itself never sees a concrete graph or
query object, so every backend coalesces through the identical code path —
the bit-identity guarantee the property suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cfg.frequency import estimate_block_frequencies
from repro.ir.function import Function
from repro.ir.instructions import Constant, Copy, ParallelCopy, Phi, Variable
from repro.interference.congruence import CongruenceClasses
from repro.outofssa.method_i import PhiCopyInsertion


@dataclass
class Affinity:
    """One copy the coalescer would like to remove."""

    dst: Variable
    src: Variable
    weight: float
    kind: str                       #: "phi_arg", "phi_result", "copy", "pinned"
    block: str                      #: block whose (parallel) copy holds it
    phi: Optional[Phi] = None       #: owning φ for φ-related affinities
    coalesced: bool = False
    shared: bool = False            #: removed by the copy-sharing post-pass

    def key(self) -> Tuple[Variable, Variable]:
        return (self.dst, self.src)


@dataclass
class CoalescingStats:
    """Outcome of one coalescing run."""

    attempted: int = 0
    coalesced: int = 0
    shared: int = 0
    #: Candidates rejected by the parallel class-row prefilter before the
    #: serial sweep ran (0 for the ordinary serial coalescer).
    prefiltered: int = 0
    remaining_affinities: List[Affinity] = field(default_factory=list)
    #: Interference query counters at the end of the run (copied from the
    #: congruence layer: pairwise queries issued, and class-vs-class checks
    #: answered from merged matrix rows without any pairwise query).
    pair_queries: int = 0
    class_row_checks: int = 0

    @property
    def remaining(self) -> int:
        return len(self.remaining_affinities)


def collect_affinities(
    function: Function,
    insertion: Optional[PhiCopyInsertion] = None,
    frequencies: Optional[Dict[str, float]] = None,
) -> List[Affinity]:
    """Collect every copy-related affinity of ``function``.

    Includes the φ-related copies recorded by ``insertion``, plain ``Copy``
    instructions, and the components of any parallel copy already present
    (e.g. those created for calling-convention pinning).  Copies from
    constants are not affinities (a constant cannot be renamed) and are left
    for the rematerialization statistics.
    """
    frequencies = frequencies or estimate_block_frequencies(function)
    affinities: List[Affinity] = []
    seen_pairs: set = set()

    def add(dst: Variable, src, kind: str, block: str, phi: Optional[Phi] = None) -> None:
        if not isinstance(src, Variable) or dst == src:
            return
        marker = (dst, src, block)
        if marker in seen_pairs:
            return
        seen_pairs.add(marker)
        affinities.append(
            Affinity(dst=dst, src=src, weight=frequencies.get(block, 1.0),
                     kind=kind, block=block, phi=phi)
        )

    if insertion is not None:
        for copy in insertion.copies:
            add(copy.dst, copy.src, copy.kind, copy.block, copy.phi)

    for block in function:
        for pcopy, where in ((block.entry_pcopy, "entry"), (block.exit_pcopy, "exit")):
            if pcopy is None:
                continue
            for dst, src in pcopy.pairs:
                add(dst, src, f"phi_{where}", block.label)
        for instruction in block.body:
            if isinstance(instruction, Copy):
                add(instruction.dst, instruction.src, "copy", block.label)
            elif isinstance(instruction, ParallelCopy):
                for dst, src in instruction.pairs:
                    add(dst, src, "pinned", block.label)

    return affinities


class AggressiveCoalescer:
    """Greedy aggressive coalescing over congruence classes."""

    def __init__(
        self,
        classes: CongruenceClasses,
        skip_copy_pair: bool = False,
        ordering: str = "global",
    ) -> None:
        if ordering not in ("global", "per_phi"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.classes = classes
        self.skip_copy_pair = skip_copy_pair
        self.ordering = ordering

    # -- ordering ------------------------------------------------------------------
    def _ordered(self, affinities: List[Affinity]) -> List[Affinity]:
        def by_weight(affinity: Affinity) -> float:
            return -affinity.weight

        if self.ordering == "global":
            return sorted(affinities, key=by_weight)
        # per-φ processing: φ-related copies grouped by their φ (in program
        # order of appearance), each group by decreasing weight, then the
        # remaining copies by decreasing weight.
        phi_groups: Dict[int, List[Affinity]] = {}
        phi_order: List[int] = []
        others: List[Affinity] = []
        for affinity in affinities:
            if affinity.phi is not None:
                key = id(affinity.phi)
                if key not in phi_groups:
                    phi_groups[key] = []
                    phi_order.append(key)
                phi_groups[key].append(affinity)
            else:
                others.append(affinity)
        ordered: List[Affinity] = []
        for key in phi_order:
            ordered.extend(sorted(phi_groups[key], key=by_weight))
        ordered.extend(sorted(others, key=by_weight))
        return ordered

    # -- main loop ---------------------------------------------------------------------
    def run(self, affinities: Iterable[Affinity]) -> CoalescingStats:
        stats = CoalescingStats()
        for affinity in self._ordered(list(affinities)):
            stats.attempted += 1
            if self.classes.same_class(affinity.dst, affinity.src):
                affinity.coalesced = True
                stats.coalesced += 1
                continue
            merged = self.classes.try_coalesce(
                affinity.dst, affinity.src, skip_copy_pair=self.skip_copy_pair
            )
            if merged:
                affinity.coalesced = True
                stats.coalesced += 1
            else:
                stats.remaining_affinities.append(affinity)
        stats.pair_queries = self.classes.pair_queries
        stats.class_row_checks = self.classes.class_row_checks
        return stats
