"""Allocation instrumentation used by the memory-footprint experiment.

The paper's Figure 7 reports a "Measured" footprint obtained "from the
statistics provided by our memory allocator".  We reproduce that by letting
the analyses report every logical allocation (interference bit-matrix rows,
liveness sets, liveness-checking structures, congruence class lists) to a
tracker.  The tracker keeps both the *total* number of bytes ever allocated
and the *maximum* simultaneously-live footprint, matching the two bars of
Figure 7.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, Optional


class AllocationTracker:
    """Accumulates per-category byte counts for one out-of-SSA run."""

    def __init__(self) -> None:
        self.total_bytes: Dict[str, int] = {}
        self.live_bytes: Dict[str, int] = {}
        self.peak_bytes: Dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def allocate(self, category: str, nbytes: int) -> None:
        """Record an allocation of ``nbytes`` bytes under ``category``."""
        if nbytes <= 0:
            return
        self.total_bytes[category] = self.total_bytes.get(category, 0) + nbytes
        self.live_bytes[category] = self.live_bytes.get(category, 0) + nbytes
        self.peak_bytes[category] = max(
            self.peak_bytes.get(category, 0), self.live_bytes[category]
        )

    def free(self, category: str, nbytes: int) -> None:
        """Record that ``nbytes`` bytes of ``category`` were released."""
        if nbytes <= 0:
            return
        self.live_bytes[category] = max(0, self.live_bytes.get(category, 0) - nbytes)

    def resize(self, category: str, old_bytes: int, new_bytes: int) -> None:
        """Record a grow/shrink of a structure (e.g. dynamic bit-matrix)."""
        if new_bytes > old_bytes:
            self.allocate(category, new_bytes - old_bytes)
        else:
            self.free(category, old_bytes - new_bytes)

    # -- reporting -----------------------------------------------------------
    def total(self) -> int:
        return sum(self.total_bytes.values())

    def peak(self) -> int:
        return sum(self.peak_bytes.values())

    def by_category(self) -> Dict[str, Dict[str, int]]:
        categories = set(self.total_bytes) | set(self.peak_bytes)
        return {
            category: {
                "total": self.total_bytes.get(category, 0),
                "peak": self.peak_bytes.get(category, 0),
            }
            for category in sorted(categories)
        }

    def __repr__(self) -> str:
        return f"AllocationTracker(total={self.total()}, peak={self.peak()})"


# The installed tracker is *per thread*: a translation runs entirely on one
# thread, and the service layer (sharded scheduler, daemon handler threads)
# translates concurrently — a process-wide slot would let one thread's
# tracker absorb another thread's allocations (or leak into code that runs
# with no tracker installed at all).
_CURRENT = threading.local()


def current_tracker() -> Optional[AllocationTracker]:
    """The tracker installed by :func:`track_allocations` on this thread."""
    return getattr(_CURRENT, "tracker", None)


def record_allocation(category: str, nbytes: int) -> None:
    """Report an allocation to this thread's installed tracker (if any)."""
    tracker = getattr(_CURRENT, "tracker", None)
    if tracker is not None:
        tracker.allocate(category, nbytes)


@contextlib.contextmanager
def track_allocations(tracker: Optional[AllocationTracker] = None) -> Iterator[AllocationTracker]:
    """Install ``tracker`` (or a fresh one) as this thread's allocation sink."""
    tracker = tracker if tracker is not None else AllocationTracker()
    previous = getattr(_CURRENT, "tracker", None)
    _CURRENT.tracker = tracker
    try:
        yield tracker
    finally:
        _CURRENT.tracker = previous
