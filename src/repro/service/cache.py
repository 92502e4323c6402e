"""Content-addressed warm cache for completed translations.

The cache is keyed by ``(IR digest, engine fingerprint)``:

* the digest (:func:`repro.ir.digest.text_digest`) addresses the *program* —
  the same source text, however it reached the service, maps to the same
  entry;
* the fingerprint (:meth:`repro.outofssa.config.EngineConfig.fingerprint`)
  addresses the *semantics of the engine* — two differently-named configs
  with the same knobs share entries, two configs differing in any knob never
  do.

A hit returns the completed :class:`CachedTranslation` (output text + stats
snapshot) without parsing, analysing or translating anything.  Alongside the
result, the cache can retain the per-key :class:`WarmState`: the translated
:class:`~repro.ir.function.Function` object, so a JIT-style *edit and
re-translate* of a hot function skips the parse (see
``TranslationService.retranslate``).  No analysis is retained: the
re-translation is one cold pipeline run over the edited function.

Eviction is LRU over completed results with the warm state evicted alongside
its entry; ``capacity=0`` disables caching (every request translates cold —
the baseline the throughput benchmark measures against).  All public methods
are thread-safe: one cache may be shared by every handler thread of a shard.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ir.function import Function

#: A cache key: ``(text digest of the source IR, engine fingerprint)``.
CacheKey = Tuple[str, str]


@dataclass
class CachedTranslation:
    """One completed translation, addressed by content."""

    digest: str
    fingerprint: str
    engine_name: str
    #: The translated function's canonical printed form (what a hit returns).
    ir_text: str
    #: Wall-clock seconds of the original cold translation (parse included).
    seconds: float
    #: JSON-safe snapshot of the run's :class:`~repro.outofssa.result.OutOfSSAStats`.
    stats: Dict[str, object] = field(default_factory=dict)
    #: Times this entry was served instead of re-translating.
    hits: int = 0

    @property
    def key(self) -> CacheKey:
        return (self.digest, self.fingerprint)


@dataclass
class WarmState:
    """The translated (out-of-SSA) function object retained next to a result,
    which callers edit in place before a re-translation."""

    function: Function


@dataclass
class CacheStats:
    """Counters describing one cache (all monotone except ``entries``)."""

    entries: int = 0
    warm_states: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "entries": self.entries,
            "warm_states": self.warm_states,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "flushes": self.flushes,
            "capacity": self.capacity,
        }


class TranslationCache:
    """LRU cache of completed translations plus their warm state."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._results: "OrderedDict[CacheKey, CachedTranslation]" = OrderedDict()
        self._warm: Dict[CacheKey, WarmState] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._flushes = 0

    # -- lookup / store --------------------------------------------------------
    def lookup(self, digest: str, fingerprint: str) -> Optional[CachedTranslation]:
        """The cached translation for this key, or ``None`` (counted as a miss)."""
        key = (digest, fingerprint)
        with self._lock:
            entry = self._results.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._results.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def store(
        self,
        entry: CachedTranslation,
        warm_state: Optional[WarmState] = None,
    ) -> None:
        """Install a completed translation (and optionally its warm state).

        With ``capacity=0`` this is a no-op: the disabled cache never holds
        anything, which is what makes it the cold baseline.
        """
        if self.capacity == 0:
            return
        with self._lock:
            key = entry.key
            self._results[key] = entry
            self._results.move_to_end(key)
            if warm_state is not None:
                self._warm[key] = warm_state
            while len(self._results) > self.capacity:
                evicted_key, _ = self._results.popitem(last=False)
                self._warm.pop(evicted_key, None)
                self._evictions += 1

    def warm_state(self, digest: str, fingerprint: str) -> Optional[WarmState]:
        """The retained warm state for this key, if any (not a hit/miss event)."""
        with self._lock:
            return self._warm.get((digest, fingerprint))

    def detach_warm(self, digest: str, fingerprint: str) -> Optional[WarmState]:
        """Remove and return a warm state.

        Used by ``retranslate``: after in-place edits the function belongs to
        the edited program's digest, so the state moves keys — the old
        result entry stays valid (its stored text still answers the old
        program) but must no longer alias the mutated function, and evicting
        it must not drop the function the new key depends on.
        """
        with self._lock:
            return self._warm.pop((digest, fingerprint), None)

    # -- maintenance -----------------------------------------------------------
    def flush(self) -> int:
        """Drop every entry and warm state; returns how many entries held."""
        with self._lock:
            count = len(self._results)
            self._warm.clear()
            self._results.clear()
            self._flushes += 1
            return count

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                entries=len(self._results),
                warm_states=len(self._warm),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                flushes=self._flushes,
                capacity=self.capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._results

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"TranslationCache({stats.entries}/{self.capacity} entries, "
            f"{stats.hits} hits, {stats.misses} misses)"
        )
