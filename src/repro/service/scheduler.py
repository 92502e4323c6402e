"""Sharded concurrent scheduling of translation requests.

:class:`ShardedScheduler` routes every request to one of N shards by
*digest affinity* (``shard_of``): the same program always lands on the same
shard, so each shard's content-addressed cache stays coherent without any
cross-shard locking.  Work always runs in the calling thread; the daemon
gets its concurrency by running one :meth:`ShardedScheduler.stream_shard`
per non-empty :meth:`ShardedScheduler.partition` on its own worker pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.ir.digest import text_digest
from repro.ir.parser import ParseError
from repro.outofssa.config import DEFAULT_ENGINE
from repro.pipeline.pipeline import EngineLike, resolve_engine
from repro.service.translator import ServiceResult, TranslationService


def shard_of(digest: str, shards: int) -> int:
    """The shard a digest is affine to (stable across runs and processes)."""
    if shards <= 1:
        return 0
    return int(digest[:8], 16) % shards


# --------------------------------------------------------------------------- shards
@dataclass
class ShardStats:
    """Per-shard accounting for one scheduler."""

    shard: int
    requests: int = 0
    hits: int = 0
    cold: int = 0
    seconds: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "requests": self.requests,
            "hits": self.hits,
            "cold": self.cold,
            "seconds": self.seconds,
        }


class ShardedScheduler:
    """Partition request batches over digest-affine translation shards."""

    def __init__(
        self,
        engine: EngineLike = DEFAULT_ENGINE,
        *,
        shards: int = 4,
        capacity: int = 256,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.engine = resolve_engine(engine)
        self.services: List[TranslationService] = [
            TranslationService(self.engine, capacity=capacity) for _ in range(shards)
        ]
        self.shard_stats: List[ShardStats] = [ShardStats(shard=i) for i in range(shards)]
        self._stats_lock = threading.Lock()

    @property
    def shards(self) -> int:
        return len(self.services)

    # -- single request ---------------------------------------------------------
    def translate(self, source_text: str, engine: Optional[EngineLike] = None) -> ServiceResult:
        """Serve one request on its affine shard (always in-thread)."""
        config = self.engine if engine is None else resolve_engine(engine)
        shard = shard_of(text_digest(source_text), self.shards)
        began = time.perf_counter()
        result = self.services[shard].translate_text(source_text, engine=config)
        result.shard = shard
        self._account(shard, result, time.perf_counter() - began)
        return result

    def try_hit(
        self, source_text: str, engine: Optional[EngineLike] = None
    ) -> Optional[ServiceResult]:
        """Non-blocking warm-hit probe on the affine shard (or ``None``).

        Mirrors :meth:`TranslationService.try_hit`: no translation is ever
        started and the shard lock is never waited on, so this is safe to
        call from an event loop.
        """
        config = self.engine if engine is None else resolve_engine(engine)
        shard = shard_of(text_digest(source_text), self.shards)
        began = time.perf_counter()
        result = self.services[shard].try_hit(source_text, engine=config)
        if result is None:
            return None
        result.shard = shard
        self._account(shard, result, time.perf_counter() - began)
        return result

    def verify(
        self,
        source_text: str,
        engine: Optional[EngineLike] = None,
        level: str = "full",
    ) -> Dict[str, object]:
        """Run the invariant checkers on the request's affine shard.

        Digest affinity matters here: only that shard's cache can hold the
        program's warm translation, so only there can the cold-vs-cached
        cross-check (``V601``) fire.
        """
        config = self.engine if engine is None else resolve_engine(engine)
        shard = shard_of(text_digest(source_text), self.shards)
        payload = self.services[shard].verify(source_text, engine=config, level=level)
        payload["shard"] = shard
        return payload

    # -- batches ----------------------------------------------------------------
    def partition(self, texts: Sequence[str]) -> Dict[int, List[int]]:
        """Request indices grouped by their digest-affine shard."""
        partitions: Dict[int, List[int]] = {i: [] for i in range(self.shards)}
        for index, text in enumerate(texts):
            partitions[shard_of(text_digest(text), self.shards)].append(index)
        return partitions

    def stream_shard(
        self,
        shard: int,
        texts: Sequence[str],
        indices: Sequence[int],
        engine: Optional[EngineLike] = None,
        emit: Optional[Callable] = None,
        cancelled: Optional[threading.Event] = None,
    ) -> int:
        """Translate one shard's batch slice item by item, emitting each.

        The streaming half of a pipelined ``translate_batch``: the async
        daemon runs one ``stream_shard`` per non-empty partition on its
        worker pool, and ``emit(index, result, error)`` fires *from the
        calling thread* as each item completes — so results stream in
        completion order across shards instead of waiting for batch end.
        Per-item failures (parse errors, unknown engines) are reported
        through ``emit`` with ``result=None`` and never abort the slice.

        ``cancelled`` (a :class:`threading.Event`) aborts between items:
        when a client abandons its connection mid-batch, the shard stops
        burning time after the translation already in flight.  Returns how
        many items were served (emitted with a result).
        """
        config = self.engine if engine is None else resolve_engine(engine)
        began = time.perf_counter()
        served = 0
        try:
            for index in indices:
                if cancelled is not None and cancelled.is_set():
                    break
                try:
                    result = self.services[shard].translate_text(
                        texts[index], engine=config
                    )
                except (ParseError, KeyError, ValueError, TypeError) as error:
                    message = error.args[0] if error.args else str(error)
                    if emit is not None:
                        emit(index, None, str(message))
                    continue
                result.shard = shard
                self._account(shard, result, 0.0)
                served += 1
                if emit is not None:
                    emit(index, result, None)
        finally:
            self._account_seconds(shard, time.perf_counter() - began)
        return served

    # -- accounting --------------------------------------------------------------
    def _account(self, shard: int, result: ServiceResult, seconds: float) -> None:
        with self._stats_lock:
            stats = self.shard_stats[shard]
            stats.requests += 1
            if result.cached:
                stats.hits += 1
            else:
                stats.cold += 1
            stats.seconds += seconds

    def _account_seconds(self, shard: int, seconds: float) -> None:
        with self._stats_lock:
            self.shard_stats[shard].seconds += seconds

    # -- maintenance --------------------------------------------------------------
    def flush(self) -> int:
        """Flush every shard; returns the total entries dropped."""
        return sum(service.flush() for service in self.services)

    def stats_payload(self) -> Dict[str, object]:
        with self._stats_lock:
            shard_rows = [stats.to_payload() for stats in self.shard_stats]
        totals = {
            "requests": sum(row["requests"] for row in shard_rows),
            "hits": sum(row["hits"] for row in shard_rows),
            "cold": sum(row["cold"] for row in shard_rows),
        }
        return {
            "engine": self.engine.name,
            "fingerprint": self.engine.fingerprint(),
            "shards": shard_rows,
            "services": [service.stats_payload() for service in self.services],
            **totals,
        }

    def __repr__(self) -> str:
        return f"ShardedScheduler({self.engine.name!r}, {self.shards} shards)"
