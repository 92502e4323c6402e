"""The translation service layer: out-of-SSA as a long-running daemon.

The paper's pitch is that out-of-SSA translation is fast enough to run
constantly inside a JIT.  This package turns the batch pipeline into exactly
that serving workload — heavy sustained traffic of translation requests over
hot functions:

* :mod:`repro.service.cache` — :class:`TranslationCache`, a content-addressed
  warm cache keyed by IR digest × engine fingerprint, holding completed
  translations *and* the per-function warm state (the translated
  :class:`~repro.ir.function.Function` plus its patched
  :class:`~repro.pipeline.analysis.AnalysisCache`);
* :mod:`repro.service.translator` — :class:`TranslationService`, one worker:
  a warm :class:`~repro.pipeline.session.Session` per engine fingerprint in
  front of one cache;
* :mod:`repro.service.scheduler` — :class:`ShardedScheduler`, routing each
  request to one of N digest-affine shards; the daemon streams each batch
  partition on its worker threads;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a stdlib-only
  asyncio socket daemon (``repro serve``) speaking an id-tagged, pipelined
  newline-delimited-JSON protocol with streamed batches, admission control
  and per-connection backpressure, plus its clients (an asyncio core and a
  blocking façade);
* :mod:`repro.service.metrics` — :class:`MetricsRegistry`, the daemon's
  lock-cheap counters, gauges and latency histograms behind the ``metrics``
  verb.

See ``docs/SERVICE.md`` for the protocol, the cache keying and the
warm-vs-cold lifecycle.
"""

from repro.service.cache import CachedTranslation, CacheStats, TranslationCache, WarmState
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.metrics import LatencyHistogram, MetricsRegistry
from repro.service.scheduler import ShardedScheduler, ShardStats, shard_of
from repro.service.server import TranslationServer
from repro.service.translator import ServiceResult, TranslationService

__all__ = [
    "AsyncServiceClient",
    "CacheStats",
    "CachedTranslation",
    "LatencyHistogram",
    "MetricsRegistry",
    "ServiceClient",
    "ServiceError",
    "ServiceResult",
    "ShardStats",
    "ShardedScheduler",
    "TranslationCache",
    "TranslationServer",
    "TranslationService",
    "WarmState",
    "shard_of",
]
