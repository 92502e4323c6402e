"""One translation worker: a warm session per engine behind one cache.

:class:`TranslationService` is the unit the sharded scheduler replicates and
the daemon dispatches into.  It owns

* one :class:`~repro.service.cache.TranslationCache` (content-addressed,
  possibly shared), and
* one warm :class:`~repro.pipeline.session.Session` per engine
  *fingerprint* it has served, so re-translations of hot functions reuse the
  retained per-function :class:`~repro.pipeline.analysis.AnalysisCache`.

The request lifecycle (``translate_text``):

1. digest the source text, fingerprint the engine;
2. **hit** — return the completed translation verbatim (no parse, no
   analysis, no translation);
3. **miss** — parse, translate through the warm session, store the result
   *and* the warm state (translated function + patched analysis cache), so
   the function is hot from now on.

:meth:`TranslationService.retranslate` is the JIT path over the warm state:
the caller edits the hot function in place, describes the edits as an
:class:`~repro.ir.editlog.EditLog` (exactly as the passes describe their
own), and the service patches the retained ``check`` backend's answer caches
from the log before running the pipeline again over the same analysis
cache; every other analysis is rebuilt cold, so the result is the cold
translation of the edited program by construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.ir.digest import function_digest, text_digest
from repro.ir.editlog import EditLog
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.ir.validate import validate_function
from repro.outofssa.config import DEFAULT_ENGINE, EngineConfig
from repro.pipeline.pipeline import EngineLike, Pipeline, resolve_engine
from repro.pipeline.session import Session
from repro.service.cache import CachedTranslation, TranslationCache, WarmState


@dataclass
class ServiceResult:
    """What one ``translate`` request returns (hit or miss)."""

    digest: str
    fingerprint: str
    engine: str
    ir_text: str
    #: "hit" (served from cache), "cold" (translated now) or "warm" (a
    #: retranslation over retained warm state).
    kind: str
    #: Wall-clock seconds this request took *in the service*.
    seconds: float
    #: Seconds the underlying translation took when it actually ran (for a
    #: hit: the original cold translation's time — what the cache saved).
    translate_seconds: float
    stats: Dict[str, object] = field(default_factory=dict)
    #: Shard index, filled in by the scheduler.
    shard: Optional[int] = None

    @property
    def cached(self) -> bool:
        return self.kind == "hit"

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict (the service protocol's response body)."""
        return {
            "digest": self.digest,
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "ir": self.ir_text,
            "kind": self.kind,
            "cached": self.cached,
            "seconds": self.seconds,
            "translate_seconds": self.translate_seconds,
            "stats": dict(self.stats),
            "shard": self.shard,
        }


class TranslationService:
    """One worker: cache in front, warm sessions behind."""

    def __init__(
        self,
        engine: EngineLike = DEFAULT_ENGINE,
        *,
        cache: Optional[TranslationCache] = None,
        capacity: int = 256,
    ) -> None:
        self.default_config = resolve_engine(engine)
        self.cache = cache if cache is not None else TranslationCache(capacity)
        # Warm state is only retained when the cache can actually hold (and
        # eventually evict-and-release) it: with caching disabled the
        # eviction hook never runs, so a warm session would accumulate one
        # AnalysisCache per request forever in a long-lived daemon.
        self._warm = self.cache.capacity != 0
        self._sessions: Dict[str, Session] = {}
        self._configs: Dict[str, EngineConfig] = {}
        self._lock = threading.RLock()
        self.requests = 0

    # -- engine / session resolution -------------------------------------------
    def _resolve(self, engine: Optional[EngineLike]) -> EngineConfig:
        if engine is None:
            return self.default_config
        return resolve_engine(engine)

    def _session(self, config: EngineConfig) -> Session:
        fingerprint = config.fingerprint()
        session = self._sessions.get(fingerprint)
        if session is None:
            session = Session(config, warm=self._warm)
            self._sessions[fingerprint] = session
            self._configs[fingerprint] = config
        return session

    def sessions(self) -> Dict[str, Session]:
        """The warm sessions by fingerprint (introspection/tests)."""
        with self._lock:
            return dict(self._sessions)

    # -- the request path -------------------------------------------------------
    def translate_text(
        self, source_text: str, engine: Optional[EngineLike] = None
    ) -> ServiceResult:
        """Serve one translation request (hit or cold miss)."""
        began = time.perf_counter()
        config = self._resolve(engine)
        digest = text_digest(source_text)
        fingerprint = config.fingerprint()
        with self._lock:
            self.requests += 1
            entry = self.cache.lookup(digest, fingerprint)
            if entry is not None:
                return ServiceResult(
                    digest=digest,
                    fingerprint=fingerprint,
                    engine=entry.engine_name,
                    ir_text=entry.ir_text,
                    kind="hit",
                    seconds=time.perf_counter() - began,
                    translate_seconds=entry.seconds,
                    # A copy: results are caller-owned, the entry is not.
                    stats=dict(entry.stats),
                )
            function = parse_function(source_text)
            # The ingest boundary: a malformed program fails with a located
            # error instead of deep inside a pass.
            validate_function(function)
            session = self._session(config)
            result = session.translate(function)
            ir_text = format_function(function)
            seconds = time.perf_counter() - began
            entry = CachedTranslation(
                digest=digest,
                fingerprint=fingerprint,
                engine_name=config.name,
                ir_text=ir_text,
                seconds=seconds,
                stats=asdict(result.stats),
            )
            warm_state = None
            if self._warm:
                warm_state = WarmState(
                    function=function,
                    analyses=session.warm_cache(function),
                    session=session,
                )
            self.cache.store(entry, warm_state)
            return ServiceResult(
                digest=digest,
                fingerprint=fingerprint,
                engine=config.name,
                ir_text=ir_text,
                kind="cold",
                seconds=seconds,
                translate_seconds=seconds,
                stats=dict(entry.stats),
            )

    def translate_function(self, function, engine: Optional[EngineLike] = None) -> ServiceResult:
        """Convenience for in-process callers holding a Function value.

        The function is *not* mutated: its canonical printed form goes
        through the text path, so in-process and protocol clients address
        the same cache entries.
        """
        return self.translate_text(format_function(function), engine=engine)

    # -- the JIT warm path ------------------------------------------------------
    def retranslate(
        self,
        digest: str,
        edit_log: EditLog,
        engine: Optional[EngineLike] = None,
    ) -> ServiceResult:
        """Re-translate a hot function after in-place edits, warm.

        ``digest``/``engine`` name the warm state retained by a previous
        cold translation; the caller has already applied its structural
        edits to that state's function object and describes them with
        ``edit_log``.  The retained ``check`` caches are patched from the
        log, every other analysis is invalidated, the pipeline runs again
        over the same analysis cache, and the result is stored under the
        *edited* program's digest — exactly what a cold translation of the
        edited text would have been keyed as, and property-tested
        bit-identical to it.
        """
        began = time.perf_counter()
        config = self._resolve(engine)
        fingerprint = config.fingerprint()
        with self._lock:
            self.requests += 1
            state = self.cache.warm_state(digest, fingerprint)
            if state is None:
                raise KeyError(
                    f"no warm state for digest {digest[:12]}… under engine "
                    f"{config.name!r} (cold-translate it first)"
                )
            session = self._session(config)
            session.apply_edits(state.function, edit_log)
            new_digest = function_digest(state.function)
            # The function now denotes the *edited* program: move the warm
            # state off the old key (whose stored result text stays valid)
            # so evicting that entry cannot drop the analysis cache the new
            # key depends on, and a later retranslate of the old digest
            # fails loudly instead of stacking edits silently.
            self.cache.detach_warm(digest, fingerprint)
            result = session.translate(state.function)
            ir_text = format_function(state.function)
            seconds = time.perf_counter() - began
            entry = CachedTranslation(
                digest=new_digest,
                fingerprint=fingerprint,
                engine_name=config.name,
                ir_text=ir_text,
                seconds=seconds,
                stats=asdict(result.stats),
            )
            warm_state = None
            if self._warm:
                warm_state = WarmState(
                    function=state.function,
                    analyses=session.warm_cache(state.function),
                    session=session,
                )
            self.cache.store(entry, warm_state)
            return ServiceResult(
                digest=new_digest,
                fingerprint=fingerprint,
                engine=config.name,
                ir_text=ir_text,
                kind="warm",
                seconds=seconds,
                translate_seconds=seconds,
                stats=dict(entry.stats),
            )

    # -- verification -----------------------------------------------------------
    def verify(
        self,
        source_text: str,
        engine: Optional[EngineLike] = None,
        level: str = "full",
    ) -> Dict[str, object]:
        """Run the staged invariant checkers over one request's program.

        The program is re-parsed and translated through a *throwaway* checked
        pipeline (never the warm session — verification must not perturb warm
        state), and when the cache already holds a translation of the same
        digest the cold result is compared against it: a mismatch is the
        service-level diagnostic ``V601``.
        """
        from dataclasses import replace as dc_replace

        from repro.verify.checks import check_structure
        from repro.verify.diagnostics import VerifyReport, diagnostic

        if level not in ("fast", "full"):
            raise ValueError(f"verify level must be 'fast' or 'full', got {level!r}")
        began = time.perf_counter()
        config = self._resolve(engine)
        digest = text_digest(source_text)
        fingerprint = config.fingerprint()
        function = parse_function(source_text)

        structural = check_structure(function)
        translated = not any(diag.is_error for diag in structural)
        if translated:
            checked = dc_replace(config, verify_level=level)
            result = Pipeline.for_engine(checked).run(function)
            report = result.verify_report
            assert report is not None
        else:
            # Translation would crash on broken structure; report the input
            # findings alone.
            report = VerifyReport(function=function.name, level=level)
            report.stages_run.append("input")
            report.extend(structural)

        with self._lock:
            self.requests += 1
            entry = self.cache.lookup(digest, fingerprint)
        cached = entry is not None
        match: Optional[bool] = None
        if cached and translated:
            match = entry.ir_text == format_function(function)
            if not match:
                report.extend([diagnostic(
                    "V601",
                    f"cached translation of digest {digest[:12]}… differs from "
                    f"a cold retranslation under engine {config.name}",
                    function=function.name, stage="service",
                )])
        report.seconds = time.perf_counter() - began
        return {
            "digest": digest,
            "fingerprint": fingerprint,
            "engine": config.name,
            "level": level,
            "cached": cached,
            "match": match,
            "ok": report.ok,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "seconds": report.seconds,
            "diagnostics": [diag.to_payload() for diag in report.diagnostics],
        }

    def try_hit(
        self, source_text: str, engine: Optional[EngineLike] = None
    ) -> Optional[ServiceResult]:
        """A non-blocking warm-hit probe for latency-sensitive callers.

        Returns the cached translation only when the entry is warm *and*
        the service lock is immediately available; returns ``None`` on a
        miss or while a cold translation holds the lock, so a caller on an
        event loop can fall back to a worker thread instead of stalling.
        A served hit counts exactly like a :meth:`translate_text` hit.
        """
        began = time.perf_counter()
        config = self._resolve(engine)
        digest = text_digest(source_text)
        fingerprint = config.fingerprint()
        if not self._lock.acquire(blocking=False):
            return None
        try:
            entry = self.cache.lookup(digest, fingerprint)
            if entry is None:
                return None
            self.requests += 1
            return ServiceResult(
                digest=digest,
                fingerprint=fingerprint,
                engine=entry.engine_name,
                ir_text=entry.ir_text,
                kind="hit",
                seconds=time.perf_counter() - began,
                translate_seconds=entry.seconds,
                stats=dict(entry.stats),
            )
        finally:
            self._lock.release()

    # -- maintenance ------------------------------------------------------------
    def flush(self) -> int:
        """Flush the cache and every warm session; returns entries dropped."""
        with self._lock:
            count = self.cache.flush()
            for session in self._sessions.values():
                session.flush_warm()
            return count

    def stats_payload(self) -> Dict[str, object]:
        with self._lock:
            return {
                "requests": self.requests,
                "engine": self.default_config.name,
                "fingerprint": self.default_config.fingerprint(),
                "sessions": len(self._sessions),
                "cache": self.cache.stats().to_payload(),
            }

    def __repr__(self) -> str:
        return (
            f"TranslationService({self.default_config.name!r}, "
            f"{self.requests} requests, {self.cache!r})"
        )
