"""The ``repro serve`` daemon: an asyncio, pipelined NDJSON protocol front.

Stdlib only (``asyncio`` + ``json``).  One TCP connection carries any number
of concurrently in-flight requests; each request is one JSON object on one
line carrying a client-chosen ``id``, and each response echoes that ``id`` —
responses stream back in **completion order**, not request order:

    {"id": 1, "verb": "translate", "ir": "function f(...) { ... }"}
    {"id": 1, "ok": true, "ir": "...", "cached": false, ...}

Protocol (``repro-serve/2``)
----------------------------
``id`` is optional (any JSON scalar, echoed verbatim; responses to id-less
requests and to unparseable frames carry ``"id": null``).  Verbs:

``translate``
    ``ir`` (required): textual IR; ``engine`` (optional): engine name.
``translate_batch``
    ``irs`` (required): list of textual IR documents.  The response is
    **streamed**: one frame ``{"id":…, "item": i, "done": false, …}`` per
    item *as its digest-affine shard finishes it*, in completion order,
    then a terminal ``{"id":…, "done": true, "count": N, "errors": k}``.
    Per-item failures are item frames with ``ok: false``; they never abort
    the rest of the batch.
``verify``
    ``ir`` (required); ``level`` (optional, ``fast``/``full``): the staged
    invariant checkers over a throwaway checked translation on the
    program's affine shard (diagnostic ``V601`` cross-checks the cache).
``stats``
    Scheduler + per-shard + cache counters, uptime, engine fingerprint.
``metrics``
    The live serving metrics: queue depth (current + peak), in-flight
    count, connections, per-shard hit rates, and per-verb latency
    histograms with p50/p95/p99 (see :mod:`repro.service.metrics`).
``flush``
    Drop every cache entry and warm state; returns how many were dropped.
``ping``
    Liveness probe; reports the banner, protocol version, engine, shard
    count and the admission limits.
``shutdown``
    Acknowledge, **drain** every in-flight pipelined request (bounded by
    ``drain_timeout``), then stop.

Admission control and backpressure
----------------------------------
Heavy verbs (``translate``/``translate_batch``/``verify``) pass an
admission check before running: when more than ``max_pending`` items are
already queued or running, the request is *shed* with an explicit
``{"ok": false, "overloaded": true}`` response instead of growing the queue
without bound.  Per connection, at most ``max_pipeline`` requests may be in
flight — beyond that the daemon simply stops reading the connection until
one completes (TCP pushes back on the client).  Writes go through
``drain()``, so a slow reader pauses the responses (and, transitively, the
reads) instead of buffering unboundedly.  Frames longer than ``max_frame``
bytes are rejected with an error response; a malformed line never kills the
connection, let alone the daemon, and a connection dropped mid-pipeline has
its outstanding requests cancelled without touching warm state.

Execution model
---------------
One event loop owns all connections (no thread per connection); the
CPU-bound translation work runs on a fixed pool of ``workers`` threads.
Every mutable daemon counter is owned by the event-loop thread; everything
shared with worker threads lives behind the scheduler's stats lock or the
metrics registry's lock.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from repro.ir.parser import ParseError
from repro.outofssa.config import DEFAULT_ENGINE
from repro.pipeline.pipeline import EngineLike, resolve_engine
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import ShardedScheduler

#: Service banner returned by ``ping`` (protocol major version included).
BANNER = "repro-serve/2"

#: Verbs that translate (run on the worker pool, pass admission control).
HEAVY_VERBS = ("translate", "translate_batch", "verify")


class _Connection:
    """Per-connection state: serialized writes, in-flight pipeline window."""

    def __init__(self, writer: asyncio.StreamWriter, max_pipeline: int) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: Set[asyncio.Task] = set()
        self.in_flight = 0
        self.max_pipeline = max_pipeline
        #: Set whenever an in-flight slot frees up (read loop waits on it).
        self.slot_freed = asyncio.Event()
        self.closed = False

    async def send(self, payload: Dict[str, object]) -> None:
        """Write one response frame; ``drain()`` gives slow-reader backpressure."""
        if self.closed:
            return
        data = (json.dumps(payload) + "\n").encode("utf-8")
        async with self.write_lock:
            if self.closed:
                return
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.transport.abort()
        except (AttributeError, ConnectionError, OSError):
            pass


class TranslationServer:
    """The daemon: a sharded scheduler behind an async pipelined NDJSON front.

    The constructor binds the listening socket immediately (so ``port`` is
    known before the loop runs); ``serve_forever`` / ``serve_in_background``
    start the event loop.  ``shutdown`` is thread-safe and drains in-flight
    requests before stopping.
    """

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        engine: EngineLike = DEFAULT_ENGINE,
        shards: int = 2,
        mode: str = "thread",
        capacity: int = 256,
        workers: Optional[int] = None,
        max_pending: int = 64,
        max_pipeline: int = 32,
        max_frame: int = 8 * 1024 * 1024,
        metrics_interval: float = 0.0,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        if max_pipeline < 1:
            raise ValueError(f"max_pipeline must be >= 1, got {max_pipeline}")
        self.scheduler = ShardedScheduler(engine, shards=shards, mode=mode, capacity=capacity)
        self.workers = workers if workers is not None else max(2, self.scheduler.shards)
        self.max_pending = max_pending
        self.max_pipeline = max_pipeline
        self.max_frame = max_frame
        self.metrics_interval = metrics_interval
        self.drain_timeout = drain_timeout
        self.metrics = MetricsRegistry()
        self.started = time.time()
        # Event-loop-thread-owned counters (single writer by construction —
        # the async rewrite's answer to the old daemon's unlocked reads).
        self.requests_served = 0
        self._pending = 0
        self._stopping = False
        self._connections: Set[_Connection] = set()
        self._heavy_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stop_requested = threading.Event()
        self._done = threading.Event()
        self._done.set()  # not running yet
        # Bind now so callers can read the port before the loop starts
        # (create_server sets SO_REUSEADDR on POSIX).
        self._socket = socket.create_server(address)
        self.server_address = self._socket.getsockname()

    # -- addressing --------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- introspection (tests, fault harness) ------------------------------------
    @property
    def pending_requests(self) -> int:
        """Admitted heavy items not yet retired (queued + running)."""
        return self._pending

    @property
    def inflight_tasks(self) -> int:
        """Live asyncio tasks serving heavy requests (leak detector)."""
        return len(self._heavy_tasks)

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    # -- lifecycle ----------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until shutdown."""
        self._done.clear()
        try:
            asyncio.run(self._main())
        finally:
            self._done.set()

    def serve_in_background(self) -> threading.Thread:
        """Start the event loop on a daemon thread (tests, embedding)."""
        self._done.clear()
        thread = threading.Thread(target=self._run_background, daemon=True)
        thread.start()
        return thread

    def _run_background(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._done.set()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the daemon (thread-safe, idempotent); blocks until stopped.

        In-flight pipelined requests are drained (bounded by
        ``drain_timeout``) before the loop exits, so every admitted request
        still gets its response.
        """
        self._stop_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._done.wait(timeout=timeout)

    def server_close(self) -> None:
        """Close the listening socket (idempotent; the loop may own it too)."""
        try:
            self._socket.close()
        except OSError:
            pass

    def _begin_shutdown(self) -> None:
        self._stopping = True
        if self._stop_async is not None:
            self._stop_async.set()

    # -- the event loop ------------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        if self._stop_requested.is_set():
            self._begin_shutdown()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket, limit=self.max_frame
        )
        reporter = None
        if self.metrics_interval > 0:
            reporter = asyncio.get_running_loop().create_task(self._metrics_reporter())
        try:
            async with server:
                await self._stop_async.wait()
            # Drain: the listener is closed, no new work is admitted (the
            # read loops check _stopping); wait for every admitted request
            # to finish and flush its response, bounded by drain_timeout.
            if self._heavy_tasks:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*list(self._heavy_tasks), return_exceptions=True),
                        timeout=self.drain_timeout,
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            if reporter is not None:
                reporter.cancel()
            for connection in list(self._connections):
                connection.close()
            self._executor.shutdown(wait=False)
            self._loop = None

    async def _metrics_reporter(self) -> None:
        while True:
            await asyncio.sleep(self.metrics_interval)
            line = {
                "requests": self.requests_served,
                "queue_depth": self._pending,
                "queue_peak": self.metrics.gauge("queue_depth_peak"),
                "connections": len(self._connections),
                "hits": self.metrics.counter("hits_total"),
                "overloaded": self.metrics.counter("overloaded_total"),
            }
            snapshot = self.metrics.snapshot()
            translate = snapshot["latency"].get("latency_translate")
            if translate:
                line["translate_p50_ms"] = translate["p50_ms"]
                line["translate_p99_ms"] = translate["p99_ms"]
            print(f"repro serve: metrics {json.dumps(line)}", flush=True)

    # -- per connection -----------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer, self.max_pipeline)
        self._connections.add(connection)
        self.metrics.gauge_set("connections", len(self._connections))
        # A dropped connection abandons its in-flight requests (cancel); a
        # shutdown-initiated exit drains them instead.
        abandoned = True
        try:
            while not self._stopping:
                # Pipeline window: stop reading while the connection has
                # max_pipeline requests in flight (TCP pushes back).
                while connection.in_flight >= self.max_pipeline:
                    connection.slot_freed.clear()
                    await connection.slot_freed.wait()
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: the stream buffer was dropped; answer
                    # with an error and keep the connection.
                    self.metrics.increment("frame_errors_total")
                    await connection.send({
                        "id": None,
                        "ok": False,
                        "error": f"frame exceeds {self.max_frame} bytes",
                    })
                    continue
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break  # EOF
                if not raw.endswith(b"\n"):
                    # Truncated final frame: the peer died mid-write; there
                    # is no complete request to answer.
                    self.metrics.increment("frame_errors_total")
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8"))
                    if not isinstance(payload, dict):
                        raise ValueError("request must be a JSON object")
                except (UnicodeDecodeError, ValueError) as error:
                    self.metrics.increment("malformed_total")
                    await connection.send(
                        {"id": None, "ok": False, "error": f"malformed request: {error}"}
                    )
                    continue
                request_id = payload.get("id")
                self.requests_served += 1
                self.metrics.increment("requests_total")
                verb = payload.get("verb")
                if verb in HEAVY_VERBS:
                    self._dispatch_heavy(connection, payload, request_id)
                    continue
                response, stop = self._dispatch_light(payload)
                response["id"] = request_id
                await connection.send(response)
                if stop:
                    abandoned = False
                    self._begin_shutdown()
                    break
            if self._stopping:
                abandoned = False
        finally:
            self._connections.discard(connection)
            self.metrics.gauge_set("connections", len(self._connections))
            if connection.tasks:
                if abandoned:
                    for task in list(connection.tasks):
                        task.cancel()
                await asyncio.gather(*list(connection.tasks), return_exceptions=True)
            connection.close()

    # -- dispatch ----------------------------------------------------------------
    def _dispatch_heavy(
        self, connection: _Connection, payload: Dict[str, object], request_id
    ) -> None:
        """Admission-check one heavy request and launch its serving task."""
        verb = payload["verb"]
        irs = payload.get("irs")
        cost = len(irs) if verb == "translate_batch" and isinstance(irs, list) else 1
        if self._pending + cost > self.max_pending:
            self.metrics.increment("overloaded_total")
            loop = asyncio.get_running_loop()
            task = loop.create_task(connection.send({
                "id": request_id,
                "ok": False,
                "overloaded": True,
                "error": (
                    f"overloaded: {self._pending} items pending "
                    f"(limit {self.max_pending})"
                ),
            }))
            connection.tasks.add(task)
            task.add_done_callback(connection.tasks.discard)
            return
        self._pending += cost
        self.metrics.gauge_set("queue_depth", self._pending)
        connection.in_flight += 1
        task = asyncio.get_running_loop().create_task(
            self._serve_heavy(connection, payload, request_id)
        )
        connection.tasks.add(task)
        self._heavy_tasks.add(task)
        self.metrics.gauge_set("in_flight", len(self._heavy_tasks))
        task.add_done_callback(
            lambda finished, c=connection, k=cost: self._retire(c, finished, k)
        )

    def _retire(self, connection: _Connection, task: asyncio.Task, cost: int) -> None:
        connection.tasks.discard(task)
        self._heavy_tasks.discard(task)
        self._pending -= cost
        self.metrics.gauge_set("queue_depth", self._pending)
        self.metrics.gauge_set("in_flight", len(self._heavy_tasks))
        connection.in_flight -= 1
        if connection.in_flight < connection.max_pipeline:
            connection.slot_freed.set()
        if task.cancelled():
            self.metrics.increment("cancelled_total")
        elif task.exception() is not None:
            self.metrics.increment("internal_errors_total")

    async def _serve_heavy(
        self, connection: _Connection, payload: Dict[str, object], request_id
    ) -> None:
        verb = payload["verb"]
        began = time.perf_counter()
        if verb == "translate_batch":
            await self._serve_batch(connection, payload, request_id, began)
            return
        try:
            response = self._inline_hit(payload) if verb == "translate" else None
            if response is None:
                response = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._dispatch_blocking, payload
                )
        except asyncio.CancelledError:
            raise
        except Exception as error:  # defensive: never kill the connection
            response = {"ok": False, "error": str(error)}
        self.metrics.observe(f"latency_{verb}", time.perf_counter() - began)
        if response.get("cached") is True:
            self.metrics.increment("hits_total")
        elif verb == "translate" and response.get("ok"):
            self.metrics.increment("cold_total")
        if not response.get("ok"):
            self.metrics.increment("errors_total")
        response["id"] = request_id
        await connection.send(response)

    def _inline_hit(self, payload: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Serve a warm translate inline on the loop, skipping the executor.

        Hit serving is a dict lookup — pure Python that gains nothing from
        a worker thread and pays the loop→worker→loop hop for it.  The
        probe never waits on a shard lock (a cold translation holding it
        returns ``None``), so the loop cannot stall; any miss or oddity
        falls back to the blocking path, which also shapes all errors.
        """
        ir = payload.get("ir")
        if not isinstance(ir, str):
            return None
        try:
            result = self.scheduler.try_hit(ir, engine=self._engine_of(payload))
        except (KeyError, ValueError, TypeError):
            return None
        if result is None:
            return None
        self.metrics.increment("inline_hits_total")
        return {"ok": True, **result.to_payload()}

    def _dispatch_blocking(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One translate/verify request, on a worker thread."""
        verb = payload["verb"]
        try:
            if verb == "translate":
                ir = payload.get("ir")
                if not isinstance(ir, str):
                    raise ValueError("'translate' needs an 'ir' string field")
                result = self.scheduler.translate(ir, engine=self._engine_of(payload))
                return {"ok": True, **result.to_payload()}
            ir = payload.get("ir")
            if not isinstance(ir, str):
                raise ValueError("'verify' needs an 'ir' string field")
            level = payload.get("level", "full")
            if level not in ("fast", "full"):
                raise ValueError("'level' must be 'fast' or 'full'")
            report = self.scheduler.verify(
                ir, engine=self._engine_of(payload), level=str(level)
            )
            return {"ok": True, **report}
        except (ParseError, KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else str(error)
            return {"ok": False, "error": str(message)}

    async def _serve_batch(
        self,
        connection: _Connection,
        payload: Dict[str, object],
        request_id,
        began: float,
    ) -> None:
        """Stream per-item responses as shards finish, then a terminal frame."""
        irs = payload.get("irs")
        if not isinstance(irs, list) or not all(isinstance(t, str) for t in irs):
            self.metrics.increment("errors_total")
            await connection.send({
                "id": request_id,
                "ok": False,
                "error": "'translate_batch' needs an 'irs' list of strings",
            })
            return
        try:
            engine = self._engine_of(payload)
            if engine is not None:
                resolve_engine(engine)  # fail the whole batch fast
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            self.metrics.increment("errors_total")
            await connection.send({"id": request_id, "ok": False, "error": str(message)})
            return

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        cancelled = threading.Event()

        def emit(index: int, result, error: Optional[str]) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, (index, result, error))
            except RuntimeError:
                pass  # loop torn down while a shard was still finishing

        jobs = [
            loop.run_in_executor(
                self._executor,
                self.scheduler.stream_shard,
                shard, irs, indices, engine, emit, cancelled,
            )
            for shard, indices in self.scheduler.partition(irs).items()
            if indices
        ]
        errors = 0
        try:
            for _ in range(len(irs)):
                index, result, error = await queue.get()
                if error is not None:
                    errors += 1
                    self.metrics.increment("errors_total")
                    frame = {
                        "id": request_id, "ok": False,
                        "item": index, "done": False, "error": error,
                    }
                else:
                    self.metrics.increment("hits_total" if result.cached else "cold_total")
                    frame = {
                        "id": request_id, "ok": True,
                        "item": index, "done": False, **result.to_payload(),
                    }
                await connection.send(frame)
            await asyncio.gather(*jobs)
            self.metrics.observe("latency_translate_batch", time.perf_counter() - began)
            await connection.send({
                "id": request_id, "ok": True, "done": True,
                "count": len(irs), "errors": errors,
            })
        finally:
            # Reached normally once every item is answered (a no-op then),
            # and on cancellation — where it stops the shard workers from
            # translating for a client that is gone.
            cancelled.set()

    def _dispatch_light(
        self, payload: Dict[str, object]
    ) -> Tuple[Dict[str, object], bool]:
        """Answer one cheap verb inline on the event loop."""
        verb = payload.get("verb")
        if verb == "stats":
            return {
                "ok": True,
                "uptime_seconds": time.time() - self.started,
                "requests_served": self.requests_served,
                "stats": self.scheduler.stats_payload(),
            }, False
        if verb == "metrics":
            return {"ok": True, **self.metrics_payload()}, False
        if verb == "flush":
            return {"ok": True, "flushed": self.scheduler.flush()}, False
        if verb == "ping":
            return {
                "ok": True,
                "service": BANNER,
                "protocol": 2,
                "engine": self.scheduler.engine.name,
                "fingerprint": self.scheduler.engine.fingerprint(),
                "shards": self.scheduler.shards,
                "mode": self.scheduler.mode,
                "workers": self.workers,
                "max_pending": self.max_pending,
                "max_pipeline": self.max_pipeline,
            }, False
        if verb == "shutdown":
            return {"ok": True, "stopping": True, "draining": self._pending}, True
        return {"ok": False, "error": f"unknown verb {verb!r}"}, False

    def metrics_payload(self) -> Dict[str, object]:
        """The ``metrics`` verb's body (also scraped by ``repro request``)."""
        scheduler_stats = self.scheduler.stats_payload()
        per_shard = []
        for row in scheduler_stats["shards"]:
            requests = row["requests"]
            per_shard.append({
                "shard": row["shard"],
                "requests": requests,
                "hit_rate": round(row["hits"] / requests, 4) if requests else 0.0,
            })
        return {
            "uptime_seconds": time.time() - self.started,
            "requests_served": self.requests_served,
            "queue_depth": self._pending,
            "connections": len(self._connections),
            "shards": per_shard,
            "metrics": self.metrics.snapshot(),
        }

    @staticmethod
    def _engine_of(payload: Dict[str, object]) -> Optional[str]:
        engine = payload.get("engine")
        if engine is None:
            return None
        if not isinstance(engine, str):
            raise ValueError("'engine' must be an engine name string")
        return engine

    def __repr__(self) -> str:
        return f"TranslationServer({self.host}:{self.port}, {self.scheduler!r})"
