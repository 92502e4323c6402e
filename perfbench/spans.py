"""Span recording for the traced run (``--trace 1``).

The program has no tracing of its own yet, so the spans are recorded from
here, around the public entry points of each layer:

* ``op`` — one benchmark operation (opened by the workload);
* ``ir.parse`` / ``ir.print`` — ``parse_function`` / ``format_function``;
* ``pipeline.run`` — ``Pipeline.run`` (its self time is the pipeline's own
  set-up and bookkeeping: ``pipeline.other``);
* ``pass.<name>`` — every pass's ``run``;
* ``analysis.<Type>`` — ``AnalysisCache.get`` calls that *build*; served
  hits open no span;
* ``jit.apply_edits`` — ``Session.apply_edits``.

Self time is a span's duration minus the time its child spans cover, so a
pass's self time excludes the analysis builds it triggered.  Spans are kept
in memory (:attr:`Tracer.spans`) and written out when the run ends.

The patches are installed with :meth:`Tracer.install` and removed with
:meth:`Tracer.uninstall`; an untraced op runs the program's own code.
``Pipeline.run(cache=...)`` is deliberately not used as a seam: a
caller-owned cache switches on post-run patching that run-private caches
skip, so the traced run would do different work.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: Closed spans: (name, start, end, parent index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Op spans: total duration, and the part covered by child spans.
        self.op_seconds = 0.0
        self.op_covered = 0.0
        # Open spans: [name, start, child seconds, own index].
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0, len(self.spans)])
        self.spans.append((name, 0.0, 0.0, self._stack[-2][3] if len(self._stack) > 1 else -1))

    def end(self) -> None:
        name, start, children, index = self._stack.pop()
        stop = _clock()
        duration = stop - start
        self.spans[index] = (name, start, stop, self.spans[index][3])
        self.self_seconds[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if name == "op":
            self.op_seconds += duration
            self.op_covered += children

    def record(self, name: str, start: float, stop: float) -> None:
        """A whole leaf span, for callers that interleave (coroutines)."""
        self.spans.append((name, start, stop, -1))
        self.self_seconds[name] += stop - start
        self.calls[name] += 1

    def wrap(self, name_of: Callable, function: Callable) -> Callable:
        """``function`` inside a span named ``name_of(*args)``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.begin(name_of(*args))
            try:
                return function(*args, **kwargs)
            finally:
                self.end()

        return traced

    def coverage(self) -> float:
        """Share of op wall time that lies inside named child spans."""
        return self.op_covered / self.op_seconds if self.op_seconds else 0.0

    # -- patching ------------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        from repro.ir.parser import parse_function
        from repro.ir.printer import format_function
        from repro.pipeline import AnalysisCache, Pass, Pipeline, Session

        # Module-level functions are bound by name in every importer, so each
        # binding of the original is rebound.
        for original, name in ((parse_function, "ir.parse"), (format_function, "ir.print")):
            traced = self.wrap(lambda *_a, _n=name: _n, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(original.__name__) is original:
                    self._patch(module, original.__name__, traced)

        pending = [Pass]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "run" in cls.__dict__ and cls is not Pass:
                self._patch(cls, "run", self.wrap(lambda p, *_a: "pass." + p.name, cls.__dict__["run"]))

        self._patch(Pipeline, "run", self.wrap(lambda *_a: "pipeline.run", Pipeline.run))
        self._patch(
            Session, "apply_edits", self.wrap(lambda *_a: "jit.apply_edits", Session.apply_edits)
        )

        original_get = AnalysisCache.get
        begin, end = self.begin, self.end

        @functools.wraps(original_get)
        def get(cache, analysis_type):
            if cache.cached(analysis_type) is not None:
                return original_get(cache, analysis_type)
            begin("analysis." + analysis_type.__name__)
            try:
                return original_get(cache, analysis_type)
            finally:
                end()

        self._patch(AnalysisCache, "get", get)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- reporting -------------------------------------------------------------------
    def write(self, path: str) -> None:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = [
            {"name": name, "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
             "pid": 0, "tid": 0, "args": {"parent": parent}}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
