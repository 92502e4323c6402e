"""Plain-text rendering of the experiment results.

The examples and the benchmark harness print the same row/series layout the
paper's figures use, so a reader can compare shapes side by side with the
publication.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import Figure5Row, Figure6Row, Figure7Row
from repro.coalescing.variants import VARIANTS
from repro.outofssa.driver import ENGINE_CONFIGURATIONS


def _format_table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure5(rows: List[Figure5Row]) -> str:
    """Figure 5: remaining copies, normalised to the Intersect strategy."""
    variant_names = [variant.name for variant in VARIANTS]
    headers = ["benchmark"] + [variant.label for variant in VARIANTS]
    table_rows = []
    for row in rows:
        cells = [row.benchmark]
        for name in variant_names:
            ratio = row.ratios.get(name)
            count = row.static_copies.get(name, 0)
            cells.append(f"{ratio:.3f} ({count})" if ratio is not None else "-")
        table_rows.append(cells)
    return _format_table(headers, table_rows)


def format_figure6(rows: List[Figure6Row]) -> str:
    """Figure 6: out-of-SSA time, normalised to Sreedhar III.

    Below the timing ratios the suite-wide query counters are printed per
    engine — intersection queries and pairwise class-check queries — so the
    per-backend trade (matrix memory vs. on-the-fly queries) is visible next
    to the bars it explains.
    """
    engine_names = [engine.name for engine in ENGINE_CONFIGURATIONS]
    headers = ["benchmark"] + [engine.label for engine in ENGINE_CONFIGURATIONS]
    table_rows = []
    for row in rows:
        cells = [row.benchmark]
        for name in engine_names:
            ratio = row.ratios.get(name)
            cells.append(f"{ratio:.2f}" if ratio is not None else "-")
        table_rows.append(cells)
        if row.benchmark != "sum":
            continue
        for label, counts in (
            ("  sum (intersection queries)", row.intersection_queries),
            ("  sum (pair queries)", row.pair_queries),
        ):
            if not counts:
                continue
            cells = [label]
            for name in engine_names:
                value = counts.get(name)
                cells.append(str(value) if value is not None else "-")
            table_rows.append(cells)
    return _format_table(headers, table_rows)


def format_figure7(rows: List[Figure7Row]) -> str:
    """Figure 7: memory footprint (measured + evaluated), normalised to Sreedhar III.

    Each metric prints the measured footprint first and, when the harness
    provided them, the paper's two closed-form "evaluated" estimates right
    below it — so the measured bit-set liveness rows can be read next to the
    ``ceil(#vars/8) * #blocks * 2`` formula they are supposed to realise.
    """
    engine_names = [engine.name for engine in ENGINE_CONFIGURATIONS]
    headers = ["metric"] + [engine.label for engine in ENGINE_CONFIGURATIONS]
    table_rows = []
    for row in rows:
        cells = [row.metric]
        for name in engine_names:
            measured = row.measured.get(name)
            ratio = row.ratios.get(name)
            if measured is None:
                cells.append("-")
            else:
                cells.append(f"{ratio:.2f} ({measured // 1024} KiB)")
        table_rows.append(cells)
        for label, evaluated in (
            ("evaluated ordered", row.evaluated_ordered),
            ("evaluated bit-sets", row.evaluated_bitset),
            ("measured matrix", row.measured_matrix),
            ("measured flat tables", row.measured_flat),
        ):
            if not evaluated:
                continue
            cells = [f"  {row.metric} ({label})"]
            for name in engine_names:
                value = evaluated.get(name)
                cells.append(f"{value // 1024} KiB" if value is not None else "-")
            table_rows.append(cells)
    return _format_table(headers, table_rows)


def format_service_concurrency(rows) -> str:
    """The concurrent-clients experiment: blocking vs pipelined serving.

    One line per serving mode against the same live daemon and the same warm
    request stream.  ``p50/p95/p99`` are the daemon's own translate-latency
    percentiles from its ``metrics`` verb, ``queue peak`` the admission
    queue's high-water mark, and ``speedup`` each mode's wall-clock against
    the single blocking sequential client.
    """
    headers = [
        "mode", "clients", "requests", "hit rate", "shed", "seconds", "req/s",
        "p50 ms", "p95 ms", "p99 ms", "queue peak", "speedup",
    ]
    table_rows = []
    for row in rows:
        table_rows.append([
            row.mode,
            str(row.clients),
            str(row.requests),
            f"{row.hit_rate * 100:.0f}%",
            str(row.overloaded),
            f"{row.seconds:.3f}",
            f"{row.requests_per_second:.1f}",
            f"{row.p50_ms:.2f}" if row.p50_ms else "-",
            f"{row.p95_ms:.2f}" if row.p95_ms else "-",
            f"{row.p99_ms:.2f}" if row.p99_ms else "-",
            f"{row.queue_peak:.0f}" if row.queue_peak else "-",
            f"{row.speedup_vs_blocking:.1f}x",
        ])
    return _format_table(headers, table_rows)


def format_verify_stress(rows) -> str:
    """The verify stress lane: checked vs unchecked translation wall-clock.

    One line per corpus size; the times are best-of-repeats, ``overhead`` is
    the median over repeats of the checked translation's wall-clock over the
    unchecked one timed beside it, ``verify (ms)`` the checker time the
    pipeline recorded, and ``diags``/``errors``/``warnings`` the diagnostic
    counts — all zero on a healthy pipeline.
    """
    headers = [
        "blocks", "vars", "level", "unchecked (ms)", "checked (ms)",
        "overhead", "verify (ms)", "diags", "errors", "warnings",
    ]
    table_rows = []
    for row in rows:
        table_rows.append([
            str(row.blocks),
            str(row.variables),
            row.level,
            f"{row.unchecked_seconds * 1e3:.2f}",
            f"{row.checked_seconds * 1e3:.2f}",
            f"{row.overhead:.2f}x",
            f"{row.verify_ms:.2f}",
            str(row.diagnostics),
            str(row.errors),
            str(row.warnings),
        ])
    return _format_table(headers, table_rows)
