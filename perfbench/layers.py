"""The per-layer metrics of the traced run (``--trace 1``).

Every name in :data:`PER_LAYER` is printed on every workload; a layer the
workload does not exercise reads 0 (DESIGN.md lists which workload feeds
which metric).  Span timings are mean milliseconds per traced op and
``.builds`` are mean builds per traced op; counts and memory are summed over
the distinct (input, engine) pairs, so they repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from common import geomean, median

PASSES = (
    "construct-ssa", "value-number", "fold-copies", "remove-dead-code",
    "isolate", "interference", "coalesce", "materialize",
)
#: The 13 ``AnalysisCache`` keys.
ANALYSES = (
    "DominatorTree", "VariableNumbering", "FlatFunction", "LivenessSets",
    "BitLivenessSets", "IncrementalBitLiveness", "LivenessChecker",
    "IntersectionOracle", "ValueTable", "BlockFrequencies",
    "QueryInterference", "MatrixInterference", "IncrementalMatrixInterference",
)
ENGINES = (
    "sreedhar_iii", "us_iii", "us_iii_intercheck", "us_iii_intercheck_livecheck",
    "us_iii_linear_intercheck_livecheck", "us_i", "us_i_linear_intercheck_livecheck",
)
COUNTS = (
    "pair_queries", "intersection_queries", "class_row_checks", "affinities",
    "coalesced", "inserted_phi_copies", "split_blocks", "sequentialization_temps",
)
#: mem.<name>_kib -> allocation-tracker categories (peak bytes summed).
MEMORY_CATEGORIES = {
    "liveness_sets": ("liveness_sets", "liveness_bitsets", "liveness_incremental"),
    "livecheck": ("livecheck",),
    "interference_graph": ("interference_graph",),
}
SERVICE = (
    ("service.hit_ratio", "ratio"),
    ("service.hit_latency_p50_ms", "ms"),
    ("service.wait_p50_ms", "ms"),
    ("service.queue_depth_peak", "count"),
    ("service.overloaded_total", "count"),
    ("service.miss_latency_p50_ms", "ms"),
    ("service.daemon_translate_p99_ms", "ms"),
    ("service.cold_total", "count"),
)
BASELINE_ENGINE = "sreedhar_iii"
PAPER_ENGINE = "us_i_linear_intercheck_livecheck"


def _catalogue() -> List[Tuple[str, str]]:
    names = [(f"pass.{name}.self_ms", "ms") for name in PASSES]
    for name in ANALYSES:
        names += [(f"analysis.{name}.self_ms", "ms"), (f"analysis.{name}.builds", "count")]
    names += [
        ("ir.parse_ms", "ms"), ("ir.print_ms", "ms"), ("pipeline.other_ms", "ms"),
        ("jit.apply_edits_ms", "ms"),
    ]
    names += [(f"count.{name}", "count") for name in COUNTS]
    names += [("ratio.coalesced_per_affinity", "ratio")]
    names += [(f"mem.{name}_kib", "KiB") for name in (*MEMORY_CATEGORIES, "flat", "matrix")]
    names += list(SERVICE)
    names += [(f"engine.{name}.compile_ms_geomean", "ms") for name in ENGINES]
    names += [
        ("figure6.speedup_vs_sreedhar_iii", "ratio"),
        ("figure7.memory_reduction", "ratio"),
        ("trace.overhead_pct", "%"),
        ("trace.coverage", "ratio"),
    ]
    return names


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = _catalogue()


def blank() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in PER_LAYER}


def span_metrics(metrics, tracer, ops: int, scale: float) -> None:
    """Self time (and build counts) per traced op, from the spans; times
    are scaled to reference milliseconds by ``scale``."""

    def per_op_ms(span: str) -> float:
        return tracer.self_seconds.get(span, 0.0) * 1e3 * scale / ops if ops else 0.0

    for name in PASSES:
        metrics[f"pass.{name}.self_ms"] = (per_op_ms(f"pass.{name}"), "ms")
    for name in ANALYSES:
        metrics[f"analysis.{name}.self_ms"] = (per_op_ms(f"analysis.{name}"), "ms")
        metrics[f"analysis.{name}.builds"] = (
            tracer.calls.get(f"analysis.{name}", 0) / ops if ops else 0.0, "count"
        )
    metrics["ir.parse_ms"] = (per_op_ms("ir.parse"), "ms")
    metrics["ir.print_ms"] = (per_op_ms("ir.print"), "ms")
    metrics["pipeline.other_ms"] = (per_op_ms("pipeline.run"), "ms")
    metrics["jit.apply_edits_ms"] = (per_op_ms("jit.apply_edits"), "ms")
    metrics["trace.coverage"] = (tracer.coverage(), "ratio")


def footprint_metrics(metrics, footprints: Iterable) -> None:
    """Counters and analysis bytes summed over one result per pair."""
    footprints = list(footprints)
    for name in COUNTS:
        metrics[f"count.{name}"] = (sum(getattr(f.stats, name) for f in footprints), "count")
    affinities = metrics["count.affinities"][0]
    metrics["ratio.coalesced_per_affinity"] = (
        metrics["count.coalesced"][0] / affinities if affinities else 0.0, "ratio"
    )
    for name, categories in MEMORY_CATEGORIES.items():
        peak = sum(
            f.categories.get(category, {}).get("peak", 0)
            for f in footprints for category in categories
        )
        metrics[f"mem.{name}_kib"] = (peak / 1024.0, "KiB")
    metrics["mem.flat_kib"] = (sum(f.stats.flat_bytes for f in footprints) / 1024.0, "KiB")
    metrics["mem.matrix_kib"] = (sum(f.stats.matrix_bytes for f in footprints) / 1024.0, "KiB")


def engine_metrics(metrics, pair_medians_ms: Dict[Tuple[str, str], float],
                   peak_bytes: Optional[Dict[Tuple[str, str], int]] = None) -> None:
    """Per-engine geomean of the pair medians, and the paper's two headline
    ratios when both the baseline and the paper's engine ran."""
    per_engine: Dict[str, List[float]] = {}
    for (_, engine), value in pair_medians_ms.items():
        per_engine.setdefault(engine, []).append(value)
    for engine, values in per_engine.items():
        if engine in ENGINES:
            metrics[f"engine.{engine}.compile_ms_geomean"] = (geomean(values), "ms")
    if BASELINE_ENGINE in per_engine and PAPER_ENGINE in per_engine:
        # Both over the inputs every engine translated, as in Figure 6.
        inputs = {i for (i, e) in pair_medians_ms if e == BASELINE_ENGINE} & {
            i for (i, e) in pair_medians_ms if e == PAPER_ENGINE
        }
        base = sum(pair_medians_ms[(i, BASELINE_ENGINE)] for i in inputs)
        paper = sum(pair_medians_ms[(i, PAPER_ENGINE)] for i in inputs)
        metrics["figure6.speedup_vs_sreedhar_iii"] = (base / paper, "ratio")
        if peak_bytes:
            base_mem = sum(peak_bytes.get((i, BASELINE_ENGINE), 0) for i in inputs)
            paper_mem = sum(peak_bytes.get((i, PAPER_ENGINE), 0) for i in inputs)
            if paper_mem:
                metrics["figure7.memory_reduction"] = (base_mem / paper_mem, "ratio")


def overhead_pct(traced: Dict, untraced: Dict) -> float:
    """Tracing overhead on throughput: the geomean, over pairs timed both
    ways, of traced/untraced median op time, as a percentage."""
    common = [pair for pair in traced if pair in untraced]
    if not common:
        return 0.0
    ratio = geomean(median(traced[pair]) / median(untraced[pair]) for pair in common)
    return (ratio - 1.0) * 100.0
