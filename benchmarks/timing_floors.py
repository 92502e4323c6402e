"""Wall-clock floors — the nightly lane's timing gates, kept out of tier-1.

Every assertion here compares two wall-clock readings, so each one can flip
under machine noise or a CPU-bound neighbour however correct the code is.
The file name falls outside pytest's ``test_*.py`` pattern, so the tier-1
command never collects it; run it by path:

    PYTHONPATH=src python -m pytest -q benchmarks/timing_floors.py

Each test is the floor as it stood in tier-1, with its default and its
``REPRO_*`` override unchanged:

* ``REPRO_SPEED_RATIO_MIN`` — the Figure 6 sum-row ratio (default 1.02) and
  the headline speed-up (default 1.05) of the paper's engine over
  Sreedhar III;
* ``REPRO_VERIFY_OVERHEAD_MAX`` — checked over unchecked translation at the
  5k-block stress point (default 1.15);
* ``REPRO_SERVICE_ASYNC_MIN`` — 32 pipelined daemon clients over one
  blocking client (default 1.0);
* ``REPRO_BENCH_SCALE`` / ``REPRO_STRESS_SCALE`` size the corpora, as in
  ``benchmarks/conftest.py``.

The deterministic halves of these experiments (copy and memory ratios,
diagnostic counts, response identity, shed counts, live metrics) stay in
tier-1, in the ``test_*`` modules beside this file.  Here the timing tables
are regenerated under ``benchmarks/results/``.  The end-to-end timings with
medians, spreads and bounds are perfbench's (``perfbench/run.py``).
"""

import os

import pytest

from benchmarks.conftest import stress_scale, write_result
from repro.bench.corpus import scaled_specs
from repro.bench.harness import (
    headline_summary,
    run_figure6,
    run_service_concurrency,
    run_verify_stress,
)
from repro.bench.reporting import (
    format_figure6,
    format_service_concurrency,
    format_verify_stress,
)
from repro.bench.suite import build_suite
from repro.outofssa.driver import engine_by_name


@pytest.fixture(scope="module")
def tiny_suite():
    return build_suite(scale=0.25, benchmarks=["164.gzip", "181.mcf"])


def test_figure6_table_and_headline_speed(benchmark, suite, results_dir):
    # min-of-2 per engine: filters scheduler/GC spikes out of the ratio.
    rows = benchmark.pedantic(
        run_figure6, args=(suite,), kwargs={"repeats": 2}, rounds=1, iterations=1
    )
    table = format_figure6(rows)
    write_result(results_dir, "figure6_speed.txt", table)

    sum_row = next(row for row in rows if row.benchmark == "sum")
    fast = sum_row.seconds["us_i_linear_intercheck_livecheck"]
    baseline = sum_row.seconds["sreedhar_iii"]
    # The paper reports ~2x against its Sreedhar III implementation.  Our
    # baseline runs on the bit-set liveness backend (as the paper's did) —
    # already a harder target than the original ordered-set strawman — and
    # since the flat arena it is harder still: the gap was dominated by
    # the interference-graph build the fast engine skips, and the arena
    # edge scan made exactly that build several times cheaper, so
    # the measured margin compressed from ~1.25x to ~1.05-1.2x on this
    # small-function workload.  Keep the direction strict (`fast <
    # baseline`) and require a floor below the compressed margin so the
    # assertion survives machine noise while still catching a reversal of
    # the claim; shared CI runners lower the floor further via the
    # environment (see .github/workflows/ci.yml).
    minimum_ratio = float(os.environ.get("REPRO_SPEED_RATIO_MIN", "1.02"))
    assert fast < baseline
    assert baseline / fast > minimum_ratio


def test_headline_summary(benchmark, small_suite, results_dir):
    summary = benchmark.pedantic(
        headline_summary, args=(small_suite,), rounds=1, iterations=1
    )

    text = (
        "Headline claims (synthetic suite, see README.md, Experiments)\n"
        f"  speed-up vs Sreedhar III:          {summary.speedup_vs_sreedhar:.2f}x  (paper: ~2x)\n"
        f"  memory reduction vs Sreedhar III:  {summary.memory_reduction_vs_sreedhar:.1f}x  (paper: ~10x)\n"
        f"  remaining copies (Value / Sreedhar III): {summary.copies_ratio_vs_sreedhar:.3f}  (paper: comparable or better)\n"
    )
    write_result(results_dir, "headline_claims.txt", text)

    # The Sreedhar III baseline now runs on the bit-set liveness backend (as
    # in the paper), so the honest speed gap is smaller than against the old
    # ordered-set strawman baseline — and on this three-benchmark subset it is
    # thinner (and noisier) than the full-suite margin the Figure 6 floor
    # enforces, so this floor is directional only.  REPRO_SPEED_RATIO_MIN
    # lowers it further on shared CI runners.
    assert summary.speedup_vs_sreedhar > float(os.environ.get("REPRO_SPEED_RATIO_MIN", "1.05"))
    assert summary.memory_reduction_vs_sreedhar > 4.0
    assert summary.copies_ratio_vs_sreedhar < 1.05


def test_fast_configuration_beats_the_baseline(tiny_suite):
    engines = [engine_by_name("sreedhar_iii"), engine_by_name("us_i_linear_intercheck_livecheck")]
    # min-of-3: the tiny suite runs in a few ms per engine, so a single
    # scheduler hiccup could otherwise flip the comparison.
    rows = run_figure6(tiny_suite, engines=engines, repeats=3)
    sum_row = next(row for row in rows if row.benchmark == "sum")
    assert sum_row.seconds["us_i_linear_intercheck_livecheck"] < sum_row.seconds["sreedhar_iii"]


def test_headline_summary_direction(tiny_suite):
    summary = headline_summary(tiny_suite)
    assert summary.speedup_vs_sreedhar > 1.0


def test_verify_fast_overhead(results_dir):
    """The acceptance bar on the always-on checks: ``verify_level=fast``
    costs <= 15% wall-clock over an unchecked translation at the 5k-block
    point (median over 9 back-to-back pairs, fresh function per run), and
    the clean corpus stays diagnostic-free at that scale."""
    scale = stress_scale()
    specs = scaled_specs([5000], scale=scale)
    rows = run_verify_stress(specs, level="fast", repeats=9)
    table = format_verify_stress(rows)
    write_result(results_dir, "verify_overhead.txt", table)

    anchor = rows[0]
    assert anchor.diagnostics == 0, table
    maximum = float(os.environ.get("REPRO_VERIFY_OVERHEAD_MAX", "1.15"))
    assert anchor.overhead <= maximum, table


def test_pipelined_concurrent_clients_sustain_blocking_throughput(results_dir):
    """The async daemon under 32 pipelined clients: at least the blocking
    path's warm requests/second (every response bit-identical, checked in
    the harness)."""
    rows = run_service_concurrency()
    table = format_service_concurrency(rows)
    write_result(results_dir, "service_async_throughput.txt", table)

    by_mode = {row.mode.split("[")[0]: row for row in rows}
    blocking, pipelined = by_mode["blocking"], by_mode["pipelined"]
    assert pipelined.overloaded == 0, table

    minimum = float(os.environ.get("REPRO_SERVICE_ASYNC_MIN", "1.0"))
    assert pipelined.requests_per_second >= blocking.requests_per_second * minimum, table
