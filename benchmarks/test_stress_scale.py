"""Stress scale — incremental liveness *and* interference on 1k–10k-block CFGs.

The ``bench``-tier companion of the incremental subsystems: the deterministic
random-CFG corpus (:mod:`repro.bench.corpus`) is solved three ways per size —
cold RPO-seeded worklist, cold SCC-seeded worklist, and the incremental
re-solve patching a warm solver over a materialization-shaped edit batch —
and the incremental interference matrix is patched from the same edit logs
and compared against cold rebuilds.  Every run checks bit-identity; the
tables land in ``benchmarks/results/stress_scale.txt`` and
``benchmarks/results/interference_stress.txt``.

Scaling knobs (shared CI runners shrink the corpus, the scheduled stress lane
uploads the tables as artifacts):

* ``REPRO_STRESS_SCALE`` — multiplies every corpus size (default 1.0);
* ``REPRO_STRESS_SPEEDUP_MIN`` — the asserted floor on the incremental
  speedups at the 5k-block point (default 5.0, the subsystems' acceptance
  bar; measured locally liveness is >10x and the matrix >20x);
* ``REPRO_VERIFY_OVERHEAD_MAX`` — the asserted ceiling on the wall-clock
  ratio of a ``verify_level=fast`` translation over an unchecked one at the
  5k-block point (default 1.15, the verifier's acceptance bar).
"""

import os

from benchmarks.conftest import write_result
from repro.bench.corpus import (
    STANDARD_SIZES,
    run_interference_stress,
    run_stress,
    scaled_specs,
)
from repro.bench.reporting import format_interference_stress, format_stress


def stress_scale() -> float:
    return float(os.environ.get("REPRO_STRESS_SCALE", "1.0"))


def test_stress_scale_table_and_speedup(results_dir):
    scale = stress_scale()
    specs = scaled_specs(STANDARD_SIZES, scale=scale)
    rows = run_stress(specs, repeats=3)  # bit-identity checked inside
    table = format_stress(rows)
    write_result(results_dir, "stress_scale.txt", table)

    # The acceptance point: on the 5k-block corpus the incremental re-solve
    # after materialization edits beats a cold full solve by >= 5x (scaled
    # runs assert at the scaled size; the claim is calibrated for >= ~2k
    # blocks, below which fixed per-call costs flatten the ratio).
    minimum = float(os.environ.get("REPRO_STRESS_SPEEDUP_MIN", "5.0"))
    by_seed = {row.spec.seed: row for row in rows}
    anchor = by_seed[5000]  # the spec seeded off the 5000-block rung
    assert anchor.speedup_incremental >= minimum, format_stress([anchor])

    # Condensation-ordered seeding must not tax the cold solve: on the flat
    # core the SCC walk reuses the arena's edge table (an int-CSR Tarjan),
    # so cold scc stays within ~1.1x of cold rpo even on the largest rung —
    # previously the object-graph Tarjan made it ~1.6x at 10k blocks.
    maximum = float(os.environ.get("REPRO_SCC_COLD_RATIO_MAX", "1.1"))
    anchor10 = by_seed[10000]  # the spec seeded off the 10000-block rung
    assert anchor10.cold_scc_seconds <= maximum * anchor10.cold_rpo_seconds, (
        format_stress([anchor10])
    )


def test_scc_seeding_never_worse_than_rpo():
    """Condensation-ordered seeding converges in <= the block evaluations of
    plain reverse-postorder seeding, at every corpus size."""
    specs = scaled_specs(STANDARD_SIZES[:2], scale=min(1.0, stress_scale()))
    for row in run_stress(specs, repeats=1):
        assert row.scc_iterations <= row.rpo_iterations, row.spec.describe()


def test_scc_seeding_strictly_beats_rpo_on_irreducible_cfgs():
    """On the irreducible stress mode (multi-entry loops: a dispatch block
    enters both at the header and inside the body) reverse post-order has no
    good visit order — there is no single header to stabilise first — so
    condensation-ordered seeding needs *strictly fewer* block evaluations,
    not just ties (the reducible corpus often converges identically)."""
    specs = scaled_specs(
        STANDARD_SIZES[:2], scale=min(1.0, stress_scale()), irreducible=0.5
    )
    for row in run_stress(specs, repeats=1):
        assert row.scc_iterations < row.rpo_iterations, row.spec.describe()


def test_interference_incremental_matrix_speedup(results_dir):
    """The incremental interference matrix: bit-identical to a cold rebuild
    after materialization-shaped edit logs (checked inside every repeat) and
    >= 5x faster than the cold rebuild at the 5k-block acceptance point."""
    scale = stress_scale()
    specs = scaled_specs([1000, 5000], scale=scale)
    rows = run_interference_stress(specs, repeats=3)  # bit-identity checked inside
    table = format_interference_stress(rows)
    write_result(results_dir, "interference_stress.txt", table)

    minimum = float(os.environ.get("REPRO_STRESS_SPEEDUP_MIN", "5.0"))
    by_seed = {row.spec.seed: row for row in rows}
    anchor = by_seed[5000]  # the spec seeded off the 5000-block rung
    assert anchor.speedup >= minimum, format_interference_stress([anchor])


def test_verify_fast_overhead(results_dir):
    """The acceptance bar on the always-on checks: ``verify_level=fast``
    costs <= 15% wall-clock over an unchecked translation at the 5k-block
    point (median over 9 back-to-back pairs, fresh function per run), and
    the clean corpus stays diagnostic-free at that scale."""
    from repro.bench.harness import run_verify_stress
    from repro.bench.reporting import format_verify_stress

    scale = stress_scale()
    specs = scaled_specs([5000], scale=scale)
    rows = run_verify_stress(specs, level="fast", repeats=9)
    table = format_verify_stress(rows)
    write_result(results_dir, "verify_overhead.txt", table)

    anchor = rows[0]
    assert anchor.diagnostics == 0, table
    maximum = float(os.environ.get("REPRO_VERIFY_OVERHEAD_MAX", "1.15"))
    assert anchor.overhead <= maximum, table
