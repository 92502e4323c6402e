"""Stress scale — the always-on verifier's overhead on a 5k-block CFG.

The deterministic random-CFG corpus (:mod:`repro.bench.corpus`) is
translated with ``verify_level=fast`` and without, back to back; the table
lands in ``benchmarks/results/verify_overhead.txt``.

Scaling knobs (shared CI runners shrink the corpus):

* ``REPRO_STRESS_SCALE`` — multiplies every corpus size (default 1.0);
* ``REPRO_VERIFY_OVERHEAD_MAX`` — the asserted ceiling on the wall-clock
  ratio of a ``verify_level=fast`` translation over an unchecked one at the
  5k-block point (default 1.15, the verifier's acceptance bar).
"""

import os

from benchmarks.conftest import write_result
from repro.bench.corpus import scaled_specs
from repro.bench.harness import run_verify_stress
from repro.bench.reporting import format_verify_stress


def stress_scale() -> float:
    return float(os.environ.get("REPRO_STRESS_SCALE", "1.0"))


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
