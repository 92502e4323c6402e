"""Stress scale — the always-on verifier on a 5k-block CFG.

The deterministic random-CFG corpus (:mod:`repro.bench.corpus`) is
translated with ``verify_level=fast``; the clean corpus must stay
diagnostic-free at the 5k-block point.  ``REPRO_STRESS_SCALE`` multiplies
the corpus size (default 1.0).

The checker's wall-clock overhead ceiling (``REPRO_VERIFY_OVERHEAD_MAX``)
and its table ``benchmarks/results/verify_overhead.txt`` live in
``benchmarks/timing_floors.py``, outside tier-1.
"""

from dataclasses import replace

from benchmarks.conftest import stress_scale
from repro.bench.corpus import generate_stress_cfg, scaled_specs
from repro.pipeline.pipeline import Pipeline, resolve_engine


def test_verify_fast_is_clean_at_the_5k_block_point():
    [spec] = scaled_specs([5000], scale=stress_scale())
    config = replace(resolve_engine("us_i_linear_intercheck_livecheck"), verify_level="fast")
    result = Pipeline.for_engine(config).run(generate_stress_cfg(spec))
    report = result.verify_report
    assert report is not None and "input" in report.stages_run
    assert result.stats.verify_diagnostics == 0, report.render()
