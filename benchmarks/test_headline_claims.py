"""The paper's headline claims, §I and §IV-D.

"Our out-of-SSA translation algorithm, without virtualization, outperforms the
speed of Method III of Sreedhar et al. by a factor of 2, reduces the memory
footprint by a factor of 10, while ensuring comparable or better copy
coalescing abilities."

This module aggregates the three experiments into one summary, records it, and
asserts the *direction* (and a conservative fraction of the magnitude) of each
claim.
"""

import os

from benchmarks.conftest import write_result
from repro.bench.harness import headline_summary


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
    # thinner (and noisier) than the full-suite margin test_figure6_speed.py
    # enforces, so this floor is directional only.  REPRO_SPEED_RATIO_MIN
    # lowers it further on shared CI runners.
    assert summary.speedup_vs_sreedhar > float(os.environ.get("REPRO_SPEED_RATIO_MIN", "1.05"))
    assert summary.memory_reduction_vs_sreedhar > 4.0
    assert summary.copies_ratio_vs_sreedhar < 1.05
