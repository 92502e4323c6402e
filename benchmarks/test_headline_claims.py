"""The paper's headline claims, §I and §IV-D.

"Our out-of-SSA translation algorithm, without virtualization, outperforms the
speed of Method III of Sreedhar et al. by a factor of 2, reduces the memory
footprint by a factor of 10, while ensuring comparable or better copy
coalescing abilities."

This module checks the two claims the code decides — the measured memory
reduction (Figure 7's rows) and the remaining-copies ratio (Figure 5's) —
with no timed run behind them.  The speed-up is a wall-clock reading: its
floor, ``headline_summary`` and the ``headline_claims.txt`` table are in
``benchmarks/timing_floors.py``, outside tier-1.
"""

from repro.bench.harness import run_figure5, run_figure7
from repro.outofssa.driver import engine_by_name

FAST, BASELINE = "us_i_linear_intercheck_livecheck", "sreedhar_iii"


def test_headline_memory_and_copies(small_suite):
    engines = [engine_by_name(BASELINE), engine_by_name(FAST)]
    memory = next(row for row in run_figure7(small_suite, engines) if row.metric == "total")
    quality = next(row for row in run_figure5(small_suite) if row.benchmark == "sum")
    assert memory.measured[BASELINE] / memory.measured[FAST] > 4.0
    assert quality.static_copies["value"] / quality.static_copies["sreedhar_iii"] < 1.05
