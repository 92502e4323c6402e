"""Service concurrency — 32 pipelined clients against one live daemon.

``run_service_concurrency`` boots ``python -m repro serve`` as a subprocess,
prewarms it, and serves the same warm repeat-heavy traffic to one blocking
client and then to 32 pipelined connections.  Every response in both phases
is checked bit-identical to the cold pipeline reference inside the harness.
This tier-1 test asserts what the run decides: nothing shed, and the
daemon's own metrics observed the run.

The pipelined-over-blocking throughput floor (``REPRO_SERVICE_ASYNC_MIN``)
and its table ``benchmarks/results/service_async_throughput.txt`` live in
``benchmarks/timing_floors.py``, outside tier-1; the daemon's hit and miss
latencies are timed by ``perfbench/run.py --workload serve``.
"""

from repro.bench.harness import run_service_concurrency
from repro.bench.reporting import format_service_concurrency


def test_pipelined_concurrent_clients_are_served_in_full():
    # Response bit-identity against the cold reference is checked inside.
    rows = run_service_concurrency()
    table = format_service_concurrency(rows)

    by_mode = {row.mode.split("[")[0]: row for row in rows}
    blocking, pipelined = by_mode["blocking"], by_mode["pipelined"]
    assert pipelined.clients >= 32 and pipelined.requests == blocking.requests

    # Nothing was shed: the experiment sizes the admission queue for its
    # own load, so overloaded responses here mean lost work, not policy.
    assert pipelined.overloaded == 0, table

    # Live metrics observed the run.
    assert pipelined.p50_ms > 0 and pipelined.p95_ms > 0 and pipelined.p99_ms > 0, table
    assert pipelined.queue_peak >= 1, table
