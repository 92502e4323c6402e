"""Shared fixtures for the benchmark harness.

The synthetic suite is generated once per session.  Its size is controlled by
the ``REPRO_BENCH_SCALE`` environment variable (default ``0.5``): the paper's
experiments ran over all of SPEC CINT2000, which we scale down so the whole
benchmark run finishes in a couple of minutes; raising the scale grows every
generated function and the number of functions per benchmark.

Every ``test_figure*`` module also writes the regenerated table to
``benchmarks/results/`` so the tables (see the Experiments section of
README.md) can be reproduced with a single
``pytest benchmarks/ --benchmark-only`` run.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.abspath(_SRC) not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_BENCH_DIR = os.path.abspath(os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    """Mark everything under ``benchmarks/`` as ``bench``.

    The marker (registered in ``pytest.ini``) lets the fast lane deselect the
    measurement-heavy tests with ``-m "not bench"`` while the tier-1 command
    still runs everything.
    """
    for item in items:
        if os.path.abspath(str(item.fspath)).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def suite():
    """The full synthetic SPEC CINT2000 stand-in suite (all 11 benchmarks)."""
    from repro.bench.suite import build_suite

    return build_suite(scale=bench_scale())


@pytest.fixture(scope="session")
def small_suite():
    """A three-benchmark subset used by the heavier per-engine measurements."""
    from repro.bench.suite import build_suite

    return build_suite(scale=bench_scale(), benchmarks=["164.gzip", "176.gcc", "254.gap"])


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: str, name: str, text: str) -> None:
    path = os.path.join(results_dir, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
