"""Tests pinning down the paper's qualitative claims on small workloads.

These complement the benchmark harness: each test asserts one sentence of the
paper on deterministic inputs, so a regression in any of the mechanisms shows
up as a plain test failure rather than a shifted benchmark number.
"""

import pytest

from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.bench.metrics import copy_counts
from repro.outofssa.driver import EngineConfig, destruct_ssa, engine_by_name
from repro.gallery import figure3_swap_problem, figure4_lost_copy_problem


def _quality_config(variant: str) -> EngineConfig:
    return EngineConfig(
        name=f"claim_{variant}", label=variant, coalescing=variant,
        liveness="check", interference="query", linear_class_check=False,
    )


def _remaining(function, variant: str) -> int:
    copy = function.copy()
    destruct_ssa(copy, _quality_config(variant))
    return copy_counts(copy).static_copies


@pytest.fixture(scope="module")
def workload():
    return [
        generate_ssa_program(GeneratorConfig(seed=seed + 400, name=f"claim{seed}", size=38))
        for seed in range(6)
    ]


class TestQualityClaims:
    def test_value_based_interference_never_loses_to_intersection(self, workload):
        """§III-A: a more accurate interference notion can only help coalescing."""
        for function in workload + [figure3_swap_problem(), figure4_lost_copy_problem()]:
            assert _remaining(function, "value") <= _remaining(function, "intersect")
            assert _remaining(function, "value") <= _remaining(function, "chaitin")

    def test_virtualization_does_not_change_quality_with_value_interference(self, workload):
        """§IV-D: "with value-based interference, virtualization is equivalent in
        terms of code quality, in other words, inserting all copies first does
        not degrade coalescing" — the per-φ ordering (Us III) and the global
        ordering (Us I) end up within a whisker of each other."""
        total_global = sum(_remaining(function, "value") for function in workload)
        total_per_phi = sum(_remaining(function, "value_is") for function in workload)
        assert abs(total_global - total_per_phi) <= max(2, int(0.05 * total_global))

    def test_sharing_never_hurts(self, workload):
        for function in workload:
            assert _remaining(function, "sharing") <= _remaining(function, "value_is")

    def test_quality_does_not_depend_on_the_engine_plumbing(self, workload):
        """The copies left behind depend on the coalescing strategy, not on
        whether a graph / liveness sets / the linear check are used."""
        engines = [
            engine_by_name("us_i"),
            engine_by_name("us_i_linear_intercheck_livecheck"),
        ]
        for function in workload[:3]:
            counts = set()
            for engine in engines:
                copy = function.copy()
                destruct_ssa(copy, engine)
                counts.add(copy_counts(copy).static_copies)
            assert len(counts) == 1


class TestEfficiencyClaims:
    def test_linear_check_reduces_pairwise_queries(self, workload):
        """§IV-B: the linear class check issues (many) fewer variable-to-variable
        interference queries than the quadratic one."""
        quadratic = linear = 0
        for function in workload:
            base = dict(coalescing="value", liveness="check", interference="query")
            quadratic += destruct_ssa(
                function.copy(),
                EngineConfig(name="q", label="q", linear_class_check=False, **base),
            ).stats.pair_queries
            linear += destruct_ssa(
                function.copy(),
                EngineConfig(name="l", label="l", linear_class_check=True, **base),
            ).stats.pair_queries
        assert linear < quadratic

    def test_livecheck_engines_allocate_far_less_analysis_memory(self, workload):
        baseline = fast = 0
        for function in workload:
            baseline += destruct_ssa(
                function.copy(), engine_by_name("sreedhar_iii")
            ).memory_total_bytes
            fast += destruct_ssa(
                function.copy(), engine_by_name("us_i_linear_intercheck_livecheck")
            ).memory_total_bytes
        assert fast * 4 < baseline
