"""Tests for interference definitions and the interference graph."""

import pytest

from repro.interference.definitions import InterferenceKind, make_interference_test
from repro.interference.graph import InterferenceGraph
from repro.ir.instructions import Variable
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.gallery import figure4_lost_copy_problem
from tests.helpers import generated_programs, straight_line_copies


def v(name: str) -> Variable:
    return Variable(name)


def make_tests(function):
    oracle = IntersectionOracle(function, LivenessSets(function))
    return {
        kind: make_interference_test(function, oracle, kind)
        for kind in InterferenceKind
    }


class TestInterferenceDefinitions:
    def test_paper_example_b_and_c_copies_of_a(self):
        """The §III-A example: b = a; c = a; with a, b, c live simultaneously."""
        function = straight_line_copies()
        tests = make_tests(function)

        # All live ranges intersect pairwise.
        assert tests[InterferenceKind.INTERSECT].interferes(v("a"), v("b"))
        assert tests[InterferenceKind.INTERSECT].interferes(v("a"), v("c"))
        assert tests[InterferenceKind.INTERSECT].interferes(v("b"), v("c"))

        # Chaitin exempts the copies a->b and a->c, but not the pair (b, c).
        chaitin = tests[InterferenceKind.CHAITIN]
        assert not chaitin.interferes(v("a"), v("b"))
        assert not chaitin.interferes(v("a"), v("c"))
        assert chaitin.interferes(v("b"), v("c"))

        # Value-based interference: all three carry the value of a.
        value = tests[InterferenceKind.VALUE]
        assert not value.interferes(v("a"), v("b"))
        assert not value.interferes(v("b"), v("c"))

    def test_lost_copy_phi_result_interferes_with_incremented_value(self):
        function = figure4_lost_copy_problem()
        tests = make_tests(function)
        for kind in InterferenceKind:
            assert tests[kind].interferes(v("x2"), v("x3")), kind

    def test_self_interference_is_false(self):
        function = straight_line_copies()
        tests = make_tests(function)
        for kind in InterferenceKind:
            assert not tests[kind].interferes(v("a"), v("a"))

    def test_value_requires_value_table(self):
        from repro.interference.base import QueryInterference

        function = straight_line_copies()
        oracle = IntersectionOracle(function, LivenessSets(function))
        with pytest.raises(ValueError):
            QueryInterference(function, oracle, InterferenceKind.VALUE, values=None)


class TestInterferenceGraph:
    def test_edges_and_neighbours(self):
        graph = InterferenceGraph([v("a"), v("b"), v("c")])
        graph.add_edge(v("a"), v("b"))
        assert graph.interferes(v("a"), v("b"))
        assert graph.interferes(v("b"), v("a"))
        assert not graph.interferes(v("a"), v("c"))
        assert graph.neighbours(v("a")) == [v("b")]
        assert graph.edge_count() == 1
        assert len(graph) == 3

    def test_unknown_variables(self):
        graph = InterferenceGraph()
        assert not graph.interferes(v("x"), v("y"))
        graph.add_edge(v("x"), v("y"))          # implicitly added
        assert v("x") in graph and graph.interferes(v("y"), v("x"))

    def test_self_edge_ignored(self):
        graph = InterferenceGraph([v("a")])
        graph.add_edge(v("a"), v("a"))
        assert not graph.interferes(v("a"), v("a"))
        assert graph.edge_count() == 0

    def test_footprint_formula(self):
        assert InterferenceGraph.evaluated_footprint(80) == (80 + 7) // 8 * 80 // 2

    @pytest.mark.parametrize("kind", list(InterferenceKind))
    def test_scan_build_matches_all_pairs_build(self, kind):
        for function in generated_programs(count=3, size=28):
            oracle = IntersectionOracle(function, LivenessSets(function))
            test = make_interference_test(function, oracle, kind)
            universe = function.variables()
            scan = InterferenceGraph.build(function, test, universe)
            reference = InterferenceGraph.build_all_pairs(function, test, universe)
            for i, a in enumerate(universe):
                for b in universe[i + 1:]:
                    assert scan.interferes(a, b) == reference.interferes(a, b), (
                        kind, function.name, str(a), str(b)
                    )

    def test_build_on_paper_example(self):
        function = straight_line_copies()
        oracle = IntersectionOracle(function, LivenessSets(function))
        test = make_interference_test(function, oracle, InterferenceKind.VALUE)
        graph = InterferenceGraph.build(function, test, [v("a"), v("b"), v("c")])
        assert not graph.interferes(v("a"), v("b"))
        assert not graph.interferes(v("b"), v("c"))


# --------------------------------------------------------------------------- backends
class TestInterferenceBackends:
    """The pluggable backend protocol: matrix/query surfaces."""

    def _oracle(self, function, bitsets=True):
        from repro.liveness.bitsets import BitLivenessSets

        liveness = BitLivenessSets(function) if bitsets else LivenessSets(function)
        return IntersectionOracle(function, liveness)

    def test_matrix_answers_universe_pairs_from_the_matrix(self):
        from repro.interference.graph import MatrixInterference
        from tests.helpers import loop_function

        function = loop_function()
        universe = function.variables()[:3]
        backend = MatrixInterference(
            function, self._oracle(function), InterferenceKind.INTERSECT,
            universe=universe,
        )
        a, b = universe[0], universe[1]
        before = backend.oracle.query_count
        backend.interferes(a, b)
        assert backend.matrix_hits == 1
        assert backend.oracle.query_count == before   # no on-the-fly query

    def test_matrix_falls_back_outside_the_universe(self):
        from repro.interference.graph import MatrixInterference
        from tests.helpers import loop_function

        function = loop_function()
        variables = function.variables()
        backend = MatrixInterference(
            function, self._oracle(function), InterferenceKind.INTERSECT,
            universe=variables[:2],
        )
        outside = variables[-1]
        assert outside not in backend.graph
        before = backend.oracle.query_count
        backend.interferes(variables[0], outside)
        assert backend.oracle.query_count > before    # pairwise query path

    def test_slot_and_adjacency_bits(self):
        graph = InterferenceGraph([v("a"), v("b"), v("c")])
        graph.add_edge(v("a"), v("c"))
        assert graph.slot(v("a")) == 0 and graph.slot(v("c")) == 2
        assert graph.adjacency_bits(v("a")) == 0b100
        assert graph.adjacency_bits(v("c")) == 0b001
        assert graph.adjacency_bits(v("nope")) == 0

    def test_matrix_bytes_reported(self):
        from repro.interference.base import QueryInterference
        from repro.interference.graph import MatrixInterference
        from tests.helpers import loop_function

        function = loop_function()
        matrix = MatrixInterference(
            function, self._oracle(function), InterferenceKind.INTERSECT
        )
        query = QueryInterference(
            function, self._oracle(function), InterferenceKind.INTERSECT
        )
        assert matrix.matrix_bytes() == matrix.graph.footprint_bytes() > 0
        assert query.matrix_bytes() == 0

    def test_value_kind_still_requires_a_table(self):
        from repro.interference.base import QueryInterference
        from tests.helpers import loop_function

        function = loop_function()
        with pytest.raises(ValueError):
            QueryInterference(
                function, self._oracle(function), InterferenceKind.VALUE, values=None
            )


class TestBackendConfiguration:
    def test_engine_config_validates_the_backend(self):
        from repro.outofssa.config import EngineConfig

        assert EngineConfig(name="x", label="x").interference == "matrix"
        for kind in ("incremental", "bogus"):
            with pytest.raises(ValueError, match="unknown interference backend"):
                EngineConfig(name="x", label="x", interference=kind)

    def test_builder_selects_backends(self):
        from repro.outofssa.config import EngineConfig

        config = EngineConfig.builder("us_i").interference("query").build()
        assert config.interference == "query"
        assert config.name == "us_i_intercheck"
        for kind in ("incremental", "bogus"):
            with pytest.raises(ValueError, match="unknown interference backend"):
                EngineConfig.builder().interference(kind)

    def test_removed_incremental_liveness_is_an_unknown_backend(self):
        from repro.outofssa.config import EngineConfig

        with pytest.raises(ValueError, match="unknown liveness backend 'incremental'"):
            EngineConfig.builder("us_i").liveness("incremental")

    def test_removed_core_knob_is_not_a_field(self):
        from repro.outofssa.config import EngineConfig

        with pytest.raises(TypeError, match="core"):
            EngineConfig(name="x", label="x", core="flat")
        assert not hasattr(EngineConfig.builder("us_i"), "core")

    def test_describe_names_the_backend(self):
        from repro.outofssa.config import engine_by_name

        assert "interference graph" in engine_by_name("us_i").describe()
        assert "InterCheck" in engine_by_name("us_i_linear_intercheck_livecheck").describe()
