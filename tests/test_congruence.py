"""Tests for congruence classes and the linear class-vs-class interference check."""

import pytest

from repro.interference.congruence import CongruenceClasses
from repro.interference.definitions import InterferenceKind, make_interference_test
from repro.ir.instructions import Variable
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.outofssa.method_i import insert_phi_copies
from repro.gallery import figure3_swap_problem, figure4_lost_copy_problem
from tests.helpers import generated_programs, straight_line_copies


def v(name: str) -> Variable:
    return Variable(name)


def build_classes(function, kind=InterferenceKind.VALUE, linear=True):
    oracle = IntersectionOracle(function, LivenessSets(function))
    test = make_interference_test(function, oracle, kind)
    return CongruenceClasses(oracle, test, use_linear_check=linear)


class TestBasicClassManagement:
    def test_singletons_and_same_class(self):
        function = straight_line_copies()
        classes = build_classes(function)
        assert classes.class_of(v("a")) is classes.class_of(v("a"))
        assert not classes.same_class(v("a"), v("b"))
        assert classes.representative(v("a")) == v("a")

    def test_make_class_sorts_by_dominance(self):
        function = straight_line_copies()
        classes = build_classes(function)
        made = classes.make_class([v("c"), v("a"), v("b")])
        assert made.members == [v("a"), v("b"), v("c")]
        assert classes.same_class(v("a"), v("c"))

    def test_merge_keeps_sorted_order(self):
        function = straight_line_copies()
        classes = build_classes(function)
        left = classes.make_class([v("a"), v("c")])
        right = classes.make_class([v("b")])
        merged = classes.merge(left, right)
        assert merged.members == [v("a"), v("b"), v("c")]
        assert classes.class_of(v("b")) is merged

    def test_register_labels_conflict(self):
        function = straight_line_copies()
        classes = build_classes(function)
        left = classes.make_class([v("a")], register="R0")
        right = classes.make_class([v("b")], register="R1")
        interferes, _ = classes.interfere(left, right)
        assert interferes
        with pytest.raises(ValueError):
            classes.merge(left, right)

    def test_merge_preserves_register_label(self):
        function = straight_line_copies()
        classes = build_classes(function)
        left = classes.make_class([v("a")], register="R0")
        right = classes.make_class([v("b")])
        merged = classes.merge(left, right)
        assert merged.register == "R0"


class TestInterferenceChecks:
    def test_try_coalesce_value_example(self):
        """On the b = a; c = a example the value rule coalesces everything."""
        function = straight_line_copies()
        classes = build_classes(function, InterferenceKind.VALUE)
        assert classes.try_coalesce(v("b"), v("a"))
        assert classes.try_coalesce(v("c"), v("a"))
        assert classes.same_class(v("b"), v("c"))

    def test_try_coalesce_intersect_refuses(self):
        function = straight_line_copies()
        classes = build_classes(function, InterferenceKind.INTERSECT)
        assert not classes.try_coalesce(v("b"), v("a"))

    def test_skip_copy_pair_rule(self):
        """Sreedhar's rule exempts the copy's own pair from the check."""
        function = straight_line_copies()
        classes = build_classes(function, InterferenceKind.INTERSECT)
        assert classes.try_coalesce(v("b"), v("a"), skip_copy_pair=True)
        # A second coalescing now hits the (c, b) pair, which is not exempted.
        assert not classes.try_coalesce(v("c"), v("a"), skip_copy_pair=True)

    def test_lost_copy_phi_node_interferences(self):
        """Figure 4: the φ-node interferes with x2 (the copy that must stay),
        but not with x1 or x3 (whose copies can be coalesced)."""
        function = figure4_lost_copy_problem()
        insertion = insert_phi_copies(function)
        classes = build_classes(function, InterferenceKind.VALUE)
        phi_node = classes.make_class(insertion.phi_nodes[0])

        x2_class = classes.class_of(v("x2"))
        interferes, _ = classes.interfere(phi_node, x2_class)
        assert interferes

        for name in ("x1", "x3"):
            other = classes.class_of(v(name))
            interferes, _ = classes.interfere(phi_node, other)
            assert not interferes, name

    @pytest.mark.parametrize("kind", [InterferenceKind.INTERSECT, InterferenceKind.VALUE])
    def test_linear_equals_quadratic_on_phi_webs(self, kind):
        """The linear sweep must agree with the all-pairs reference."""
        for maker in (figure3_swap_problem, figure4_lost_copy_problem):
            function = maker()
            insertion = insert_phi_copies(function)
            linear = build_classes(function, kind, linear=True)
            quadratic = build_classes(function, kind, linear=False)
            phi_linear = [linear.make_class(members) for members in insertion.phi_nodes]
            phi_quadratic = [quadratic.make_class(members) for members in insertion.phi_nodes]
            candidates = [var for var in function.variables()]
            for index, (lin_cls, quad_cls) in enumerate(zip(phi_linear, phi_quadratic)):
                for var in candidates:
                    if var in lin_cls.members:
                        continue
                    lin_answer, _ = linear.interfere(lin_cls, linear.class_of(var))
                    quad_answer = quadratic.interfere_quadratic(quad_cls, quadratic.class_of(var))
                    assert lin_answer == quad_answer, (maker.__name__, index, var)

    @pytest.mark.parametrize("kind", [InterferenceKind.INTERSECT, InterferenceKind.VALUE])
    def test_linear_equals_quadratic_after_greedy_merging(self, kind):
        """Grow classes by coalescing copies, comparing both checkers at every step."""
        from repro.coalescing.engine import collect_affinities

        for function in generated_programs(count=3, size=30):
            function = function.copy()
            insertion = insert_phi_copies(function)
            linear = build_classes(function, kind, linear=True)
            quadratic = build_classes(function, kind, linear=False)
            for members in insertion.phi_nodes:
                linear.make_class(members)
                quadratic.make_class(members)
            affinities = collect_affinities(function, insertion)
            for affinity in affinities:
                lin_left = linear.class_of(affinity.dst)
                lin_right = linear.class_of(affinity.src)
                quad_left = quadratic.class_of(affinity.dst)
                quad_right = quadratic.class_of(affinity.src)
                if lin_left is lin_right:
                    continue
                lin_answer, equal_anc_out = linear.interfere(lin_left, lin_right)
                quad_answer = quadratic.interfere_quadratic(quad_left, quad_right)
                assert lin_answer == quad_answer, (function.name, str(affinity.dst), str(affinity.src))
                if not lin_answer:
                    linear.merge(lin_left, lin_right, equal_anc_out)
                    quadratic.merge(quad_left, quad_right)

    def test_pair_query_counter_increases(self):
        function = straight_line_copies()
        classes = build_classes(function)
        classes.try_coalesce(v("b"), v("a"))
        assert classes.pair_queries > 0

    def test_classes_listing(self):
        function = straight_line_copies()
        classes = build_classes(function)
        classes.make_class([v("a"), v("b")])
        classes.class_of(v("c"))
        assert len(classes.classes()) == 2


# --------------------------------------------------------------------------- ≺-key memoization
class TestOrderKeyMemoization:
    """The ≺ sort keys are memoized on the intersection oracle: however many
    class merges re-compare variables, each key is computed exactly once (the
    regression the ``order_key_computations`` counter pins down)."""

    def test_keys_computed_once_across_repeated_merges(self):
        for function in generated_programs(count=2, size=30):
            function = function.copy()
            insertion = insert_phi_copies(function)
            oracle = IntersectionOracle(function, LivenessSets(function))
            test = make_interference_test(function, oracle, InterferenceKind.VALUE)
            classes = CongruenceClasses(oracle, test, use_linear_check=True)
            for members in insertion.phi_nodes:
                classes.make_class(members)
            from repro.coalescing.engine import collect_affinities

            for affinity in collect_affinities(function, insertion):
                classes.try_coalesce(affinity.dst, affinity.src)
            touched = {
                var
                for cls in classes.classes()
                for var in cls.members
            }
            # One computation per distinct variable the machinery ever sorted,
            # no matter how many merges re-compared it.
            assert oracle.order_key_computations <= len(oracle._order_keys)
            assert set(oracle._order_keys) >= touched
            before = oracle.order_key_computations
            # Re-sorting everything again is pure cache hits.
            for cls in classes.classes():
                sorted(cls.members, key=oracle.dominance_order_key)
            assert oracle.order_key_computations == before

    def test_dominates_is_memoized(self):
        function = straight_line_copies()
        oracle = IntersectionOracle(function, LivenessSets(function))
        assert oracle.dominates(v("a"), v("b"))
        assert (v("a"), v("b")) in oracle._dominates_memo
        assert oracle.dominates(v("a"), v("b"))


# --------------------------------------------------------------------------- class rows
class TestMatrixClassRows:
    """Matrix-backed class checks: merged adjacency rows answer class-vs-class
    interference without any pairwise query, and always agree with the
    quadratic reference."""

    def _matrix_classes(self, function, kind, universe=None):
        from repro.interference.graph import MatrixInterference
        from repro.liveness.bitsets import BitLivenessSets

        oracle = IntersectionOracle(function, BitLivenessSets(function))
        from repro.ssa.values import ValueTable

        values = ValueTable(function, oracle.domtree) if kind is InterferenceKind.VALUE else None
        backend = MatrixInterference(function, oracle, kind, values, universe=universe)
        return CongruenceClasses(backend, use_linear_check=False)

    @pytest.mark.parametrize("kind", [InterferenceKind.INTERSECT, InterferenceKind.VALUE])
    def test_row_checks_agree_with_quadratic_and_skip_queries(self, kind):
        from repro.coalescing.engine import collect_affinities

        for function in generated_programs(count=3, size=30):
            function = function.copy()
            insertion = insert_phi_copies(function)
            rows = self._matrix_classes(function, kind)
            reference = build_classes(function, kind, linear=False)
            for members in insertion.phi_nodes:
                rows.make_class(members)
                reference.make_class(members)
            for affinity in collect_affinities(function, insertion):
                left, right = rows.class_of(affinity.dst), rows.class_of(affinity.src)
                ref_left = reference.class_of(affinity.dst)
                ref_right = reference.class_of(affinity.src)
                if left is right:
                    continue
                row_answer, _ = rows.interfere(left, right)
                ref_answer = reference.interfere_quadratic(ref_left, ref_right)
                assert row_answer == ref_answer, (function.name, str(affinity.dst))
                if not row_answer:
                    rows.merge(left, right)
                    reference.merge(ref_left, ref_right)
            assert rows.class_row_checks > 0
            assert rows.pair_queries == 0      # every check came from the rows

    def test_non_universe_member_falls_back_to_quadratic(self):
        function = figure4_lost_copy_problem()
        insertion = insert_phi_copies(function)
        members = insertion.phi_nodes[0]
        # Restrict the matrix so one φ member is outside its universe.
        rows = self._matrix_classes(
            function, InterferenceKind.INTERSECT, universe=list(members)[:1]
        )
        left = rows.make_class(members)
        other = next(
            var for var in function.variables() if var not in left.members
        )
        answer, _ = rows.interfere(left, rows.class_of(other))
        assert rows.class_row_checks == 0     # fell back: member without a slot
        assert isinstance(answer, bool)
