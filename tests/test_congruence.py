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
    return CongruenceClasses(test, use_linear_check=linear)


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


# --------------------------------------------------------------------------- ids and ≺ keys
TIES = """
function ties(p, q) {
  entry:
    pcopy zb <- p, ya <- q
    jump join
  join:
    z = phi [entry: zb]
    y = phi [entry: ya]
    print z
    ret y
}
"""


class TestIndexIds:
    """The classes live on the liveness oracle's DefUseIndex ids and read ≺
    keys and definition rows from the intersection oracle's id-indexed
    tables; there is no second numbering."""

    def test_classes_use_the_index_ids_and_the_oracle_tables(self):
        from repro.coalescing.engine import collect_affinities

        for function in generated_programs(count=2, size=30):
            function = function.copy()
            insertion = insert_phi_copies(function)
            classes = build_classes(function)
            oracle = classes.oracle
            index = oracle.liveness.index
            assert classes.index is index and oracle.index is index
            keys = oracle.keys
            assert oracle.keys is keys                 # built once per oracle
            assert len(keys) == len(oracle.rows) == len(index.variables)
            for members in insertion.phi_nodes:
                classes.make_class(members)
            for affinity in collect_affinities(function, insertion):
                classes.try_coalesce(affinity.dst, affinity.src)
            assert len(classes.class_by_id) == len(index.variables)
            for cls in classes.classes():
                assert [index.variables[ident] for ident in cls.ids] == cls.members
                assert cls.ids == sorted(cls.ids, key=keys.__getitem__)
                for ident in cls.ids:
                    assert classes.class_by_id[ident] is cls

    def test_ties_at_one_program_point_follow_names(self):
        """Variables defined at one program point (the destinations of one
        parallel copy, the φs of one block) are ordered by name, whatever
        their order in the index."""
        from repro.ir.parser import parse_function
        from repro.pipeline.phases import build_rename_map

        function = parse_function(TIES)
        classes = build_classes(function)
        index = classes.index
        for first, second in ((v("ya"), v("zb")), (v("y"), v("z"))):
            assert index.def_points[first] == index.def_points[second]
            assert index.ids[second] < index.ids[first]     # index order != name order
            made = classes.make_class([second, first])
            assert made.members == [first, second]
            assert classes.representative(second) == first
        assert build_rename_map(classes) == {v("zb"): v("ya"), v("z"): v("y")}


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


# --------------------------------------------------------------------------- row-AND quadratic check
class TestRowAndQuadraticParity:
    """On the matrix backend the quadratic check answers each left member with
    one AND of its adjacency row against the other class's slot bits.  Under
    Sreedhar III's skip-pair rule it must give the pairwise sweep's verdict and
    advance ``pair_queries`` and ``matrix_hits`` by exactly the number of
    queries that sweep issues up to its first hit."""

    @staticmethod
    def _pairwise(backend, left, right, skip):
        """The reference sweep: ``(verdict, queries issued)``."""
        issued = 0
        for a in left.members:
            for b in right.members:
                if (a, b) in skip or (b, a) in skip:
                    continue
                issued += 1
                if backend.interferes(a, b):
                    return True, issued
        return False, issued

    def test_row_and_matches_the_pairwise_sweep_under_skip_pairs(self):
        from repro.coalescing.engine import collect_affinities
        from repro.interference.graph import MatrixInterference
        from repro.liveness.bitsets import BitLivenessSets

        checks = skipped_edge_passes = 0
        for function in generated_programs(count=6, size=35):
            function = function.copy()
            insertion = insert_phi_copies(function)
            oracle = IntersectionOracle(function, BitLivenessSets(function))
            backend = MatrixInterference(function, oracle, InterferenceKind.INTERSECT)
            classes = CongruenceClasses(backend, use_linear_check=False)
            for members in insertion.phi_nodes:
                classes.make_class(members)
            for affinity in collect_affinities(function, insertion):
                left = classes.class_of(affinity.dst)
                right = classes.class_of(affinity.src)
                if left is right:
                    continue
                skip = {(affinity.dst, affinity.src)}
                hits = backend.matrix_hits
                copy_edge = backend.interferes(affinity.dst, affinity.src)
                expected, issued = self._pairwise(backend, left, right, skip)
                backend.matrix_hits = hits        # the reference's hits do not count
                queries = classes.pair_queries

                answer, _ = classes.interfere(left, right, skip_pairs=list(skip))

                assert answer == expected, (function.name, str(affinity.dst))
                assert classes.pair_queries - queries == issued
                assert backend.matrix_hits - hits == issued
                checks += 1
                if not answer:
                    skipped_edge_passes += copy_edge
                    classes.merge(left, right)
        assert classes.class_row_checks == 0      # skip pairs: never the class AND
        assert checks > 0
        # Merges past an interfering copy pair: only masking that pair out of
        # the row (and out of the count) gets these right.
        assert skipped_edge_passes > 0


# --------------------------------------------------------------------------- suite counters
class TestSuiteCounterSums:
    """The Figure 6 query counters and the copies left, summed over the
    65-function suite per engine — the class checks must issue exactly these
    queries whatever their representation."""

    PINNED = {
        # engine: (pair_queries, intersection_queries, class_row_checks, remaining_copies)
        "sreedhar_iii": (82371, 12, 0, 1077),
        "us_iii": (0, 12, 5632, 954),
        "us_iii_intercheck": (88208, 88220, 0, 954),
        "us_iii_intercheck_livecheck": (88208, 88220, 0, 954),
        "us_iii_linear_intercheck_livecheck": (11794, 11806, 0, 954),
        "us_i": (0, 12, 5638, 964),
        "us_i_linear_intercheck_livecheck": (11350, 11362, 0, 964),
    }

    #: engine: SHA-256 of the 65 translated functions' printed IR, concatenated
    #: in suite order — the output must stay bit-identical, not just as long.
    IR_SHA256 = {
        "sreedhar_iii": "6871b7d8a294a5fce96b30f2fa5b17e48e4649b84735aee2cb77143f6b79b4e5",
        "us_iii": "5f10411459860ccc68e4b0f490bac53b21767addf58b1030f5a6179ecb844835",
        "us_iii_intercheck": "5f10411459860ccc68e4b0f490bac53b21767addf58b1030f5a6179ecb844835",
        "us_iii_intercheck_livecheck":
            "5f10411459860ccc68e4b0f490bac53b21767addf58b1030f5a6179ecb844835",
        "us_iii_linear_intercheck_livecheck":
            "5f10411459860ccc68e4b0f490bac53b21767addf58b1030f5a6179ecb844835",
        "us_i": "d35f3e63a4e63ca895f20b398c7d87a3b8b444b9785a0eb33b0a6552ef462fde",
        "us_i_linear_intercheck_livecheck":
            "d35f3e63a4e63ca895f20b398c7d87a3b8b444b9785a0eb33b0a6552ef462fde",
    }

    def test_per_engine_sums_are_pinned(self):
        import hashlib

        from repro.bench.suite import build_suite
        from repro.ir.printer import format_function
        from repro.pipeline import Pipeline

        functions = [f for group in build_suite(1.0).values() for f in group]
        assert len(functions) == 65
        assert set(self.IR_SHA256) == set(self.PINNED)
        for engine, expected in self.PINNED.items():
            sums = [0, 0, 0, 0]
            digest = hashlib.sha256()
            for function in functions:
                translated = function.copy()
                stats = Pipeline.for_engine(engine).run(translated).stats
                sums[0] += stats.pair_queries
                sums[1] += stats.intersection_queries
                sums[2] += stats.class_row_checks
                sums[3] += stats.remaining_copies
                digest.update(format_function(translated).encode())
            assert tuple(sums) == expected, engine
            assert digest.hexdigest() == self.IR_SHA256[engine], engine
