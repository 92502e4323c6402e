"""Tests for affinity collection, the coalescing loop, variants and sharing."""

import pytest

from repro.bench.metrics import copy_counts
from repro.cfg.frequency import estimate_block_frequencies
from repro.coalescing.engine import AggressiveCoalescer, collect_affinities
from repro.coalescing.variants import VARIANTS, variant_by_name
from repro.interference.congruence import CongruenceClasses
from repro.interference.definitions import InterferenceKind, make_interference_test
from repro.interp import run_function
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Variable
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.outofssa.driver import EngineConfig, destruct_ssa
from repro.outofssa.method_i import insert_phi_copies
from tests.helpers import loop_function, straight_line_copies


def v(name: str) -> Variable:
    return Variable(name)


def figure5_config(variant_name: str) -> EngineConfig:
    return EngineConfig(
        name=f"test_{variant_name}", label=variant_name, coalescing=variant_name,
        liveness="check", interference="query", linear_class_check=False,
    )


class TestAffinityCollection:
    def test_phi_copies_and_weights(self):
        function = loop_function()
        insertion = insert_phi_copies(function)
        frequencies = estimate_block_frequencies(function)
        affinities = collect_affinities(function, insertion, frequencies)
        # Two φs with two arguments each: 2 results + 4 arguments.
        assert len(affinities) == 6
        # Copies sitting in the loop weigh more than the ones in the entry.
        in_loop = [a for a in affinities if a.block in ("header", "body")]
        in_entry = [a for a in affinities if a.block == "entry"]
        assert min(a.weight for a in in_loop) > max(a.weight for a in in_entry)

    def test_constant_sources_are_not_affinities(self):
        fb = FunctionBuilder("consts")
        entry = fb.block("entry")
        with fb.at(entry):
            fb.copy("x", 3)
            fb.copy("y", "x")
            fb.ret("y")
        affinities = collect_affinities(fb.finish())
        assert [(a.dst.name, a.src.name) for a in affinities] == [("y", "x")]

    def test_no_duplicates(self):
        function = loop_function()
        insertion = insert_phi_copies(function)
        affinities = collect_affinities(function, insertion)
        keys = [(a.dst, a.src, a.block) for a in affinities]
        assert len(keys) == len(set(keys))


class TestVariants:
    def test_variant_table(self):
        assert [variant.name for variant in VARIANTS] == [
            "intersect", "sreedhar_i", "chaitin", "value",
            "sreedhar_iii", "value_is", "sharing",
        ]
        assert variant_by_name("value").interference is InterferenceKind.VALUE
        assert variant_by_name("sreedhar_iii").ordering == "per_phi"
        assert variant_by_name("sharing").sharing
        with pytest.raises(KeyError):
            variant_by_name("nonsense")

    def test_paper_example_separation(self):
        """b = a; c = a with everything live: 2 / 1 / 1 / 0 remaining copies."""
        expected = {
            "intersect": 2,
            "sreedhar_i": 1,
            "chaitin": 1,
            "value": 0,
            "sreedhar_iii": 1,
            "value_is": 0,
            "sharing": 0,
        }
        for variant_name, remaining in expected.items():
            function = straight_line_copies()
            destruct_ssa(function, figure5_config(variant_name))
            assert copy_counts(function).static_copies == remaining, variant_name

    def test_variants_never_change_semantics(self):
        for variant in VARIANTS:
            function = straight_line_copies()
            expected = run_function(straight_line_copies(), [4]).observable()
            destruct_ssa(function, figure5_config(variant.name))
            assert run_function(function, [4]).observable() == expected, variant.name

    def test_quality_ordering_on_gallery(self):
        """More precise interference never leaves more copies."""
        from repro.gallery import figure3_swap_problem, figure4_lost_copy_problem

        for maker in (figure3_swap_problem, figure4_lost_copy_problem):
            remaining = {}
            for variant in VARIANTS:
                function = maker()
                destruct_ssa(function, figure5_config(variant.name))
                remaining[variant.name] = copy_counts(function).static_copies
            assert remaining["value"] <= remaining["chaitin"] <= remaining["intersect"]
            assert remaining["value_is"] <= remaining["value"]
            assert remaining["sharing"] <= remaining["value_is"]


class TestCoalescerMechanics:
    def test_weight_priority_prefers_inner_loop_copies(self):
        """When two affinities conflict, the heavier (inner-loop) one must win."""
        fb = FunctionBuilder("weights", params=("n",))
        entry, header, body, exit_block = fb.blocks("entry", "header", "body", "exit")
        with fb.at(entry):
            a = fb.op("add", "n", 1, name="a")
            fb.copy("cold", a)          # low weight copy of a (entry block)
            fb.jump(header)
        with fb.at(header):
            i1 = fb.phi("i1", entry=0, body="i2")
            c = fb.op("cmp_lt", i1, "n", name="c")
            fb.branch(c, body, exit_block)
        with fb.at(body):
            fb.copy("hot", a)           # high weight copy of a (inner loop)
            fb.print("hot")
            i2 = fb.op("add", i1, 1, name="i2")
            fb.jump(header)
        with fb.at(exit_block):
            fb.print("cold")
            fb.print(a)
            fb.ret(a)
        function = fb.finish()

        # Under Chaitin's rule each copy alone could be coalesced with a, but
        # cold and hot cannot both join a's class (cold is live at hot's
        # definition, which is not a copy between the two).  Weight ordering
        # decides the winner: the inner-loop copy.
        oracle = IntersectionOracle(function, LivenessSets(function))
        test = make_interference_test(function, oracle, InterferenceKind.CHAITIN)
        classes = CongruenceClasses(test, use_linear_check=False)
        affinities = collect_affinities(function)
        coalescer = AggressiveCoalescer(classes, ordering="global")
        stats = coalescer.run(affinities)
        hot = next(a for a in affinities if a.dst.name == "hot")
        cold = next(a for a in affinities if a.dst.name == "cold")
        assert hot.weight > cold.weight
        assert hot.coalesced
        assert not cold.coalesced
        assert stats.coalesced >= 1 and stats.remaining >= 1

    def test_invalid_ordering_rejected(self):
        function = straight_line_copies()
        oracle = IntersectionOracle(function, LivenessSets(function))
        test = make_interference_test(function, oracle, InterferenceKind.VALUE)
        classes = CongruenceClasses(test)
        with pytest.raises(ValueError):
            AggressiveCoalescer(classes, ordering="sideways")


class TestSharing:
    def test_sharing_removes_copy_that_value_alone_cannot(self):
        """Paper §III-B: a (after some other coalescing) interferes with b and
        c; neither copy can be removed by plain value-based coalescing, but b
        and c can share the copied value, saving one copy."""
        from repro.coalescing.sharing import apply_copy_sharing

        fb = FunctionBuilder("share", params=("p",))
        entry = fb.block("entry")
        with fb.at(entry):
            a = fb.op("add", "p", 1, name="a")
            fb.copy("c", a)                    # c = a
            fb.copy("b", a)                    # b = a (a dead from here on)
            blocker = fb.op("mul", "p", 3, name="blocker")
            fb.print("c")
            fb.print("b")
            fb.print(blocker)
            fb.ret("b")
        function = fb.finish()
        oracle = IntersectionOracle(function, LivenessSets(function))
        test = make_interference_test(function, oracle, InterferenceKind.VALUE)
        classes = CongruenceClasses(test)

        # "After some other coalescing": a's congruence class also contains
        # blocker, whose live range overlaps b and c with a different value.
        classes.make_class([v("a"), v("blocker")])
        affinities = collect_affinities(function)
        coalescer = AggressiveCoalescer(classes)
        stats = coalescer.run(affinities)
        assert {x.dst.name for x in stats.remaining_affinities} == {"b", "c"}

        removed = apply_copy_sharing(classes, test, stats.remaining_affinities)
        assert removed == 1
        b_affinity = next(x for x in stats.remaining_affinities if x.dst.name == "b")
        assert b_affinity.shared
        assert classes.same_class(v("b"), v("c"))
