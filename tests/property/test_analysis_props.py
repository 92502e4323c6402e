"""Property-based consistency checks between independent analysis implementations."""

from hypothesis import given, settings, strategies as st

from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.interference.congruence import CongruenceClasses
from repro.interference.definitions import InterferenceKind, make_interference_test
from repro.interference.graph import InterferenceGraph
from repro.coalescing.engine import collect_affinities
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.liveness.dataflow import LivenessSets
from repro.liveness.livecheck import LivenessChecker
from repro.liveness.intersection import IntersectionOracle
from repro.outofssa.method_i import insert_phi_copies


def build_program(seed: int, size: int):
    return generate_ssa_program(GeneratorConfig(seed=seed, name=f"an{seed}", size=size))


@given(seed=st.integers(0, 5000), size=st.integers(12, 40))
@settings(max_examples=25, deadline=None)
def test_printer_parser_round_trip(seed, size):
    program = build_program(seed, size)
    text = format_function(program)
    assert format_function(parse_function(text)) == text


@given(seed=st.integers(0, 5000), size=st.integers(12, 38))
@settings(max_examples=20, deadline=None)
def test_liveness_checker_agrees_with_dataflow_sets(seed, size):
    program = build_program(seed, size)
    sets = LivenessSets(program)
    checker = LivenessChecker(program)
    for block in program.blocks:
        for var in program.variables():
            assert sets.is_live_in(block, var) == checker.is_live_in(block, var)
            assert sets.is_live_out(block, var) == checker.is_live_out(block, var)


@given(seed=st.integers(0, 5000), size=st.integers(12, 34))
@settings(max_examples=15, deadline=None)
def test_scan_graph_equals_all_pairs_graph(seed, size):
    program = build_program(seed, size)
    oracle = IntersectionOracle(program, LivenessSets(program))
    test = make_interference_test(program, oracle, InterferenceKind.VALUE)
    universe = program.variables()
    scan = InterferenceGraph.build(program, test, universe)
    reference = InterferenceGraph.build_all_pairs(program, test, universe)
    for i, a in enumerate(universe):
        for b in universe[i + 1:]:
            assert scan.interferes(a, b) == reference.interferes(a, b)


@given(
    seed=st.integers(0, 5000),
    size=st.integers(12, 34),
    kind=st.sampled_from([InterferenceKind.INTERSECT, InterferenceKind.VALUE]),
)
@settings(max_examples=20, deadline=None)
def test_linear_class_check_equals_quadratic(seed, size, kind):
    """Grow congruence classes exactly as the coalescer would, checking that
    the linear sweep and the quadratic reference always agree."""
    program = build_program(seed, size)
    insertion = insert_phi_copies(program)
    oracle = IntersectionOracle(program, LivenessSets(program))
    test = make_interference_test(program, oracle, kind)
    linear = CongruenceClasses(test, use_linear_check=True)
    quadratic = CongruenceClasses(test, use_linear_check=False)
    for members in insertion.phi_nodes:
        linear.make_class(members)
        quadratic.make_class(members)
    for affinity in collect_affinities(program, insertion):
        lin_left, lin_right = linear.class_of(affinity.dst), linear.class_of(affinity.src)
        quad_left, quad_right = quadratic.class_of(affinity.dst), quadratic.class_of(affinity.src)
        if lin_left is lin_right:
            continue
        lin_answer, equal_anc_out = linear.interfere(lin_left, lin_right)
        quad_answer = quadratic.interfere_quadratic(quad_left, quad_right)
        assert lin_answer == quad_answer
        if not lin_answer:
            linear.merge(lin_left, lin_right, equal_anc_out)
            quadratic.merge(quad_left, quad_right)
