"""Property tests: the two interference backends are *exactly* equivalent.

The pluggable stack (``matrix`` / ``query``) is only a representation choice —
the paper's point is that the graph can be dropped without changing a single
verdict.  Two claims are checked over randomized inputs (mirroring
``tests/property/test_liveness_equivalence.py`` for the liveness stack):

1. *Verdict equality* — on arbitrary generator programs (and SSA-constructed
   irreducible stress functions), both backends answer every pairwise
   ``interferes`` query identically, under every interference notion and
   with the matrix built over every liveness backend: its per-block live-out
   rows come from the bit-set rows under ``bitsets`` and from
   ``is_live_out`` queries under ``sets``/``check``.
2. *Bit-identical translations* — every Figure 6/7 engine configuration
   produces byte-for-byte the same out-of-SSA output whichever backend it
   runs on, and so does ``us_i`` under every liveness backend.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.corpus import CorpusSpec, generate_stress_cfg
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.cfg.dominance import DominatorTree
from repro.interference.base import InterferenceKind, QueryInterference
from repro.interference.graph import MatrixInterference
from repro.ir.printer import format_function
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.liveness.livecheck import LivenessChecker
from repro.liveness.numbering import VariableNumbering
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig
from repro.outofssa.method_i import insert_phi_copies
from repro.pipeline import Pipeline
from repro.ssa.construction import construct_ssa
from repro.ssa.values import ValueTable

BACKEND_NAMES = ("matrix", "query")
LIVENESS_NAMES = ("sets", "check", "bitsets")


def _backends(function, kind, liveness="bitsets"):
    """One instance of every backend over the same function and notion; the
    matrix is built over the ``liveness`` backend, the query reference always
    over the ordered-set oracle."""
    domtree = DominatorTree(function)
    values = ValueTable(function, domtree) if kind is InterferenceKind.VALUE else None
    query = QueryInterference(
        function, IntersectionOracle(function, LivenessSets(function), domtree),
        kind, values,
    )
    # One numbering shared by the bit-set rows and the matrix, as the
    # analysis cache shares it: the scan then reads the rows directly.
    numbering = VariableNumbering.of_function(function)
    oracle = {
        "sets": lambda: LivenessSets(function),
        "check": lambda: LivenessChecker(function),
        "bitsets": lambda: BitLivenessSets(function, numbering=numbering),
    }[liveness]()
    matrix = MatrixInterference(
        function, IntersectionOracle(function, oracle, domtree),
        kind, values, numbering=numbering,
    )
    return {"query": query, "matrix": matrix}


def _assert_verdicts_agree(function, kind, liveness):
    backends = _backends(function, kind, liveness)
    variables = function.variables()
    for a, b in itertools.combinations(variables, 2):
        verdicts = {name: backend.interferes(a, b) for name, backend in backends.items()}
        assert len(set(verdicts.values())) == 1, (
            f"backends disagree on ({a}, {b}) under {kind} over {liveness} "
            f"liveness: {verdicts}"
        )


@pytest.mark.parametrize("liveness", LIVENESS_NAMES)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=40),
    kind=st.sampled_from(list(InterferenceKind)),
    after_phi_copies=st.booleans(),
)
def test_backends_agree_on_every_pairwise_verdict(
    liveness, seed, size, kind, after_phi_copies
):
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    if after_phi_copies:
        insert_phi_copies(function)
    _assert_verdicts_agree(function, kind, liveness)


@pytest.mark.parametrize("liveness", LIVENESS_NAMES)
@pytest.mark.parametrize("kind", list(InterferenceKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize("seed", [1, 7])
def test_backends_agree_on_irreducible_stress_functions(seed, kind, liveness):
    function = generate_stress_cfg(
        CorpusSpec(seed=seed, blocks=40, loop_depth=3, variables=5, irreducible=0.15)
    )
    construct_ssa(function)
    insert_phi_copies(function)
    _assert_verdicts_agree(function, kind, liveness)


@pytest.mark.parametrize("config", ENGINE_CONFIGURATIONS, ids=lambda c: c.name)
def test_every_engine_translates_bit_identically_under_all_backends(config):
    """All seven Figure 6/7 engines x both backends: same final program."""
    for seed in (3, 11, 29):
        program = generate_ssa_program(GeneratorConfig(seed=seed, size=30))
        outputs = {}
        for backend in BACKEND_NAMES:
            function = program.copy()
            derived = EngineConfig.builder(config).interference(backend).build()
            Pipeline.for_engine(derived).run(function)
            outputs[backend] = format_function(function)
        assert outputs["matrix"] == outputs["query"], (
            f"{config.name} diverged across backends on seed {seed}"
        )


@pytest.mark.parametrize("liveness", LIVENESS_NAMES)
def test_us_i_translates_bit_identically_over_every_liveness_backend(liveness):
    """``us_i`` with the matrix and with queries, over each liveness backend:
    same final program."""
    for seed in (3, 11, 29):
        program = generate_ssa_program(GeneratorConfig(seed=seed, size=30))
        outputs = {}
        for backend in BACKEND_NAMES:
            function = program.copy()
            derived = (
                EngineConfig.builder("us_i").liveness(liveness).interference(backend).build()
            )
            Pipeline.for_engine(derived).run(function)
            outputs[backend] = format_function(function)
        assert outputs["matrix"] == outputs["query"], (
            f"us_i over {liveness} liveness diverged across backends on seed {seed}"
        )
