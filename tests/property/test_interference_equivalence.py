"""Property tests: the two interference backends are *exactly* equivalent.

The pluggable stack (``matrix`` / ``query``) is only a representation choice —
the paper's point is that the graph can be dropped without changing a single
verdict.  Two claims are checked over randomized inputs (mirroring
``tests/property/test_liveness_equivalence.py`` for the liveness stack):

1. *Verdict equality* — on arbitrary generator programs, both backends
   answer every pairwise ``interferes`` query identically, under every
   interference notion.
2. *Bit-identical translations* — every Figure 6/7 engine configuration
   produces byte-for-byte the same out-of-SSA output whichever backend it
   runs on.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.cfg.dominance import DominatorTree
from repro.interference.base import InterferenceKind, QueryInterference
from repro.interference.graph import MatrixInterference
from repro.ir.printer import format_function
from repro.liveness.bitsets import BitLivenessSets
from repro.liveness.dataflow import LivenessSets
from repro.liveness.intersection import IntersectionOracle
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig
from repro.outofssa.method_i import insert_phi_copies
from repro.pipeline import Pipeline
from repro.ssa.values import ValueTable

BACKEND_NAMES = ("matrix", "query")


def _backends(function, kind):
    """One instance of every backend over the same function and notion."""
    domtree = DominatorTree(function)
    values = ValueTable(function, domtree) if kind is InterferenceKind.VALUE else None
    query = QueryInterference(
        function, IntersectionOracle(function, LivenessSets(function), domtree),
        kind, values,
    )
    matrix = MatrixInterference(
        function, IntersectionOracle(function, BitLivenessSets(function), domtree),
        kind, values,
    )
    return {"query": query, "matrix": matrix}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=10, max_value=40),
    kind=st.sampled_from(list(InterferenceKind)),
    after_phi_copies=st.booleans(),
)
def test_backends_agree_on_every_pairwise_verdict(seed, size, kind, after_phi_copies):
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    if after_phi_copies:
        insert_phi_copies(function)
    backends = _backends(function, kind)
    variables = function.variables()
    for a, b in itertools.combinations(variables, 2):
        verdicts = {name: backend.interferes(a, b) for name, backend in backends.items()}
        assert len(set(verdicts.values())) == 1, (
            f"backends disagree on ({a}, {b}) under {kind}: {verdicts}"
        )


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
