"""A miniature JIT middle-end built on the library's pass-pipeline API.

This is the scenario that motivates the paper: a just-in-time compiler that
(1) builds SSA from the incoming (non-SSA) code, (2) runs the cheap SSA
optimizations that break conventionality (copy folding, value numbering),
(3) applies calling-convention constraints, and (4) must get *out* of SSA
quickly and with little memory before register allocation (which is not
part of this example).

All four steps are one declarative :class:`repro.Pipeline` run: the front
half and the paper's four out-of-SSA phases execute as passes over a shared
analysis cache, and the result reports per-pass wall-clock times.

Run with:  python examples/jit_pipeline.py
"""

from repro.bench.metrics import copy_counts
from repro.interp import run_function
from repro.ir import format_function, parse_function
from repro.pipeline import Pipeline
from repro.utils import AllocationTracker


SOURCE = """
function dot3(ax, ay) {
  entry:
    bx = mul ay, 2
    by = sub ax, 1
    acc = const 0
    i = const 0
    n = const 3
    jump header
  header:
    c = cmp_lt i, n
    br c, body, done
  body:
    px = mul ax, bx
    py = mul ay, by
    t = add px, py
    acc = add acc, t
    swp = copy ax
    ax = copy ay
    ay = copy swp
    scaled = call scale(acc, i)
    acc2 = add acc, scaled
    acc = copy acc2
    i = add i, 1
    jump header
  done:
    print acc
    ret acc
}
"""


def main() -> None:
    function = parse_function(SOURCE)
    print("=== incoming (non-SSA) code ===")
    print(format_function(function))
    reference = run_function(parse_function(SOURCE), [3, 4])

    # Steps 1-4 as one pipeline: SSA construction, the SSA optimizations that
    # make the form non-conventional, register renaming constraints for the
    # call, then out of SSA with the JIT-friendly engine (no interference
    # graph, no liveness sets, linear congruence-class checks).
    tracker = AllocationTracker()
    pipeline = Pipeline.for_engine(
        "us_i_linear_intercheck_livecheck",
        construct_ssa=True, optimize=True, abi=True,
    )
    print("=== pipeline ===")
    print(pipeline.describe())
    result = pipeline.run(function, tracker=tracker)
    print()
    print("=== final code ===")
    print(format_function(function))

    counts = copy_counts(function)
    print("φ-copies inserted            :", result.stats.inserted_phi_copies)
    print("affinities considered        :", result.stats.affinities)
    print("copies coalesced             :", result.stats.coalesced)
    print("copies remaining (moves)     :", counts.static_copies)
    print("constant materialisations    :", counts.constant_moves)
    print("translation time             : %.3f ms" % (result.stats.elapsed_seconds * 1e3))
    print("analysis memory (peak bytes) :", tracker.peak())
    print("per-pass times (ms)          :", ", ".join(
        "%s %.3f" % (name, seconds * 1e3) for name, seconds in result.pass_seconds.items()
    ))

    after = run_function(function, [3, 4])
    assert after.observable() == reference.observable()
    print("\nbehaviour preserved ✔  return =", after.return_value)


if __name__ == "__main__":
    main()
