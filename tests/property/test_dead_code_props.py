"""Property tests: the use-count dead-code pass reaches the round loop's fixpoint.

``remove_dead_code`` counts uses once and pops definitions whose count is
zero.  The naive loop it replaced re-walks the function until a round
removes nothing; it is kept here as the reference.  Both must leave the same
instructions, in the same order, and report the same count — on functions
with entry and exit parallel copies, dead chains through them, and dead
φ cycles (which keep themselves alive in both).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.ir.instructions import Constant, Copy, Op, ParallelCopy, Phi, Print
from repro.ir.printer import format_function
from repro.outofssa.method_i import insert_phi_copies
from repro.ssa.cleanup import remove_dead_code


def round_loop_dead_code(function):
    """The reference: remove unused side-effect-free defs, round after round."""
    removed_total = 0
    while True:
        used = set()
        for block in function:
            for instruction in block.instructions():
                used.update(instruction.uses())
        removed = 0
        for block in function:
            kept_phis = []
            for phi in block.phis:
                if phi.dst in used:
                    kept_phis.append(phi)
                else:
                    removed += 1
            block.phis = kept_phis
            kept_body = []
            for instruction in block.body:
                if isinstance(instruction, (Op, Copy)) and not any(
                    var in used for var in instruction.defs()
                ):
                    removed += 1
                    continue
                if isinstance(instruction, ParallelCopy):
                    before = len(instruction.pairs)
                    instruction.pairs = [(d, s) for d, s in instruction.pairs if d in used]
                    removed += before - len(instruction.pairs)
                    if instruction.is_empty():
                        continue
                kept_body.append(instruction)
            block.body = kept_body
            for pcopy in (block.entry_pcopy, block.exit_pcopy):
                if pcopy is not None:
                    before = len(pcopy.pairs)
                    pcopy.pairs = [(d, s) for d, s in pcopy.pairs if d in used]
                    removed += before - len(pcopy.pairs)
            block.drop_empty_pcopies()
        removed_total += removed
        if removed == 0:
            return removed_total


def add_dead_code(function, draw):
    """Sprinkle dead definitions over ``function``: op chains, pairs on entry
    and exit parallel copies (some reading each other), φ cycles, an empty
    body parallel copy, and dropped prints that orphan what they printed."""
    blocks = list(function)
    fresh = []

    def operand():
        pool = fresh + function.params
        if pool and draw(st.booleans()):
            return draw(st.sampled_from(pool))
        return Constant(draw(st.integers(0, 9)))

    for _ in range(draw(st.integers(0, 12))):
        block = draw(st.sampled_from(blocks))
        dst = function.new_variable("dead")
        kind = draw(st.sampled_from(["op", "copy", "entry", "exit", "body_pcopy"]))
        if kind == "op":
            block.body.insert(0, Op(dst, "add", [operand(), operand()]))
        elif kind == "copy":
            block.body.append(Copy(dst, operand()))
        elif kind == "body_pcopy":
            block.body.append(ParallelCopy([(dst, operand())] if draw(st.booleans()) else []))
        else:
            pcopy = block.get_entry_pcopy(True) if kind == "entry" else block.get_exit_pcopy(True)
            pcopy.add(dst, operand())
        fresh.append(dst)
    joins = [block for block in blocks if len(function.predecessors(block.label)) >= 1]
    for _ in range(draw(st.integers(0, 2))):
        if not joins:
            break
        block = draw(st.sampled_from(joins))
        first, second = function.new_variable("cyc"), function.new_variable("cyc")
        preds = function.predecessors(block.label)
        block.add_phi(Phi(first, {pred: second for pred in preds}))
        block.add_phi(Phi(second, {pred: first for pred in preds}))
        if draw(st.booleans()):
            fresh.append(first)
    for block in blocks:
        if any(isinstance(instruction, Print) for instruction in block.body) and draw(
            st.booleans()
        ):
            block.body = [i for i in block.body if not isinstance(i, Print)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=8, max_value=40),
    phi_copies=st.booleans(),
    data=st.data(),
)
def test_use_counts_reach_the_round_loop_fixpoint(seed, size, phi_copies, data):
    function = generate_ssa_program(GeneratorConfig(seed=seed, size=size))
    if phi_copies:
        insert_phi_copies(function)
    add_dead_code(function, data.draw)
    reference = function.copy()
    expected = round_loop_dead_code(reference)
    assert remove_dead_code(function) == expected
    assert format_function(function) == format_function(reference)
