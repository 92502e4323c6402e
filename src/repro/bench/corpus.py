"""Scalable random-CFG stress corpus.

The synthetic SPEC stand-in (:mod:`repro.bench.suite`) is sized for whole
out-of-SSA translations — dozens of blocks per function.  The liveness and
interference subsystems, however, claim to scale ("as fast as the hardware
allows"), which only shows on CFGs far past the hand-built gallery:
thousands of blocks, loops nested many levels deep, dozens of live
variables.  This module generates exactly those *functions-as-graphs*:

* :func:`generate_stress_cfg` — a deterministic (seeded) structured random
  CFG: nested natural loops up to ``loop_depth``, if/else diamonds, straight
  chains, with every block reading and writing a bounded pool of
  ``variables`` (the pressure knob).  The construction is budget-driven, so
  ``blocks=5000`` really produces ≈5000 blocks.  With ``irreducible > 0``
  some loops gain a second entry (a dispatch block branching both to the
  header and into the middle of the body) — multi-entry regions where
  reverse post-order has no good visit order.
* :func:`random_edit_batch` — a materialization-shaped batch of structural
  edits (copies inserted, edges split, localized renames) applied to the
  function *and* described as an :class:`~repro.ir.editlog.EditLog` (the
  JIT re-translation shape of ``TranslationService.retranslate``).
* :func:`scaled_specs` — the standard 1k–10k-block ladder behind
  ``repro stress`` and the cold-latency / verify-overhead benchmarks.

Everything is driven by a seeded :class:`random.Random`; the same spec
always yields the same function and edits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.ir.block import BasicBlock
from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.ir.instructions import Branch, Constant, Copy, Jump, Op, Return, Variable

_OPCODES = ("add", "sub", "mul", "and", "or", "xor", "min", "max")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one stress CFG (all knobs deterministic under ``seed``)."""

    name: str = "stress"
    seed: int = 0
    #: Target number of basic blocks (hit within a few percent).
    blocks: int = 1000
    #: Maximum loop-nest depth (diamonds may nest further).
    loop_depth: int = 4
    #: Per-region working-set size (pressure).  Every region (loop body,
    #: diamond arm) works on this many variables: two inherited from its
    #: parent region — values flow across region boundaries — and the rest
    #: fresh, so names have the *locality* real programs have (a local edit
    #: dirties a neighbourhood, not the world).  The function's total variable
    #: count therefore grows with its region count, as in real code.
    variables: int = 12
    loop_probability: float = 0.30
    branch_probability: float = 0.30
    ops_per_block: int = 3
    #: Probability that a loop gets a *second* entry edge (a dispatch block
    #: branching both to the header and into the middle of the body), making
    #: it a multi-entry — irreducible — region.  Reverse post-order has no
    #: good answer for such regions (there is no single header to visit
    #: first), so they stress the liveness worklist hardest.
    irreducible: float = 0.0

    def describe(self) -> str:
        extra = f", irreducible {self.irreducible:.2f}" if self.irreducible else ""
        return (
            f"{self.blocks} blocks, depth {self.loop_depth}, "
            f"{self.variables} variables, seed {self.seed}{extra}"
        )


class _StressBuilder:
    """Budget-driven structured CFG construction."""

    def __init__(self, spec: CorpusSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.function = Function(f"{spec.name}_{spec.seed}")
        self._counter = 0
        self._var_counter = 0

    # -- variable windows ------------------------------------------------------
    def _window(
        self,
        parent: Optional[List[Variable]] = None,
        parent_initialized: Optional[Set[Variable]] = None,
    ) -> List[Variable]:
        """A fresh region-local working set, seeded with two (initialized)
        parent variables so liveness flows across region boundaries."""
        size = max(3, self.spec.variables)
        window: List[Variable] = []
        if parent:
            candidates = parent
            if parent_initialized:
                candidates = [var for var in parent if var in parent_initialized] or parent
            window.extend(self.rng.sample(candidates, min(2, len(candidates))))
        while len(window) < size:
            self._var_counter += 1
            window.append(
                self.function.register_variable(Variable(f"v{self._var_counter}"))
            )
        return window

    # -- blocks ---------------------------------------------------------------
    def _block(self, window: List[Variable], initialized: Set[Variable]) -> BasicBlock:
        """One block reading *initialized* window variables and defining
        window variables.  Reads never reach an uninitialized name, so every
        variable's live range starts at a def — without this, region-local
        names would be upward-exposed all the way to the function entry and
        liveness would saturate (every variable live in every block), which
        no real program exhibits."""
        self._counter += 1
        block = self.function.add_block(f"b{self._counter}")
        rng = self.rng
        pick = rng.choice
        readable = [var for var in window if var in initialized]
        for _ in range(rng.randint(1, self.spec.ops_per_block)):
            dst = pick(window)
            if not readable:
                block.append(Op(dst, "const", [Constant(rng.randint(0, 9))]))
            elif rng.random() < 0.2:
                block.append(Copy(dst, pick(readable)))
            else:
                a = pick(readable)
                b: object = (
                    pick(readable) if rng.random() < 0.8 else Constant(rng.randint(0, 9))
                )
                block.append(Op(dst, pick(_OPCODES), [a, b]))
            if dst not in initialized:
                initialized.add(dst)
                readable.append(dst)
        return block

    def _used(self) -> int:
        return self._counter

    # -- structured regions ---------------------------------------------------
    def _chain(
        self,
        depth: int,
        quota: int,
        window: List[Variable],
        initialized: Set[Variable],
    ):
        """A chain of regions; returns ``(entry_label, open_tail_block)``
        where the tail still lacks a terminator (the caller links it).
        ``initialized`` tracks which window variables are defined on every
        path through the chain so far (mutated as the chain grows)."""
        first = self._block(window, initialized)
        entry = first.label
        tail = first
        start = self._used()
        rng = self.rng
        spec = self.spec
        while self._used() - start < quota:
            budget = quota - (self._used() - start)
            roll = rng.random()
            if depth < spec.loop_depth and budget >= 4 and roll < spec.loop_probability:
                sub = max(2, int(budget * rng.uniform(0.3, 0.7)))
                element_entry, element_tail = self._loop(depth + 1, sub, window, initialized)
            elif budget >= 4 and roll < spec.loop_probability + spec.branch_probability:
                sub = max(2, int(budget * rng.uniform(0.3, 0.7)))
                element_entry, element_tail = self._diamond(depth + 1, sub, window, initialized)
            else:
                element = self._block(window, initialized)
                element_entry, element_tail = element.label, element
            tail.set_terminator(Jump(element_entry))
            tail = element_tail
        return entry, tail

    def _loop(
        self,
        depth: int,
        quota: int,
        parent_window: List[Variable],
        parent_initialized: Set[Variable],
    ):
        """``header -> body... -> latch -(back|exit)->``; SCC = whole loop."""
        window = self._window(parent_window, parent_initialized)
        initialized = {var for var in window if var in parent_initialized}
        header = self._block(window, initialized)
        body_start = self._used()
        body_entry, body_tail = self._chain(depth, max(1, quota - 3), window, initialized)
        body_end = self._used()
        latch = self._block(window, initialized)
        exit_block = self._block(window, initialized)
        header.set_terminator(Jump(body_entry))
        body_tail.set_terminator(Jump(latch.label))
        latch.set_terminator(
            Branch(self.rng.choice(sorted(initialized, key=str)), header.label, exit_block.label)
        )
        if self.rng.random() < self.spec.irreducible and body_end > body_start:
            # Multi-entry loop: a dispatch block outside the region branches
            # both to the header and *into the middle of the body* (possibly
            # inside a nested sub-loop), so the SCC has two entries and no
            # dominating header — an irreducible CFG region.
            target = f"b{self.rng.randint(body_start + 1, body_end)}"
            dispatch = self._block(parent_window, parent_initialized)
            cond = self.rng.choice(sorted(parent_initialized, key=str))
            dispatch.set_terminator(Branch(cond, header.label, target))
            return dispatch.label, exit_block
        return header.label, exit_block

    def _diamond(
        self,
        depth: int,
        quota: int,
        parent_window: List[Variable],
        parent_initialized: Set[Variable],
    ):
        window = self._window(parent_window, parent_initialized)
        initialized = {var for var in window if var in parent_initialized}
        cond_block = self._block(window, initialized)
        # The branch condition must be defined before the arms run.
        cond = self.rng.choice(sorted(initialized, key=str))
        # Each arm initializes independently; after the join only variables
        # defined on *both* paths count as initialized.
        then_initialized = set(initialized)
        else_initialized = set(initialized)
        then_entry, then_tail = self._chain(
            depth, max(1, quota // 2 - 1), window, then_initialized
        )
        else_entry, else_tail = self._chain(
            depth, max(1, quota // 2 - 1), window, else_initialized
        )
        initialized |= then_initialized & else_initialized
        join = self._block(window, initialized)
        cond_block.set_terminator(Branch(cond, then_entry, else_entry))
        then_tail.set_terminator(Jump(join.label))
        else_tail.set_terminator(Jump(join.label))
        return cond_block.label, join

    def build(self) -> Function:
        window = self._window()
        initialized: Set[Variable] = set()
        entry, tail = self._chain(0, max(1, self.spec.blocks - 1), window, initialized)
        tail.set_terminator(
            Return(self.rng.choice(sorted(initialized, key=str) or window))
        )
        assert self.function.entry_label == entry
        return self.function


def generate_stress_cfg(spec: CorpusSpec) -> Function:
    """Generate one deterministic stress CFG from its spec."""
    return _StressBuilder(spec).build()


# --------------------------------------------------------------------------- edits
def random_edit_batch(
    function: Function,
    seed: int = 0,
    copies: int = 12,
    splits: int = 4,
    renames: int = 2,
) -> EditLog:
    """Apply a materialization-shaped random edit batch; return its log.

    The batch mirrors what the out-of-SSA passes actually do to a function:

    * *copies inserted* — ``fresh = nearby`` into random blocks, the shape of
      Method I primed copies and sequentialization temporaries (a fresh
      destination: the passes never introduce new kill points for existing
      long-range variables);
    * *edges split* — the Figure 2 fallback;
    * *variables renamed* — a block-local variable renamed consistently at
      *every* occurrence (as congruence-class renaming does), each rewritten
      block logged.

    The function is edited *in place* and the returned
    :class:`~repro.ir.editlog.EditLog` describes every edit.
    """
    rng = random.Random(seed)
    log = EditLog()
    labels = list(function.blocks)

    def local_variables(label: str) -> List[Variable]:
        """Variables the block already works on — the paper's edits are
        φ-web-local, not random global names."""
        found: Dict[Variable, None] = {}
        for instruction in function.blocks[label].instructions():
            for var in instruction.defs():
                found.setdefault(var, None)
            for var in instruction.uses():
                found.setdefault(var, None)
        return list(found)

    for _ in range(copies):
        label = rng.choice(labels)
        block = function.blocks[label]
        # Copy a value at a point where it is manifestly available — right
        # after one of its occurrences — the way Method I copies a φ operand
        # where it is live.  (Reviving a long-dead name instead would be a
        # legitimate but unrepresentative function-wide liveness change.)
        occurrences = [
            (index, var)
            for index, instruction in enumerate(block.body)
            for var in list(instruction.defs()) + list(instruction.uses())
        ]
        dst = function.new_variable("patch")
        if occurrences:
            index, src = rng.choice(occurrences)
            block.body.insert(index + 1, Copy(dst, src))
        else:
            src = dst
            block.body.insert(0, Copy(dst, src))
        log.copy_inserted(label, dst, src)

    edges = function.edges()
    for _ in range(min(splits, len(edges))):
        source, target = rng.choice(edges)
        if target not in function.successors(source):
            continue  # an earlier split already rewired this edge
        new_block = function.split_edge(source, target)
        log.block_split(source, target, new_block.label)
        edges = function.edges()

    occurrence_blocks: Dict[Variable, List[str]] = {}
    for label in labels:
        for instruction in function.blocks[label].instructions():
            for var in instruction.defs():
                occurrence_blocks.setdefault(var, []).append(label)
            for var in instruction.uses():
                occurrence_blocks.setdefault(var, []).append(label)

    for _ in range(renames):
        if not labels:
            break
        candidates = local_variables(rng.choice(labels))
        if not candidates:
            continue
        # Congruence-class renames are φ-web-local: rename the candidate with
        # the fewest occurrence blocks, not an inherited long-range variable.
        old = min(candidates, key=lambda var: (len(occurrence_blocks.get(var, ())), str(var)))
        new = function.new_variable("rn")
        mapping = {old: new}
        for label in dict.fromkeys(occurrence_blocks.get(old, ())):
            block = function.blocks[label]
            changed = False
            for instruction in block.instructions():
                if old in instruction.uses() or old in instruction.defs():
                    instruction.replace_uses(mapping)
                    instruction.replace_defs(mapping)
                    changed = True
            if changed:
                log.block_rewritten(label, [old, new])
    return log


# --------------------------------------------------------------------------- ladder
def scaled_specs(
    sizes: Sequence[int],
    scale: float = 1.0,
    seed: int = 0,
    loop_depth: int = 5,
    variables: int = 12,
    irreducible: float = 0.0,
) -> List[CorpusSpec]:
    """Specs for the standard stress ladder, scaled for the environment."""
    specs = []
    for size in sizes:
        blocks = max(64, int(size * scale))
        specs.append(
            CorpusSpec(
                name="stress",
                seed=seed + size,
                blocks=blocks,
                loop_depth=loop_depth,
                variables=variables,
                irreducible=irreducible,
            )
        )
    return specs


#: Block counts of the standard ladder (1k–10k, the JIT-scale range).
STANDARD_SIZES = (1000, 2500, 5000, 10000)
