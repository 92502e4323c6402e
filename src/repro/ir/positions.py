"""Program points: a total order of positions inside each basic block.

Liveness queries, live-range intersection tests, and the dominance-order
sorting of congruence classes all reason about *where* in a block a definition
or use happens.  The schedule below assigns every instruction of a block an
integer index:

====================  =====
φ-functions           0      (all of them: φs execute in parallel)
entry parallel copy   1
body instruction i    2 + i
exit parallel copy    2 + len(body)
terminator            3 + len(body)
edge / live-out       4 + len(body)  (pseudo-point where φ-uses of successors read)
====================  =====

φ-function arguments are *not* uses inside the φ's own block: following the
standard SSA convention (and the paper's parallel-copy semantics) the argument
coming from predecessor ``P`` is read "on the edge", i.e. at the pseudo-point
``EDGE`` of ``P``, after ``P``'s exit parallel copy and terminator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi, Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cfg.dominance import DominatorTree

PHI_INDEX = 0
ENTRY_PCOPY_INDEX = 1
BODY_START_INDEX = 2


def body_index(block: BasicBlock, position: int) -> int:
    """Index of the ``position``-th body instruction of ``block``."""
    return BODY_START_INDEX + position


def exit_pcopy_index(block: BasicBlock) -> int:
    return BODY_START_INDEX + len(block.body)


def terminator_index(block: BasicBlock) -> int:
    return BODY_START_INDEX + len(block.body) + 1


def edge_index(block: BasicBlock) -> int:
    """Pseudo-index representing the out-edges of ``block`` (φ-argument reads)."""
    return BODY_START_INDEX + len(block.body) + 2


class ProgramPoint:
    """A (block label, index) pair, optionally carrying the instruction itself."""

    __slots__ = ("block", "index", "instruction")

    def __init__(self, block: str, index: int, instruction: Optional[Instruction] = None) -> None:
        self.block = block
        self.index = index
        self.instruction = instruction

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProgramPoint)
            and self.block == other.block
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.block, self.index))

    def __repr__(self) -> str:
        return f"ProgramPoint({self.block}, {self.index})"

    def key(self) -> Tuple[str, int]:
        return (self.block, self.index)

    def dominates(self, other: "ProgramPoint", domtree: "DominatorTree") -> bool:
        """Does this point dominate ``other``?

        Inside one block the schedule order decides; across blocks the block
        dominance relation decides.  A point is considered to dominate itself
        and any later point of the same block.
        """
        if self.block == other.block:
            return self.index <= other.index
        return domtree.dominates(self.block, other.block)

    def strictly_before(self, other: "ProgramPoint", domtree: "DominatorTree") -> bool:
        if self.block == other.block:
            return self.index < other.index
        return domtree.strictly_dominates(self.block, other.block)


def block_schedule(block: BasicBlock) -> List[Tuple[int, Instruction]]:
    """All (index, instruction) pairs of ``block`` in schedule order."""
    schedule: List[Tuple[int, Instruction]] = []
    for phi in block.phis:
        schedule.append((PHI_INDEX, phi))
    if block.entry_pcopy is not None:
        schedule.append((ENTRY_PCOPY_INDEX, block.entry_pcopy))
    for position, instruction in enumerate(block.body):
        schedule.append((body_index(block, position), instruction))
    if block.exit_pcopy is not None:
        schedule.append((exit_pcopy_index(block), block.exit_pcopy))
    if block.terminator is not None:
        schedule.append((terminator_index(block), block.terminator))
    return schedule


def definition_points(function: Function) -> Dict[Variable, ProgramPoint]:
    """Map every variable to the program point of its (first) definition.

    Function parameters are defined at a virtual point before the entry
    block's first instruction (index ``-1``).
    """
    points: Dict[Variable, ProgramPoint] = {}
    entry_label = function.entry_label
    assert entry_label is not None
    for param in function.params:
        points[param] = ProgramPoint(entry_label, -1, None)
    for block in function:
        for index, instruction in block_schedule(block):
            for var in instruction.defs():
                points.setdefault(var, ProgramPoint(block.label, index, instruction))
    return points


def use_points(function: Function) -> Dict[Variable, List[ProgramPoint]]:
    """Map every variable to the list of program points where it is used.

    φ-arguments are attributed to the *edge point* of the corresponding
    predecessor block (see module docstring).
    """
    uses: Dict[Variable, List[ProgramPoint]] = {}
    for block in function:
        for index, instruction in block_schedule(block):
            if isinstance(instruction, Phi):
                continue
            for var in instruction.uses():
                uses.setdefault(var, []).append(ProgramPoint(block.label, index, instruction))
        for phi in block.phis:
            for pred_label, arg in phi.args.items():
                if isinstance(arg, Variable):
                    pred_block = function.blocks[pred_label]
                    uses.setdefault(arg, []).append(
                        ProgramPoint(pred_label, edge_index(pred_block), phi)
                    )
    return uses


class DefUseIndex:
    """Every definition and use position of a function, from one walk.

    The out-of-SSA analyses all start from the same facts: which variables
    the function mentions, where each is defined and used, and which are
    defined more than once.  This index gathers them in a single pass over
    the blocks (schedule indices are computed inline, no
    :func:`block_schedule` lists), so the
    :class:`~repro.pipeline.analysis.AnalysisCache` can serve one instance to
    the flat arena, the liveness oracles, the intersection oracle, the
    congruence classes and the SSA value table.

    The index is also the translation's one variable numbering: a variable's
    *id* is its position in ``variables``.  Bit ``i`` of a bit-set liveness
    row, of an arena mask and of an interference-matrix scan, and entry ``i``
    of the intersection oracle's definition rows and of the congruence
    classes' tables, all mean ``variables[i]``.

    * ``variables`` — in :meth:`Function.variables` order (parameters, then
      each instruction's defs before its uses), followed by the pinned
      variables no instruction mentions;
    * ``ids`` — ``variable -> id``, the inverse of ``variables``;
    * ``def_points`` — as :func:`definition_points` (a
      :class:`ProgramPoint` carrying the defining instruction);
    * ``use_points`` — as :func:`use_points`, but each use is a plain
      ``(block, index)`` pair (φ-arguments at the predecessor's edge point);
    * ``last_use`` — ``(variable, block) -> index`` of the block's latest use;
    * ``multiply_defined`` — variables defined by more than one instruction.

    >>> from repro.ir.parser import parse_function
    >>> function = parse_function('''
    ... function count(n) {
    ...   entry:
    ...     i = copy n
    ...     jump loop
    ...   loop:
    ...     j = phi [entry: i, loop: k]
    ...     k = add j, n
    ...     brdec i, loop, done
    ...   done:
    ...     ret k
    ... }''')
    >>> index = DefUseIndex(function)
    >>> index.variables == function.variables()
    True
    >>> index.ids[Variable("k")], index.variables[3], len(index.variables)
    (3, Variable('k'), 4)
    >>> Variable("ghost") in index.ids    # not in the function
    False
    >>> index.def_points[Variable("k")]
    ProgramPoint(loop, 2)
    >>> index.use_points[Variable("k")]    # the φ reads it on loop's edge
    [('loop', 5), ('done', 3)]
    >>> index.last_use[(Variable("i"), "loop")]    # brdec, the terminator
    4
    >>> index.multiply_defined    # the copy and the brdec
    {Variable('i')}
    """

    __slots__ = ("variables", "ids", "def_points", "use_points", "last_use", "multiply_defined")

    def __init__(self, function: Function) -> None:
        seen: Dict[Variable, None] = {}
        def_points: Dict[Variable, ProgramPoint] = {}
        use_points: Dict[Variable, List[Tuple[str, int]]] = {}
        last_use: Dict[Tuple[Variable, str], int] = {}
        defined: Set[Variable] = set()
        multiply_defined: Set[Variable] = set()
        blocks = function.blocks

        def define(var: Variable, label: str, index: int, instruction: Instruction) -> None:
            seen[var] = None
            if var in defined:
                multiply_defined.add(var)
                return
            defined.add(var)
            if var not in def_points:
                def_points[var] = ProgramPoint(label, index, instruction)

        def use(var: Variable, label: str, index: int) -> None:
            points = use_points.get(var)
            if points is None:
                use_points[var] = [(label, index)]
            else:
                points.append((label, index))
            key = (var, label)
            if last_use.get(key, -1) < index:
                last_use[key] = index

        def visit(label: str, index: int, instruction: Instruction) -> None:
            for var in instruction.defs():
                define(var, label, index, instruction)
            for var in instruction.uses():
                seen[var] = None
                use(var, label, index)

        entry_label = function.entry_label
        assert entry_label is not None
        for param in function.params:
            seen[param] = None
            def_points[param] = ProgramPoint(entry_label, -1, None)

        for label, block in blocks.items():
            phis = block.phis
            for phi in phis:
                define(phi.dst, label, PHI_INDEX, phi)
                for arg in phi.args.values():
                    if isinstance(arg, Variable):
                        seen[arg] = None
            if block.entry_pcopy is not None:
                visit(label, ENTRY_PCOPY_INDEX, block.entry_pcopy)
            index = BODY_START_INDEX
            for instruction in block.body:
                visit(label, index, instruction)
                index += 1
            if block.exit_pcopy is not None:
                visit(label, index, block.exit_pcopy)
            if block.terminator is not None:
                visit(label, index + 1, block.terminator)
            for phi in phis:
                for pred_label, arg in phi.args.items():
                    if isinstance(arg, Variable):
                        use(arg, pred_label, edge_index(blocks[pred_label]))

        # A pin can outlive the code it constrained (the optimizer deletes a
        # dead pinned definition) or name a variable no instruction mentions;
        # such a variable still joins its register's congruence class.
        for var in function.pinned:
            seen[var] = None

        self.variables: List[Variable] = list(seen)
        self.ids: Dict[Variable, int] = dict(zip(seen, range(len(seen))))
        self.def_points = def_points
        self.use_points = use_points
        self.last_use = last_use
        self.multiply_defined = multiply_defined
