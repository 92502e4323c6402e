"""Structural edit logs over a function.

The out-of-SSA transformation passes (φ-isolation, materialization) edit the
program in small, local ways: parallel copies appear in a handful of blocks,
an occasional critical edge is split, congruence classes are renamed to their
representatives.  An :class:`EditLog` records those edits as data so that a
cached analysis can *patch* itself instead of being rebuilt from scratch —
today the liveness checker's per-variable caches
(:meth:`~repro.liveness.livecheck.LivenessChecker.apply_edits`) and the flat
arena (:meth:`~repro.ir.flat.FlatFunction.apply_edits`).

An edit carries exactly the two facts a per-variable analysis needs:

* ``touched_blocks`` — every block whose instruction list changed.  Cached
  per-block summaries (def/use rows) for any *other* block remain exact.
* ``affected_variables`` — every variable whose def/use structure may have
  changed anywhere.  Facts about any *other* variable remain exact, because
  liveness decomposes per variable.

The contract, relied on by every consumer: **a block whose instructions
mention an affected variable must be logged as touched** (a rename, for
example, rewrites those instructions, and the pass logs each rewritten
block).  Emission helpers live with the passes that mutate —
:meth:`repro.outofssa.method_i.PhiCopyInsertion.edit_log` and the
materialization logger in :mod:`repro.pipeline.phases`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.ir.instructions import Operand, Variable

#: Edit kinds (informational; consumers key on blocks/variables, not kinds).
COPY_INSERTED = "copy_inserted"
BLOCK_SPLIT = "block_split"
BLOCK_REWRITTEN = "block_rewritten"
VARIABLES_RENAMED = "variables_renamed"


@dataclass(frozen=True)
class CFGEdit:
    """One structural edit: which blocks it touched, which variables it affects."""

    kind: str
    blocks: Tuple[str, ...] = ()
    variables: Tuple[Variable, ...] = ()

    def __repr__(self) -> str:
        blocks = ", ".join(self.blocks)
        variables = ", ".join(str(var) for var in self.variables)
        return f"CFGEdit({self.kind}, blocks=[{blocks}], variables=[{variables}])"


class EditLog:
    """An append-only record of structural edits to one function."""

    def __init__(self) -> None:
        self.edits: List[CFGEdit] = []
        #: Labels of blocks *created* by the logged edits (they need fresh
        #: rows in row-per-block analyses, on top of being touched).
        self.new_blocks: List[str] = []

    # -- recording ------------------------------------------------------------
    def record(self, edit: CFGEdit) -> None:
        self.edits.append(edit)

    def copy_inserted(self, block: str, dst: Variable, src: Operand) -> None:
        """A copy ``dst = src`` was inserted somewhere in ``block``."""
        variables = (dst, src) if isinstance(src, Variable) else (dst,)
        self.record(CFGEdit(COPY_INSERTED, (block,), variables))

    def block_split(self, source: str, target: str, new_label: str) -> None:
        """The edge ``source -> target`` was split by inserting ``new_label``.

        ``source`` is touched (its terminator changed), ``new_label`` is new,
        and ``target`` is touched because its φ-functions were re-keyed to the
        new predecessor.
        """
        self.new_blocks.append(new_label)
        self.record(CFGEdit(BLOCK_SPLIT, (source, new_label, target)))

    def block_rewritten(self, block: str, variables: Iterable[Variable]) -> None:
        """Instructions of ``block`` changed in place, involving ``variables``
        (old and new names both, for a rename)."""
        self.record(CFGEdit(BLOCK_REWRITTEN, (block,), tuple(variables)))

    def variables_renamed(self, mapping: Dict[Variable, Variable]) -> None:
        """A rename was applied; the rewritten blocks are logged separately
        (one :func:`block_rewritten` per block), this edit only widens the
        affected-variable set with both sides of the mapping."""
        self.record(
            CFGEdit(VARIABLES_RENAMED, (), tuple(mapping) + tuple(mapping.values()))
        )

    # -- consumption ----------------------------------------------------------
    def touched_blocks(self) -> Set[str]:
        """Every block whose instruction list changed (new blocks included)."""
        touched: Set[str] = set()
        for edit in self.edits:
            touched.update(edit.blocks)
        return touched

    def affected_variables(self) -> List[Variable]:
        """Variables whose def/use structure may have changed (deduplicated,
        first-mention order)."""
        seen: Dict[Variable, None] = {}
        for edit in self.edits:
            for var in edit.variables:
                seen.setdefault(var, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.edits)

    def __bool__(self) -> bool:
        return bool(self.edits)

    def __iter__(self):
        return iter(self.edits)

    def __repr__(self) -> str:
        return (
            f"EditLog({len(self.edits)} edits, "
            f"{len(self.touched_blocks())} blocks touched)"
        )
