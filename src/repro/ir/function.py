"""Functions: the unit of compilation.

A :class:`Function` owns an ordered collection of basic blocks, a variable
namespace (for creating fresh names during copy insertion, sequentialization,
edge splitting, ...), the list of formal parameters, and the derived CFG
edges.  Predecessor maps are cached and invalidated whenever terminators or
blocks change.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.ir.block import BasicBlock
from repro.ir.instructions import (
    Instruction,
    Jump,
    Phi,
    Terminator,
    Variable,
)


class Function:
    """A function in the reproduction IR."""

    def __init__(self, name: str, params: Sequence[Variable] = ()) -> None:
        self.name = name
        self.params: List[Variable] = list(params)
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry_label: Optional[str] = None
        #: Structural generation: bumped on every CFG mutation (blocks added,
        #: terminators edited).  The :class:`~repro.pipeline.analysis.AnalysisCache`
        #: stamps every analysis with the generation it was computed at and
        #: refuses to serve one whose stamp is stale — the guard that turns a
        #: forgotten invalidation into a loud error instead of silent misuse.
        self.generation = 0
        self._preds: Optional[Dict[str, List[str]]] = None
        self._fresh_counter = 0
        self._known_names: set = {param.name for param in self.params}
        # Pinning constraints (register renaming constraints, §III-D): maps a
        # variable to the architectural register name it is pre-allocated to.
        self.pinned: Dict[Variable, str] = {}

    # -- block management ------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry_label is None:
            self.entry_label = label
        self.invalidate_cfg()
        return block

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError("function has no blocks")
        return self.blocks[self.entry_label]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __contains__(self, label: str) -> bool:
        return label in self.blocks

    # -- CFG edges --------------------------------------------------------------
    def invalidate_cfg(self) -> None:
        """Declare a CFG mutation (call after editing blocks or terminators).

        Drops the cached predecessor map and advances :attr:`generation`,
        which invalidates every generation-stamped analysis served through an
        analysis cache.  Read-only code that merely wants a fresh predecessor
        map (defensive validation) must use :meth:`refresh_cfg_cache` instead
        — this method asserts the function *changed*.
        """
        self.generation += 1
        self._preds = None

    def refresh_cfg_cache(self) -> None:
        """Drop the cached predecessor map *without* declaring a mutation.

        For read-only consumers that cannot trust the caller to have
        invalidated after its last edit; serving stale analyses is the
        caller's bug, a defensive re-read here must not turn into one.
        """
        self._preds = None

    def successors(self, label: str) -> List[str]:
        return self.blocks[label].successor_labels()

    def predecessors(self, label: str) -> List[str]:
        if self._preds is None:
            preds: Dict[str, List[str]] = {block_label: [] for block_label in self.blocks}
            for block in self.blocks.values():
                for successor in block.successor_labels():
                    if successor not in preds:
                        raise KeyError(
                            f"block {block.label!r} branches to unknown label {successor!r}"
                        )
                    preds[successor].append(block.label)
            self._preds = preds
        return self._preds[label]

    def edges(self) -> List[tuple]:
        """All CFG edges as ``(source_label, target_label)`` pairs."""
        result = []
        for block in self.blocks.values():
            for successor in block.successor_labels():
                result.append((block.label, successor))
        return result

    # -- variables ---------------------------------------------------------------
    def variables(self) -> List[Variable]:
        """All variables defined or used anywhere in the function (ordered)."""
        seen: Dict[Variable, None] = {}
        for param in self.params:
            seen.setdefault(param, None)
        for block in self.blocks.values():
            for instruction in block.instructions():
                for var in instruction.defs():
                    seen.setdefault(var, None)
                for var in instruction.uses():
                    seen.setdefault(var, None)
        return list(seen)

    def register_variable(self, var: Variable) -> Variable:
        """Record ``var``'s name so :meth:`new_variable` never collides with it."""
        self._known_names.add(var.name)
        return var

    def new_variable(self, hint: str = "t") -> Variable:
        """Create a variable with a fresh, unused name derived from ``hint``."""
        head, dot, tail = hint.rpartition(".")
        base = (head if dot and tail.isdecimal() else hint) or "t"
        while True:
            self._fresh_counter += 1
            name = f"{base}.{self._fresh_counter}"
            if name not in self._known_names:
                self._known_names.add(name)
                return Variable(name)

    def new_label(self, hint: str = "bb") -> str:
        """Create a fresh, unused block label derived from ``hint``."""
        counter = 0
        while True:
            counter += 1
            label = f"{hint}.{counter}"
            if label not in self.blocks:
                return label

    # -- convenience -------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions()

    def phis(self) -> Iterator[Phi]:
        for block in self.blocks.values():
            yield from block.phis

    def has_phis(self) -> bool:
        return any(block.phis for block in self.blocks.values())

    def pin(self, var: Variable, register: str) -> None:
        """Pre-allocate ``var`` to an architectural ``register`` (§III-D)."""
        self.pinned[var] = register

    def copy(self) -> "Function":
        """Deep-copy the function (used to compare engines on identical input)."""
        from repro.ir.parser import parse_function
        from repro.ir.printer import format_function

        clone = parse_function(format_function(self))
        clone.pinned = dict(self.pinned)
        clone._fresh_counter = self._fresh_counter
        return clone

    def __repr__(self) -> str:
        return f"Function({self.name!r}, blocks={len(self.blocks)})"

    # -- light structural edits ----------------------------------------------------
    def split_edge(self, source_label: str, target_label: str) -> BasicBlock:
        """Split the CFG edge ``source -> target`` by inserting a fresh block.

        The new block jumps unconditionally to ``target``; φ-functions of
        ``target`` are re-keyed to the new block.  Used both for critical-edge
        splitting and for the paper's Figure 2 fallback when copy insertion
        alone cannot isolate a φ (branch-with-decrement case).
        """
        source = self.blocks[source_label]
        if target_label not in source.successor_labels():
            raise ValueError(f"no edge {source_label!r} -> {target_label!r}")
        new_label = self.new_label(f"{source_label}_{target_label}")
        new_block = self.add_block(new_label)
        new_block.set_terminator(Jump(target_label))
        assert source.terminator is not None
        source.terminator.replace_target(target_label, new_label)
        for phi in self.blocks[target_label].phis:
            phi.rename_pred(source_label, new_label)
        self.invalidate_cfg()
        return new_block
