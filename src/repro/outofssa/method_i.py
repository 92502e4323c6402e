"""Copy insertion around φ-functions (Sreedhar et al. Method I, paper §II-A).

For every φ-function ``a0 = φ(a1, ..., an)`` placed at the entry of block B0
with predecessors B1 ... Bn:

* fresh variables ``a'0, ..., a'n`` are created;
* ``a'i = ai`` is added to the *exit parallel copy* of Bi (i.e. just before
  Bi's terminator — the Figure 1 placement fix);
* ``a0 = a'0`` is added to the *entry parallel copy* of B0 (just after the
  φ-functions);
* the φ becomes ``a'0 = φ(a'1, ..., a'n)``.

By Lemma 1 of the paper the resulting program is in CSSA and the primed
variables of one φ never interfere, so they are pre-coalesced into a single
congruence class (the "φ-node").

The one situation where this is *impossible* is when a φ-argument is defined
by the predecessor's own terminator (branch-with-decrement, Figure 2): no copy
inserted before the terminator can split that live range.  Depending on
``on_branch_def`` the translator either splits the critical edge (inserting a
fresh block to host the copy, Figure 2(c)) or raises :class:`IsolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Tuple

from repro.ir.editlog import EditLog
from repro.ir.function import Function
from repro.ir.instructions import Constant, Operand, Phi, Variable


class IsolationError(Exception):
    """φ-isolation by copy insertion is impossible (branch defines the argument)."""

    def __init__(self, message: str, phi: Phi, pred_label: str) -> None:
        super().__init__(message)
        self.phi = phi
        self.pred_label = pred_label


@dataclass
class InsertedCopy:
    """One φ-related copy introduced by Method I."""

    dst: Variable
    src: Operand
    block: str            #: label of the block whose parallel copy holds it
    kind: str             #: "phi_arg" or "phi_result"
    phi: Phi               #: the φ-function it belongs to
    phi_block: str = ""    #: label of the block holding that φ-function


@dataclass
class PhiCopyInsertion:
    """Result of :func:`insert_phi_copies`."""

    copies: List[InsertedCopy] = field(default_factory=list)
    #: For each φ, the primed variables forming its pre-coalesced φ-node.
    phi_nodes: List[List[Variable]] = field(default_factory=list)
    #: Map from primed variable to the operand it copies (for value tracking).
    copy_sources: Dict[Variable, Operand] = field(default_factory=dict)
    #: Labels of blocks created by edge splitting (Figure 2 fallback).
    split_blocks: List[str] = field(default_factory=list)
    #: The split edges as ``(source, target, new_label)`` (same order as
    #: ``split_blocks``; kept separately for backward compatibility).
    split_edges: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def inserted_copy_count(self) -> int:
        return len(self.copies)

    def edit_log(self) -> EditLog:
        """The insertion, described as an :class:`~repro.ir.editlog.EditLog`.

        Every block that received a parallel-copy component is touched, every
        φ whose operands were primed makes its own block touched (its φ-defs
        changed), and edge splits contribute their three blocks.  The
        affected variables are the primed copies' two sides — which cover the
        original φ results and arguments.
        """
        log = EditLog()
        for source, target, new_label in self.split_edges:
            log.block_split(source, target, new_label)
        for copy in self.copies:
            log.copy_inserted(copy.block, copy.dst, copy.src)
            if copy.kind == "phi_arg" and copy.phi_block:
                # The φ's own block changed too: its argument was re-pointed
                # at the primed variable (copy.dst), so the original argument
                # lost its φ-edge use while the primed one gained it.
                involved = [copy.dst]
                if isinstance(copy.src, Variable):
                    involved.append(copy.src)
                log.block_rewritten(copy.phi_block, involved)
        return log


def _argument_defined_by_terminator(function: Function, pred_label: str, arg: Operand) -> bool:
    if not isinstance(arg, Variable):
        return False
    terminator = function.blocks[pred_label].terminator
    return terminator is not None and arg in terminator.defs()


def insert_phi_copies(
    function: Function,
    on_branch_def: Literal["split", "error"] = "split",
) -> PhiCopyInsertion:
    """Isolate every φ-function with parallel copies (Method I); in place."""
    result = PhiCopyInsertion()

    for block in list(function):
        if not block.phis:
            continue
        for phi in block.phis:
            primed_members: List[Variable] = []

            # Result copy: a0 = a'0, placed in the entry parallel copy of B0.
            original_dst = phi.dst
            primed_dst = function.new_variable(original_dst.name)
            entry_pcopy = block.get_entry_pcopy(create=True)
            entry_pcopy.add(original_dst, primed_dst)
            phi.dst = primed_dst
            primed_members.append(primed_dst)
            result.copies.append(
                InsertedCopy(dst=original_dst, src=primed_dst, block=block.label,
                             kind="phi_result", phi=phi, phi_block=block.label)
            )
            result.copy_sources[primed_dst] = primed_dst  # φ-def: its own value

            # Argument copies: a'i = ai, placed in the exit parallel copy of Bi.
            for pred_label in list(phi.args):
                arg = phi.args[pred_label]
                insertion_label = pred_label
                if _argument_defined_by_terminator(function, pred_label, arg):
                    if on_branch_def == "error":
                        raise IsolationError(
                            f"phi argument {arg} in block {block.label} is defined by the "
                            f"terminator of {pred_label}: copy insertion cannot split it",
                            phi, pred_label,
                        )
                    new_block = function.split_edge(pred_label, block.label)
                    result.split_blocks.append(new_block.label)
                    result.split_edges.append((pred_label, block.label, new_block.label))
                    insertion_label = new_block.label
                    # ``split_edge`` re-keyed the φ argument to the new block.
                    pred_label = new_block.label

                hint = arg.name if isinstance(arg, Variable) else original_dst.name
                primed_arg = function.new_variable(hint)
                exit_pcopy = function.blocks[insertion_label].get_exit_pcopy(create=True)
                exit_pcopy.add(primed_arg, arg)
                phi.set_arg(pred_label, primed_arg)
                primed_members.append(primed_arg)
                result.copies.append(
                    InsertedCopy(dst=primed_arg, src=arg, block=insertion_label,
                                 kind="phi_arg", phi=phi, phi_block=block.label)
                )
                result.copy_sources[primed_arg] = arg

            result.phi_nodes.append(primed_members)

    function.invalidate_cfg()
    return result
