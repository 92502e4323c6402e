"""The ``Pass`` protocol and the SSA front-half passes.

A pass is an object with a ``name``, a ``run(ctx)`` method mutating the
:class:`~repro.pipeline.pipeline.PipelineContext`, and a ``preserves``
declaration consumed by the :class:`~repro.pipeline.pipeline.PassManager`:

* ``preserves = PRESERVES_ALL`` — the pass is a pure analysis / bookkeeping
  step; every cached analysis stays valid;
* ``preserves = (DominatorTree, ...)`` — the pass transforms the function but
  keeps the listed analyses valid; everything else is invalidated after it
  runs;
* ``preserves = ()`` (the default) — the pass invalidates every analysis.

The concrete passes here wrap the existing SSA front half (construction,
value numbering, copy folding, dead-code elimination, calling-convention
pinning); the four out-of-SSA phases live in :mod:`repro.pipeline.phases`.
"""

from __future__ import annotations

from repro.cfg.dominance import DominatorTree
from repro.outofssa.pinning import apply_calling_convention
from repro.pipeline.analysis import BlockFrequencies
from repro.ssa.cleanup import remove_dead_code
from repro.ssa.construction import construct_ssa
from repro.ssa.copy_folding import fold_copies, value_number

#: Sentinel ``preserves`` value: the pass keeps every analysis valid.
PRESERVES_ALL = "all"


class Pass:
    """Base class (and structural protocol) for pipeline passes."""

    #: Short kebab-case identifier shown by ``Pipeline.describe()``.
    name: str = "pass"
    #: Analyses kept valid across this pass: :data:`PRESERVES_ALL` or a tuple
    #: of analysis types; the default (empty tuple) invalidates everything.
    preserves = ()

    def run(self, ctx) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionPass(Pass):
    """Adapter turning a plain ``transform(function)`` callable into a pass."""

    def __init__(self, transform, name=None, preserves=()):
        self.transform = transform
        self.name = name if name is not None else transform.__name__.replace("_", "-")
        self.preserves = preserves

    def run(self, ctx) -> None:
        self.transform(ctx.function)


# --------------------------------------------------------------------------- front half
class ConstructSSAPass(Pass):
    """Bring a non-SSA function to strict (pruned) SSA form."""

    name = "construct-ssa"
    preserves = ()  # renames every variable and inserts φs

    def run(self, ctx) -> None:
        construct_ssa(ctx.function)


class ValueNumberPass(Pass):
    """Dominator-order value numbering (makes the SSA non-conventional)."""

    name = "value-number"
    # Rewrites instructions in place; the CFG (hence dominators and block
    # frequencies) survives, variable-level analyses do not.
    preserves = (DominatorTree, BlockFrequencies)

    def run(self, ctx) -> None:
        value_number(ctx.function)


class FoldCopiesPass(Pass):
    """SSA copy folding (the second conventionality breaker)."""

    name = "fold-copies"
    preserves = (DominatorTree, BlockFrequencies)

    def run(self, ctx) -> None:
        fold_copies(ctx.function)


class RemoveDeadCodePass(Pass):
    """Dead-code elimination over the SSA def-use structure."""

    name = "remove-dead-code"
    preserves = (DominatorTree, BlockFrequencies)

    def run(self, ctx) -> None:
        remove_dead_code(ctx.function)


class CallingConventionPass(Pass):
    """Apply register-renaming (ABI) constraints around calls."""

    name = "calling-convention"
    preserves = (DominatorTree, BlockFrequencies)

    def run(self, ctx) -> None:
        apply_calling_convention(ctx.function)
