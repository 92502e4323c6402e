"""Instruction set of the reproduction IR.

Design notes
------------
* Every instruction exposes ``defs()`` and ``uses()`` so that the analyses
  (liveness, interference, coalescing) never need to know the concrete
  instruction kinds.
* ``ParallelCopy`` is a first-class instruction: the paper argues that keeping
  the φ-copy semantics *parallel* until the very end (Section III-C) both
  simplifies liveness bookkeeping and frees the coalescer from artificial
  ordering interferences.  Sequentialization back to plain ``Copy`` chains is
  performed by :mod:`repro.outofssa.parallel_copy` (the paper's Algorithm 1).
* ``Branch`` *uses* its condition variable and ``BrDec`` both *uses and
  defines* its counter.  These two terminators reproduce the correctness
  pitfalls of the paper's Figures 1 and 2: copies "at the end of a block" must
  actually be placed *before* the terminator, and a terminator that defines a
  variable can make φ-isolation by copy insertion impossible.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


class Variable:
    """An IR variable (virtual register), interned by name.

    ``Variable(name)`` returns the one live object for ``name``, so name
    equality *is* object identity: ``==`` and hashing are the C-level
    ``object`` defaults, and every Variable-keyed dict or set lookup runs
    without a Python call.  Hashes follow object addresses, not names.
    ``name`` is set once, when the object is made, and never reassigned.
    """

    __slots__ = ("name", "__weakref__")

    name: str

    def __new__(cls, name: str) -> "Variable":
        ref = _INTERNED.get(name)
        if ref is not None:
            var = ref()
            if var is not None:
                return var
        if not name:
            raise ValueError("variable name must be non-empty")
        with _INTERN_LOCK:
            ref = _INTERNED.get(name)
            var = ref() if ref is not None else None
            if var is None:
                var = object.__new__(cls)
                object.__setattr__(var, "name", name)
                ref = _INTERNED[name] = _NameRef(var, _forget)
                ref.name = name
            return var

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Variable {self.name!r} is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[str]]:
        # copy, deepcopy and pickle go back through the intern table.
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class _NameRef(weakref.ref):
    """A weak reference to an interned :class:`Variable` that remembers its name."""

    __slots__ = ("name",)


def _forget(ref: _NameRef) -> None:
    """Drop a dead Variable's table entry, unless its name was interned anew."""
    with _INTERN_LOCK:
        if _INTERNED.get(ref.name) is ref:
            del _INTERNED[ref.name]


#: The intern table: name -> weak reference to the live Variable.  Reads take
#: no lock; creation and removal do.  The lock is re-entrant because a garbage
#: collection inside ``Variable.__new__`` can run ``_forget`` on that thread.
_INTERNED: Dict[str, _NameRef] = {}
_INTERN_LOCK = threading.RLock()


class Constant:
    """An integer literal operand."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return f"Constant({self.value})"

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[Variable, Constant]


def _as_operand(value: Union[Operand, int]) -> Operand:
    """Accept raw ints wherever an operand is expected (builder convenience)."""
    if isinstance(value, int):
        return Constant(value)
    if isinstance(value, (Variable, Constant)):
        return value
    raise TypeError(f"not an operand: {value!r}")


class Instruction:
    """Base class for all instructions."""

    __slots__ = ()

    def defs(self) -> List[Variable]:
        """Variables defined (written) by this instruction."""
        return []

    def uses(self) -> List[Variable]:
        """Variables used (read) by this instruction, φ-operands included."""
        return []

    def operands(self) -> List[Operand]:
        """All value operands (variables and constants) read by the instruction."""
        return list(self.uses())

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        """Rewrite used variables according to ``mapping`` (in place)."""
        raise NotImplementedError

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        """Rewrite defined variables according to ``mapping`` (in place)."""
        raise NotImplementedError

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, Terminator)


def _subst(operand: Operand, mapping: Dict[Variable, Operand]) -> Operand:
    if isinstance(operand, Variable) and operand in mapping:
        return mapping[operand]
    return operand


def _subst_var(var: Variable, mapping: Dict[Variable, Variable]) -> Variable:
    return mapping.get(var, var)


class Op(Instruction):
    """A generic computation ``dst = opcode(operand, ...)``.

    The interpreter gives meaning to the opcodes listed in
    :data:`repro.interp.interpreter.OPCODES`; analyses treat ``Op`` opaquely
    through ``defs()``/``uses()``.
    """

    __slots__ = ("dst", "opcode", "args")

    def __init__(self, dst: Variable, opcode: str, args: Sequence[Union[Operand, int]] = ()) -> None:
        self.dst = dst
        self.opcode = opcode
        self.args: List[Operand] = [_as_operand(arg) for arg in args]

    def defs(self) -> List[Variable]:
        return [self.dst]

    def uses(self) -> List[Variable]:
        return [arg for arg in self.args if isinstance(arg, Variable)]

    def operands(self) -> List[Operand]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.args = [_subst(arg, mapping) for arg in self.args]

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        self.dst = _subst_var(self.dst, mapping)

    def __repr__(self) -> str:
        return f"Op({self.dst} = {self.opcode} {', '.join(map(str, self.args))})"


class Copy(Instruction):
    """A plain sequential copy ``dst = src``."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: Variable, src: Union[Operand, int]) -> None:
        self.dst = dst
        self.src: Operand = _as_operand(src)

    def defs(self) -> List[Variable]:
        return [self.dst]

    def uses(self) -> List[Variable]:
        return [self.src] if isinstance(self.src, Variable) else []

    def operands(self) -> List[Operand]:
        return [self.src]

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.src = _subst(self.src, mapping)

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        self.dst = _subst_var(self.dst, mapping)

    def __repr__(self) -> str:
        return f"Copy({self.dst} = {self.src})"


class ParallelCopy(Instruction):
    """A parallel copy ``(d1, ..., dk) = (s1, ..., sk)``.

    All sources are read before any destination is written.  Destinations must
    be pairwise distinct; duplicated destinations with sources of equal SSA
    value are resolved by the coalescer before sequentialization.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Optional[Iterable[Tuple[Variable, Union[Operand, int]]]] = None) -> None:
        self.pairs: List[Tuple[Variable, Operand]] = []
        if pairs is not None:
            for dst, src in pairs:
                self.add(dst, src)

    def add(self, dst: Variable, src: Union[Operand, int]) -> None:
        """Append the copy ``dst = src`` to the parallel group."""
        src_op = _as_operand(src)
        for existing_dst, _ in self.pairs:
            if existing_dst == dst:
                raise ValueError(f"parallel copy already defines {dst}")
        self.pairs.append((dst, src_op))

    def remove(self, dst: Variable) -> None:
        """Drop the component defining ``dst``."""
        self.pairs = [(d, s) for d, s in self.pairs if d != dst]

    def defs(self) -> List[Variable]:
        return [dst for dst, _ in self.pairs]

    def uses(self) -> List[Variable]:
        return [src for _, src in self.pairs if isinstance(src, Variable)]

    def operands(self) -> List[Operand]:
        return [src for _, src in self.pairs]

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.pairs = [(dst, _subst(src, mapping)) for dst, src in self.pairs]

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        self.pairs = [(_subst_var(dst, mapping), src) for dst, src in self.pairs]

    def is_empty(self) -> bool:
        return not self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"{dst} = {src}" for dst, src in self.pairs)
        return f"ParallelCopy({body})"


class Phi(Instruction):
    """A φ-function ``dst = φ(label1: v1, ..., labeln: vn)``.

    Arguments are keyed by the *label* of the predecessor block they flow
    from, which keeps the instruction valid under block re-ordering.
    """

    __slots__ = ("dst", "args")

    def __init__(self, dst: Variable, args: Optional[Dict[str, Union[Operand, int]]] = None) -> None:
        self.dst = dst
        self.args: Dict[str, Operand] = {}
        if args:
            for label, value in args.items():
                self.args[label] = _as_operand(value)

    def set_arg(self, pred_label: str, value: Union[Operand, int]) -> None:
        self.args[pred_label] = _as_operand(value)

    def arg_for(self, pred_label: str) -> Operand:
        return self.args[pred_label]

    def defs(self) -> List[Variable]:
        return [self.dst]

    def uses(self) -> List[Variable]:
        return [arg for arg in self.args.values() if isinstance(arg, Variable)]

    def operands(self) -> List[Operand]:
        return list(self.args.values())

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.args = {label: _subst(arg, mapping) for label, arg in self.args.items()}

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        self.dst = _subst_var(self.dst, mapping)

    def rename_pred(self, old_label: str, new_label: str) -> None:
        """Re-key an argument when a predecessor block is renamed/split."""
        if old_label in self.args:
            self.args[new_label] = self.args.pop(old_label)

    def __repr__(self) -> str:
        body = ", ".join(f"{label}: {arg}" for label, arg in self.args.items())
        return f"Phi({self.dst} = phi({body}))"


class Call(Instruction):
    """A call ``dst = call name(args...)``; ``dst`` may be ``None``.

    Calls are the source of register renaming constraints in the paper
    (calling conventions pin arguments and results to architectural
    registers); see :mod:`repro.outofssa.pinning`.
    """

    __slots__ = ("dst", "callee", "args")

    def __init__(self, dst: Optional[Variable], callee: str, args: Sequence[Union[Operand, int]] = ()) -> None:
        self.dst = dst
        self.callee = callee
        self.args: List[Operand] = [_as_operand(arg) for arg in args]

    def defs(self) -> List[Variable]:
        return [self.dst] if self.dst is not None else []

    def uses(self) -> List[Variable]:
        return [arg for arg in self.args if isinstance(arg, Variable)]

    def operands(self) -> List[Operand]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.args = [_subst(arg, mapping) for arg in self.args]

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        if self.dst is not None:
            self.dst = _subst_var(self.dst, mapping)

    def __repr__(self) -> str:
        dst = f"{self.dst} = " if self.dst is not None else ""
        return f"Call({dst}{self.callee}({', '.join(map(str, self.args))}))"


class Print(Instruction):
    """An observable side effect; the interpreter records printed values.

    Semantic-preservation tests compare the print trace of a program before
    and after out-of-SSA translation, so sprinkling ``Print`` over generated
    workloads makes miscompilations (lost copies, swapped values) visible.
    """

    __slots__ = ("value",)

    def __init__(self, value: Union[Operand, int]) -> None:
        self.value: Operand = _as_operand(value)

    def uses(self) -> List[Variable]:
        return [self.value] if isinstance(self.value, Variable) else []

    def operands(self) -> List[Operand]:
        return [self.value]

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.value = _subst(self.value, mapping)

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        pass

    def __repr__(self) -> str:
        return f"Print({self.value})"


class Terminator(Instruction):
    """Base class of block terminators."""

    __slots__ = ()

    def targets(self) -> List[str]:
        """Labels of the successor blocks, in branch order."""
        return []

    def replace_target(self, old_label: str, new_label: str) -> None:
        """Redirect an outgoing edge (used by critical-edge splitting)."""
        raise NotImplementedError


class Jump(Terminator):
    """An unconditional jump."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        self.target = target

    def targets(self) -> List[str]:
        return [self.target]

    def replace_target(self, old_label: str, new_label: str) -> None:
        if self.target == old_label:
            self.target = new_label

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        pass

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        pass

    def __repr__(self) -> str:
        return f"Jump({self.target})"


class Branch(Terminator):
    """A conditional branch ``br cond, if_true, if_false``.

    The branch *uses* ``cond``: this is the Figure 1 subtlety — copies placed
    "at the end" of the block actually go before this use, so correctness
    checks must consider ``cond`` live across the copy point.
    """

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Union[Operand, int], if_true: str, if_false: str) -> None:
        self.cond: Operand = _as_operand(cond)
        self.if_true = if_true
        self.if_false = if_false

    def targets(self) -> List[str]:
        return [self.if_true, self.if_false]

    def replace_target(self, old_label: str, new_label: str) -> None:
        if self.if_true == old_label:
            self.if_true = new_label
        if self.if_false == old_label:
            self.if_false = new_label

    def uses(self) -> List[Variable]:
        return [self.cond] if isinstance(self.cond, Variable) else []

    def operands(self) -> List[Operand]:
        return [self.cond]

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        self.cond = _subst(self.cond, mapping)

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        pass

    def __repr__(self) -> str:
        return f"Branch({self.cond}, {self.if_true}, {self.if_false})"


class BrDec(Terminator):
    """Branch-with-decrement (hardware-loop style), the paper's Figure 2 case.

    Semantics: ``counter = counter - 1; if counter != 0 goto taken else exit``.
    The counter is both used and defined *by the terminator itself*, so its
    live range cannot be split by inserting a copy at the end of the block:
    out-of-SSA translation by copy insertion alone may be impossible and edge
    splitting is required (see :class:`repro.outofssa.method_i.IsolationError`).
    """

    __slots__ = ("counter", "taken", "exit")

    def __init__(self, counter: Variable, taken: str, exit_label: str) -> None:
        if not isinstance(counter, Variable):
            raise TypeError("BrDec counter must be a variable")
        self.counter = counter
        self.taken = taken
        self.exit = exit_label

    def targets(self) -> List[str]:
        return [self.taken, self.exit]

    def replace_target(self, old_label: str, new_label: str) -> None:
        if self.taken == old_label:
            self.taken = new_label
        if self.exit == old_label:
            self.exit = new_label

    def defs(self) -> List[Variable]:
        return [self.counter]

    def uses(self) -> List[Variable]:
        return [self.counter]

    def operands(self) -> List[Operand]:
        return [self.counter]

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        replacement = mapping.get(self.counter)
        if replacement is not None:
            if not isinstance(replacement, Variable):
                raise TypeError("BrDec counter cannot be replaced by a constant")
            self.counter = replacement

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        self.counter = _subst_var(self.counter, mapping)

    def __repr__(self) -> str:
        return f"BrDec({self.counter}, {self.taken}, {self.exit})"


class Return(Terminator):
    """Function return, with an optional value."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[Union[Operand, int]] = None) -> None:
        self.value: Optional[Operand] = _as_operand(value) if value is not None else None

    def uses(self) -> List[Variable]:
        return [self.value] if isinstance(self.value, Variable) else []

    def operands(self) -> List[Operand]:
        return [self.value] if self.value is not None else []

    def replace_uses(self, mapping: Dict[Variable, Operand]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)

    def replace_defs(self, mapping: Dict[Variable, Variable]) -> None:
        pass

    def __repr__(self) -> str:
        return f"Return({self.value})"
