"""Parser for the textual IR syntax produced by :mod:`repro.ir.printer`.

The grammar (one instruction per line, ``#`` starts a comment)::

    function NAME(param, ...) {
      pin VAR REGISTER
      LABEL:
        x = phi [pred: value, ...]
        x = copy value
        x = OPCODE value, ...
        x = call NAME(value, ...)
        call NAME(value, ...)
        pcopy x <- value, y <- value [@entry|@exit]
        print value
        jump LABEL
        br value, LABEL, LABEL
        brdec VAR, LABEL, LABEL
        ret [value]
    }

Values are either variable names or integer literals.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    BrDec,
    Call,
    Constant,
    Copy,
    Jump,
    Op,
    Operand,
    ParallelCopy,
    Phi,
    Print,
    Return,
    Variable,
)


class ParseError(ValueError):
    """Raised on malformed textual IR."""

    def __init__(self, message: str, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number
        self.line = line


_IDENT = r"[A-Za-z_][A-Za-z_0-9.']*"
_FUNC_NAME = r"[A-Za-z_0-9.']+"
_HEADER_RE = re.compile(rf"^function\s+({_FUNC_NAME})\s*\(([^)]*)\)\s*{{$")
_LABEL_RE = re.compile(rf"^({_IDENT}):$")
_PIN_RE = re.compile(rf"^pin\s+({_IDENT})\s+(\S+)$")
# Callees share the *function-name* grammar (which admits leading digits, as
# in the suite's "164.gzip"-style names), not the variable grammar — a
# printed call must re-parse whatever the printed header accepted.
_CALL_RE = re.compile(rf"^(?:({_IDENT})\s*=\s*)?call\s+({_FUNC_NAME})\s*\(([^)]*)\)$")
_PHI_RE = re.compile(rf"^({_IDENT})\s*=\s*phi\s*\[(.*)\]$")
_ASSIGN_RE = re.compile(rf"^({_IDENT})\s*=\s*({_IDENT})\s*(.*)$")
# Operands (matched whole).
_INT_RE = re.compile(r"-?\d+")
_IDENT_RE = re.compile(_IDENT)

def _parse_value(token: str, function: Function) -> Operand:
    token = token.strip()
    if _INT_RE.fullmatch(token):
        return Constant(int(token))
    if _IDENT_RE.fullmatch(token):
        return function.register_variable(Variable(token))
    raise ValueError(f"bad operand {token!r}")


def _parse_values(text: str, function: Function) -> List[Operand]:
    text = text.strip()
    if not text:
        return []
    return [_parse_value(part, function) for part in text.split(",")]


def parse_function(text: str) -> Function:
    """Parse one function from ``text``.

    Every occurrence of a name is the same :class:`Variable` object, the one
    the intern table holds for that name (see :class:`Variable`).
    """
    function: Optional[Function] = None
    current: Optional[BasicBlock] = None
    closed = False

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if closed:
            raise ParseError("text after closing brace", line_number, raw_line)

        if function is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise ParseError("expected function header", line_number, raw_line)
            name, params_text = match.groups()
            function = Function(name)
            for param in params_text.split(","):
                param = param.strip()
                if param:
                    function.params.append(function.register_variable(Variable(param)))
            continue

        if line == "}":
            closed = True
            continue

        pin_match = _PIN_RE.match(line)
        if pin_match:
            var_name, register = pin_match.groups()
            function.pin(function.register_variable(Variable(var_name)), register)
            continue

        label_match = _LABEL_RE.match(line)
        if label_match:
            try:
                current = function.add_block(label_match.group(1))
            except ValueError as error:  # a duplicate label
                raise ParseError(str(error), line_number, raw_line) from error
            continue

        if current is None:
            raise ParseError("instruction outside of a block", line_number, raw_line)

        try:
            _parse_instruction(line, function, current)
        except ValueError as error:
            raise ParseError(str(error), line_number, raw_line) from error

    if function is None:
        raise ParseError("empty input", 0, "")
    if not closed:
        raise ParseError("missing closing brace", 0, "")
    function.invalidate_cfg()
    return function


def _parse_instruction(line: str, function: Function, block: BasicBlock) -> None:
    # Assignment forms are matched *before* the keyword forms: a destination
    # variable is allowed to shadow a keyword ("print = add a, b" assigns to
    # a variable named "print"), and every assignment line carries an "=" no
    # keyword form ever does, so the order is unambiguous.  Within the
    # assignment forms, calls and φs must precede the generic opcode match
    # ("x = call f()" / "x = phi [...]" would otherwise parse as plain ops).
    call_match = _CALL_RE.match(line)
    if call_match:
        dst_name, callee, args_text = call_match.groups()
        dst = function.register_variable(Variable(dst_name)) if dst_name else None
        block.append(Call(dst, callee, _parse_values(args_text, function)))
        return

    phi_match = _PHI_RE.match(line)
    if phi_match:
        dst_name, args_text = phi_match.groups()
        phi = Phi(function.register_variable(Variable(dst_name)))
        args_text = args_text.strip()
        if args_text:
            for part in args_text.split(","):
                if ":" not in part:
                    raise ValueError(f"bad phi argument {part!r}")
                label, value = part.split(":", 1)
                phi.set_arg(label.strip(), _parse_value(value, function))
        block.add_phi(phi)
        return

    assign_match = _ASSIGN_RE.match(line)
    if assign_match:
        dst_name, opcode, rest = assign_match.groups()
        dst = function.register_variable(Variable(dst_name))
        if opcode == "copy":
            block.append(Copy(dst, _parse_value(rest, function)))
        else:
            block.append(Op(dst, opcode, _parse_values(rest, function)))
        return

    # Parallel copies (with optional placement annotation).
    if line.startswith("pcopy"):
        placement = "body"
        body = line[len("pcopy"):].strip()
        if body.endswith("@entry"):
            placement = "entry"
            body = body[: -len("@entry")].strip()
        elif body.endswith("@exit"):
            placement = "exit"
            body = body[: -len("@exit")].strip()
        pcopy = ParallelCopy()
        if body:
            for pair in body.split(","):
                if "<-" not in pair:
                    raise ValueError(f"bad parallel copy component {pair!r}")
                dst_text, src_text = pair.split("<-")
                dst = function.register_variable(Variable(dst_text.strip()))
                pcopy.add(dst, _parse_value(src_text, function))
        if placement == "entry":
            block.entry_pcopy = pcopy
        elif placement == "exit":
            block.exit_pcopy = pcopy
        else:
            block.body.append(pcopy)
        return

    if line.startswith("print "):
        block.append(Print(_parse_value(line[len("print "):], function)))
        return

    if line.startswith("jump "):
        block.set_terminator(Jump(line[len("jump "):].strip()))
        return

    if line.startswith("br "):
        parts = [part.strip() for part in line[len("br "):].split(",")]
        if len(parts) != 3:
            raise ValueError("br expects 'cond, label, label'")
        block.set_terminator(Branch(_parse_value(parts[0], function), parts[1], parts[2]))
        return

    if line.startswith("brdec "):
        parts = [part.strip() for part in line[len("brdec "):].split(",")]
        if len(parts) != 3:
            raise ValueError("brdec expects 'counter, label, label'")
        counter = _parse_value(parts[0], function)
        if not isinstance(counter, Variable):
            raise ValueError("brdec counter must be a variable")
        block.set_terminator(BrDec(counter, parts[1], parts[2]))
        return

    if line == "ret":
        block.set_terminator(Return(None))
        return
    if line.startswith("ret "):
        block.set_terminator(Return(_parse_value(line[len("ret "):], function)))
        return

    raise ValueError("unrecognised instruction")
