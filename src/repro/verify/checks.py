"""The checker passes of the verification framework.

Every checker is a pure function returning a list of
:class:`~repro.verify.diagnostics.Diagnostic` values — no checker raises on a
finding, and none mutates the function or any analysis it is handed.  The
:class:`~repro.verify.stages.PipelineVerifier` sequences them between
pipeline phases; :mod:`repro.ir.validate` re-exposes the structural and SSA
checkers through its historical raising wrappers.

Imports deliberately target the ``repro.ir`` *submodules* (never the package)
so that :mod:`repro.ir.validate` can import this module lazily without a
package cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    BrDec,
    Constant,
    Copy,
    Instruction,
    Operand,
    ParallelCopy,
    Phi,
    Terminator,
    Variable,
)
from repro.verify.diagnostics import Diagnostic, diagnostic


# --------------------------------------------------------------------------- V10x structural
def check_structure(function: Function, stage: str = "input") -> List[Diagnostic]:
    """Structural IR invariants (the collecting form of ``validate_function``).

    The message text of each finding matches the historical
    :func:`repro.ir.validate.validate_function` wording exactly (minus the
    ``function:block`` prefix, which lives in the diagnostic's anchors), so
    the raising shim reconstructs byte-identical errors.
    """
    name = function.name
    found: List[Diagnostic] = []

    def emit(code: str, message: str, block: Optional[str] = None,
             instruction: Optional[str] = None) -> None:
        found.append(diagnostic(
            code, message, function=name, block=block,
            instruction=instruction, stage=stage,
        ))

    if not function.blocks:
        emit("V101", "function has no blocks")
    if function.blocks and function.entry_label not in function.blocks:
        emit("V102", f"entry label {function.entry_label!r} missing")

    for block in function:
        if block.terminator is None:
            emit("V103", "missing terminator", block=block.label)
        else:
            for target in block.terminator.targets():
                if target not in function.blocks:
                    emit("V104", f"branch to unknown block {target!r}",
                         block=block.label)
        for instruction in block.body:
            if isinstance(instruction, (Phi, Terminator)):
                emit("V105", f"{instruction!r} may not appear in a block body",
                     block=block.label, instruction=repr(instruction))

    # The CFG-derived checks (φ coverage, entry predecessors) need a sane
    # block map; with unknown branch targets or a missing entry, computing
    # predecessors is undefined — exactly where the raising wrapper stopped.
    if any(diag.code in ("V101", "V102", "V104") for diag in found):
        return found

    # φ arguments must exactly cover the predecessors.  Validation is
    # read-only: refresh the predecessor cache defensively, but do not
    # advance the structural generation (that would spuriously invalidate
    # generation-stamped analyses of an unchanged function).
    function.refresh_cfg_cache()
    for block in function:
        if not block.phis:
            continue
        preds = set(function.predecessors(block.label))
        if not preds:
            emit("V106", "phi-functions in a block with no predecessors",
                 block=block.label)
            continue
        for phi in block.phis:
            labels = set(phi.args)
            if labels != preds:
                emit("V107",
                     f"phi {phi.dst} arguments {sorted(labels)} "
                     f"do not match predecessors {sorted(preds)}",
                     block=block.label, instruction=repr(phi))

    if function.predecessors(function.entry_label):
        emit("V108", f"entry block {function.entry_label!r} has predecessors")
    return found


# --------------------------------------------------------------------------- V2xx strict SSA
def reachable_blocks(function: Function) -> Set[str]:
    """Labels reachable from the entry block (terminator edges only)."""
    if function.entry_label not in function.blocks:
        return set()
    seen: Set[str] = {function.entry_label}
    worklist = [function.entry_label]
    while worklist:
        label = worklist.pop()
        terminator = function.blocks[label].terminator
        if terminator is None:
            continue
        for target in terminator.targets():
            if target in function.blocks and target not in seen:
                seen.add(target)
                worklist.append(target)
    return seen


def _definition_sites(function: Function) -> Dict[Variable, List[Tuple[str, Instruction]]]:
    sites: Dict[Variable, List[Tuple[str, Instruction]]] = {}
    for block in function:
        for instruction in block.instructions():
            for var in instruction.defs():
                sites.setdefault(var, []).append((block.label, instruction))
    return sites


def check_ssa(
    function: Function,
    allow_counter_redefinition: bool = True,
    stage: str = "input",
) -> List[Diagnostic]:
    """Strict SSA form: single defs plus the dominance property.

    Structural sanity is assumed (run :func:`check_structure` first).  Uses
    inside *unreachable* blocks are reported as warning-level ``V204``
    findings and excluded from the def-dominates-use check: the dominator
    tree carries no information about unreachable blocks, so the historical
    behaviour — failing the dominance test for every such use — conflated
    dead code with genuine SSA violations.
    """
    from repro.cfg.dominance import DominatorTree  # local import: avoid package cycle
    from repro.ir.positions import definition_point, use_points

    name = function.name
    found: List[Diagnostic] = []
    sites = _definition_sites(function)
    params = set(function.params)

    # Single assignment.
    for var, var_sites in sites.items():
        non_counter_sites = [
            site for site in var_sites
            if not (allow_counter_redefinition and isinstance(site[1], BrDec))
        ]
        limit = 0 if var in params else 1
        if len(non_counter_sites) > limit:
            found.append(diagnostic(
                "V201", f"variable {var} has {len(var_sites)} definitions",
                function=name, block=non_counter_sites[0][0], stage=stage,
            ))

    # Dominance property: each use is dominated by its definition.
    reachable = reachable_blocks(function)
    domtree = DominatorTree(function)
    def_points = {var: definition_point(function, var) for var in sites}
    unreachable_uses: Dict[str, List[Variable]] = {}
    for var, uses in use_points(function).items():
        if var in params:
            continue  # parameters are defined at the (virtual) function entry
        unreachable_here = [use for use in uses if use.block not in reachable]
        for use in unreachable_here:
            unreachable_uses.setdefault(use.block, []).append(var)
        uses = [use for use in uses if use.block in reachable]
        def_point = def_points.get(var)
        if def_point is None:
            if uses:
                found.append(diagnostic(
                    "V202", f"variable {var} used but never defined",
                    function=name, stage=stage,
                ))
            continue
        for use_point in uses:
            if not def_point.dominates(use_point, domtree):
                found.append(diagnostic(
                    "V203",
                    f"use of {var} at {use_point} not dominated by its "
                    f"definition at {def_point}",
                    function=name, block=use_point.block, stage=stage,
                ))
    for label in sorted(unreachable_uses):
        variables = ", ".join(sorted(str(v) for v in set(unreachable_uses[label])))
        found.append(diagnostic(
            "V204",
            f"uses of {variables} in unreachable block {label!r} "
            f"skip the dominance check",
            function=name, block=label, stage=stage,
        ))
    return found


# --------------------------------------------------------------------------- V3xx CSSA
def check_cssa(function: Function, test, stage: str = "isolate") -> List[Diagnostic]:
    """Every φ web must be interference-free under the configured backend.

    ``test`` is the run's :class:`~repro.interference.base.InterferenceOracle`
    — the *configured* interference notion decides, so an intersection with
    equal values (the paper's value-based refinement) is not a violation for
    the value-coalescing engines.
    """
    from repro.ssa.cssa import phi_webs

    found: List[Diagnostic] = []
    for members in phi_webs(function).values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if a != b and test.interferes(a, b):
                    found.append(diagnostic(
                        "V301",
                        f"phi-web members {a} and {b} interfere after isolation",
                        function=function.name, stage=stage,
                    ))
    return found


# --------------------------------------------------------------------------- V4xx coalescing
def check_congruence_classes(
    classes, test, function: Function, stage: str = "coalesce",
    check_interference: bool = True,
) -> List[Diagnostic]:
    """Congruence-class consistency after coalescing.

    * ``V401`` — no two members of one class interfere (pairwise, under the
      configured backend); only with ``check_interference``, which callers
      gate to SSA inputs — the invariant is the paper's CSSA property, and on
      φ-free non-SSA programs copy chains legitimately build classes whose
      members intersect while carrying one value (the intersection notion
      cannot see the value equality pair-by-pair);
    * ``V402`` — a class's lazily maintained ``slot_mask``/``adj_mask`` rows
      (merged by ORs across coalesces) agree with a fresh recomputation from
      its members' matrix rows;
    * ``V403`` — the classes partition the variables they claim: member lists
      are disjoint and every variable's class actually contains it.
    """
    found: List[Diagnostic] = []
    name = function.name
    all_classes = classes.classes()

    def copy_related(a, b) -> bool:
        # Sreedhar's copy rule: the dst of a (parallel) copy carries its src's
        # value, so the pair may intersect without interfering.  The
        # value-based notions subsume this via ``same_value``; the
        # intersection-based Sreedhar III engine applies it as an explicit
        # skip-pair, which the class check must honour too.
        return test._is_copy_between(a, b) or test._is_copy_between(b, a)

    for cls in all_classes:
        members = cls.members
        if check_interference:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if a != b and test.interferes(a, b) and not copy_related(a, b):
                        found.append(diagnostic(
                            "V401",
                            f"congruence class {[str(v) for v in members]} "
                            f"contains interfering members {a} and {b}",
                            function=name, stage=stage,
                        ))

        if cls.slot_mask is not None and cls.slot_mask >= 0:
            slots = 0
            adj = 0
            complete = True
            for member in members:
                slot = test.slot(member)
                if slot is None:
                    complete = False
                    break
                slots |= 1 << slot
                adj |= test.adjacency_bits(member)
            if complete and (slots != cls.slot_mask or adj != cls.adj_mask):
                found.append(diagnostic(
                    "V402",
                    f"class {[str(v) for v in members]} rows disagree with the "
                    f"matrix: slot_mask {cls.slot_mask:#x} vs {slots:#x}, "
                    f"adj_mask {(cls.adj_mask or 0):#x} vs {adj:#x}",
                    function=name, stage=stage,
                ))

    seen: Dict[Variable, int] = {}
    for index, cls in enumerate(all_classes):
        for member in cls.members:
            if member in seen and seen[member] != index:
                found.append(diagnostic(
                    "V403",
                    f"variable {member} appears in two congruence classes",
                    function=name, stage=stage,
                ))
            seen[member] = index
    for var, cls in classes._class_of.items():
        if var not in cls.members:
            found.append(diagnostic(
                "V403",
                f"variable {var} maps to a class that does not contain it",
                function=name, stage=stage,
            ))
    return found


# --------------------------------------------------------------------------- V50x final output
def check_no_ssa_residue(function: Function, stage: str = "output") -> List[Diagnostic]:
    """The translated output may contain no φ-functions or parallel copies."""
    found: List[Diagnostic] = []
    name = function.name
    for block in function:
        for phi in block.phis:
            found.append(diagnostic(
                "V501", f"phi-function {phi!r} remains after translation",
                function=name, block=block.label, instruction=repr(phi),
                stage=stage,
            ))
        for slot, pcopy in (("entry", block.entry_pcopy), ("exit", block.exit_pcopy)):
            if pcopy is not None and not pcopy.is_empty():
                found.append(diagnostic(
                    "V502",
                    f"{slot} parallel copy {pcopy!r} remains after translation",
                    function=name, block=block.label, instruction=repr(pcopy),
                    stage=stage,
                ))
        for instruction in block.body:
            if isinstance(instruction, ParallelCopy):
                found.append(diagnostic(
                    "V502",
                    f"parallel copy {instruction!r} remains after translation",
                    function=name, block=block.label,
                    instruction=repr(instruction), stage=stage,
                ))
            elif isinstance(instruction, Phi):
                found.append(diagnostic(
                    "V501",
                    f"phi-function {instruction!r} remains after translation",
                    function=name, block=block.label,
                    instruction=repr(instruction), stage=stage,
                ))
    return found


def check_sequentialization(
    function: Function,
    records: Sequence[Tuple[str, List[Tuple[Variable, Operand]], List[Copy]]],
    stage: str = "output",
) -> List[Diagnostic]:
    """Each sequentialized copy group must realize its parallel permutation.

    ``records`` is what materialization captured per lowered parallel copy:
    ``(block label, filtered pairs, emitted Copy objects)``.  The check
    re-finds the emitted copies in the final block body (by identity, in body
    order — a later mutation that drops or reorders them is visible) and
    symbolically executes them: after the sequence, every destination must
    hold the *initial* value of its parallel source, exactly as the parallel
    semantics reads all sources before any write.
    """
    found: List[Diagnostic] = []
    name = function.name
    for label, pairs, copies in records:
        if not pairs:
            continue
        block = function.blocks.get(label)
        if block is None:
            # The block disappeared after materialization; the structural
            # checks own that failure mode.
            continue
        wanted = {id(copy) for copy in copies}
        in_body = [ins for ins in block.body if id(ins) in wanted]
        if len(in_body) != len(copies):
            found.append(diagnostic(
                "V503",
                f"{len(copies) - len(in_body)} sequentialized copies of "
                f"parallel copy {ParallelCopy(pairs)!r} are missing from "
                f"block {label!r}",
                function=name, block=label, stage=stage,
            ))
            continue

        def initial(operand: Operand) -> Tuple[str, object]:
            if isinstance(operand, Constant):
                return ("const", operand.value)
            return ("init", operand.name)

        env: Dict[str, Tuple[str, object]] = {}

        def value_of(operand: Operand) -> Tuple[str, object]:
            if isinstance(operand, Constant):
                return ("const", operand.value)
            return env.get(operand.name, ("init", operand.name))

        for copy in in_body:
            env[copy.dst.name] = value_of(copy.src)
        for dst, src in pairs:
            expected = initial(src)
            actual = env.get(dst.name, ("init", dst.name))
            if actual != expected:
                found.append(diagnostic(
                    "V503",
                    f"sequentialization of {ParallelCopy(pairs)!r} leaves "
                    f"{dst} holding {actual}, expected {expected}",
                    function=name, block=label, stage=stage,
                ))
    return found


def _argument_vectors(param_count: int) -> List[Tuple[int, ...]]:
    """Deterministic argument vectors for the interpreter differential."""
    if param_count == 0:
        return [()]
    return [
        tuple(0 for _ in range(param_count)),
        tuple(i + 1 for i in range(param_count)),
        tuple((i * 7 + 3) % 13 for i in range(param_count)),
    ]


def check_behaviour(
    source: Function,
    translated: Function,
    stage: str = "output",
    max_steps: int = 200_000,
    argument_vectors: Optional[Iterable[Tuple[int, ...]]] = None,
) -> List[Diagnostic]:
    """Interpreter differential: the translation must preserve behaviour.

    Runs both programs on deterministic argument vectors and compares the
    observable behaviour (return value + print trace).  Vectors on which the
    *source* does not terminate within the step budget (or reads an
    uninitialized variable) are skipped — the differential only judges
    executions the source itself defines.
    """
    from repro.interp.interpreter import (
        ExecutionLimitExceeded,
        Interpreter,
        UninitializedRead,
    )

    found: List[Diagnostic] = []
    vectors = (
        list(argument_vectors)
        if argument_vectors is not None
        else _argument_vectors(len(source.params))
    )
    for args in vectors:
        try:
            expected = Interpreter(source, max_steps=max_steps).run(args)
        except (ExecutionLimitExceeded, UninitializedRead):
            continue
        # Copies inserted/removed by translation shift the step count; a
        # generous margin over the source's own step count keeps the budget
        # from misfiring while still bounding runaway translations.
        budget = expected.steps * 4 + 1024
        try:
            actual = Interpreter(translated, max_steps=budget).run(args)
        except (ExecutionLimitExceeded, UninitializedRead, ValueError) as error:
            found.append(diagnostic(
                "V504",
                f"translated program failed on args {list(args)}: {error}",
                function=translated.name, stage=stage,
            ))
            continue
        if actual.observable() != expected.observable():
            found.append(diagnostic(
                "V504",
                f"translated program diverges on args {list(args)}: "
                f"expected {expected.observable()}, got {actual.observable()}",
                function=translated.name, stage=stage,
            ))
    return found
