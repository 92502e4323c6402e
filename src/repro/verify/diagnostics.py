"""The diagnostic model of the verification framework.

A :class:`Diagnostic` is one finding: a stable error code, a severity, the
anchors needed to locate it (function, block label, instruction repr) and a
human-readable message.  A :class:`VerifyReport` accumulates findings across
an entire checked run instead of raising on the first one, so one run of
``repro verify`` surfaces *every* violated invariant.

Error codes are grouped by the pipeline layer whose invariant they report:

=========  ==================================================================
``V10x``   structural IR invariants (terminators, branch targets, φ coverage)
``V2xx``   strict SSA form (single defs, dominance property, reachability)
``V3xx``   conventional SSA after isolation (φ-web interference freedom)
``V4xx``   coalescing: congruence-class consistency (``V451``/``V452``
           are retired and never reused)
``V5xx``   final output: no φ/pcopy residue, sequentialization permutation,
           interpreter differential
``V6xx``   service-level checks (cached translation vs cold retranslation)
=========  ==================================================================

The catalogue below is the single source of truth; ``docs/VERIFY.md`` renders
it for humans and the tests assert every emitted code is registered here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    """How bad a finding is."""

    WARNING = "warning"   #: suspicious but not a correctness violation
    ERROR = "error"       #: a violated invariant; the translation is wrong

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: code -> (default severity, one-line description).  Stable: codes are never
#: renumbered or reused; retired codes (V451, V452) are simply absent.
CODE_CATALOGUE: Dict[str, tuple] = {
    # -- V10x structural -------------------------------------------------------
    "V101": (Severity.ERROR, "function has no blocks"),
    "V102": (Severity.ERROR, "entry label missing from the block map"),
    "V103": (Severity.ERROR, "block has no terminator"),
    "V104": (Severity.ERROR, "branch to unknown block"),
    "V105": (Severity.ERROR, "phi/terminator instruction inside a block body"),
    "V106": (Severity.ERROR, "phi-functions in a block with no predecessors"),
    "V107": (Severity.ERROR, "phi arguments do not match the predecessors"),
    "V108": (Severity.ERROR, "entry block has predecessors"),
    # -- V2xx strict SSA -------------------------------------------------------
    "V201": (Severity.ERROR, "variable has multiple definitions"),
    "V202": (Severity.ERROR, "variable used but never defined"),
    "V203": (Severity.ERROR, "use not dominated by its definition"),
    "V204": (Severity.WARNING, "use inside an unreachable block"),
    # -- V3xx CSSA -------------------------------------------------------------
    "V301": (Severity.ERROR, "phi-web members interfere (not conventional SSA)"),
    # -- V4xx coalescing -------------------------------------------------------
    "V401": (Severity.ERROR, "congruence class contains interfering members"),
    "V402": (Severity.ERROR, "class slot/adjacency masks disagree with the matrix"),
    "V403": (Severity.ERROR, "congruence classes do not partition the variables"),
    # -- V5xx final output -----------------------------------------------------
    "V501": (Severity.ERROR, "phi-function remains in the translated output"),
    "V502": (Severity.ERROR, "parallel copy remains in the translated output"),
    "V503": (Severity.ERROR, "copy sequentialization broke the parallel-copy permutation"),
    "V504": (Severity.ERROR, "translated program behaves differently from the source"),
    # -- V6xx service ----------------------------------------------------------
    "V601": (Severity.ERROR, "cached translation differs from a cold retranslation"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the verification framework."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    #: Name of the function the finding is anchored in.
    function: Optional[str] = None
    #: Label of the block, when the finding is block-local.
    block: Optional[str] = None
    #: ``repr`` of the instruction, when the finding is instruction-local.
    instruction: Optional[str] = None
    #: Pipeline stage that detected the finding ("input", "isolate",
    #: "coalesce", "materialize", "output", "service").
    stage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODE_CATALOGUE:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def anchor(self) -> str:
        """The ``function:block`` location prefix, as far as it is known."""
        parts = [part for part in (self.function, self.block) if part]
        return ":".join(parts)

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict (CLI ``--json`` and the service ``verify`` verb)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "instruction": self.instruction,
            "stage": self.stage,
        }

    def __str__(self) -> str:
        anchor = self.anchor()
        where = f" [{anchor}]" if anchor else ""
        return f"{self.code} {self.severity.value}{where}: {self.message}"


def diagnostic(
    code: str,
    message: str,
    *,
    function: Optional[str] = None,
    block: Optional[str] = None,
    instruction: Optional[str] = None,
    stage: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from the catalogue."""
    if severity is None:
        severity = CODE_CATALOGUE[code][0]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity,
        function=function,
        block=block,
        instruction=instruction,
        stage=stage,
    )


@dataclass
class VerifyReport:
    """Every finding of one checked run, plus where the time went."""

    function: Optional[str] = None
    level: str = "off"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Wall-clock seconds the checker passes took (excluded from per-pass
    #: pipeline timings; surfaced as ``OutOfSSAStats.verify_ms``).
    seconds: float = 0.0
    #: Stages that actually ran ("input", "isolate", ... ), for introspection.
    stages_run: List[str] = field(default_factory=list)

    def extend(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def codes(self) -> List[str]:
        return [diag.code for diag in self.diagnostics]

    @property
    def errors(self) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if diag.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [diag for diag in self.diagnostics if not diag.is_error]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings do not fail a run)."""
        return not self.errors

    def to_payload(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "level": self.level,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "seconds": self.seconds,
            "stages": list(self.stages_run),
            "diagnostics": [diag.to_payload() for diag in self.diagnostics],
        }

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI's default output)."""
        lines = [str(diag) for diag in self.diagnostics]
        verdict = "ok" if self.ok else f"{len(self.errors)} error(s)"
        name = self.function or "<program>"
        lines.append(
            f"# verify {name}: {verdict}, {len(self.warnings)} warning(s), "
            f"level {self.level}, {self.seconds * 1e3:.2f} ms"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"VerifyReport({self.function!r}, level={self.level!r}, "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings)"
        )
