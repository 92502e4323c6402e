"""Staged static verification of the out-of-SSA translation pipeline.

The paper's central claim is that the *fast* translation stays *correct*:
value-isolation preserves conventional SSA, congruence classes stay
interference-free, and parallel-copy sequentialization realizes exactly the
parallel-copy permutation.  This package turns those claims into checkable
invariants with stable error codes:

* :mod:`repro.verify.diagnostics` — the :class:`Diagnostic` model (code,
  severity, function/block/instruction anchors) and the :class:`VerifyReport`
  a checked run accumulates instead of raising on the first finding;
* :mod:`repro.verify.checks` — the checker passes themselves (structural,
  strict SSA, CSSA, congruence-class consistency, final-output checks,
  interpreter differential);
* :mod:`repro.verify.stages` — the :class:`PipelineVerifier` the
  :class:`~repro.pipeline.pipeline.PassManager` calls between phases when
  ``EngineConfig.verify_level`` is ``fast`` or ``full``;
* :mod:`repro.verify.faults` — the seeded-fault harness proving the analyzer
  has teeth (every mutator is caught by its expected error code).

See ``docs/VERIFY.md`` for the error-code catalogue.
"""

from repro.verify.diagnostics import (
    CODE_CATALOGUE,
    Diagnostic,
    Severity,
    VerifyReport,
)
from repro.verify.stages import VERIFY_LEVELS, PipelineVerifier

__all__ = [
    "CODE_CATALOGUE",
    "Diagnostic",
    "Severity",
    "VerifyReport",
    "VERIFY_LEVELS",
    "PipelineVerifier",
]
