"""repro — a reproduction of "Revisiting Out-of-SSA Translation for
Correctness, Code Quality, and Efficiency" (Boissinot, Darte, Rastello,
Dupont de Dinechin, Guillon — CGO 2009).

The package is organised in small sub-packages (see README.md and
docs/ARCHITECTURE.md).
The whole SSA → out-of-SSA stack runs as a *pass pipeline* over a *shared
analysis cache*:

* building / parsing programs: :class:`~repro.ir.builder.FunctionBuilder`,
  :func:`~repro.ir.parser.parse_function`, :func:`~repro.ir.printer.format_function`;
* composing a run: :class:`~repro.pipeline.Pipeline` — e.g.
  ``Pipeline.for_engine("us_i", construct_ssa=True, optimize=True).run(fn)``
  chains SSA construction, the conventionality-breaking optimizations and the
  paper's four out-of-SSA phases (isolation, interference, coalescing,
  materialization) as introspectable passes; each pass declares which analyses
  (dominator tree, def/use index, liveness, intersection, SSA values,
  block frequencies) it preserves and the
  :class:`~repro.pipeline.AnalysisCache` invalidates the rest, so one
  :class:`~repro.ir.positions.DefUseIndex` numbers the variables of a
  translation for the bit-set liveness rows, the flat arena, the
  interference matrix scan and the congruence classes alike;
* configuring engines: the seven Figure 6/7 configurations in
  :data:`~repro.outofssa.config.ENGINE_CONFIGURATIONS`
  (:func:`~repro.outofssa.config.engine_by_name`), custom ones via the fluent
  :class:`~repro.outofssa.config.EngineConfigBuilder`
  (``EngineConfig.builder("us_i").liveness("sets").build()``), and the
  Figure 5 coalescing strategies in :data:`~repro.coalescing.variants.VARIANTS`;
* batch translation: :class:`~repro.pipeline.Session` —
  ``Session("us_i").translate_many(functions)`` reuses one pipeline across a
  whole suite with per-function allocation trackers (what the benchmark
  harness runs on);
* one-shot convenience: :func:`~repro.outofssa.driver.destruct_ssa`, a thin
  wrapper over the pipeline kept for backward compatibility;
* checking behaviour: :func:`~repro.interp.interpreter.run_function`;
* regenerating the paper's experiments: :mod:`repro.bench`;
* serving translations as a daemon: :mod:`repro.service` —
  :class:`~repro.service.translator.TranslationService` (a content-addressed
  warm cache keyed by IR digest × ``EngineConfig.fingerprint()`` in front of
  warm sessions), :class:`~repro.service.scheduler.ShardedScheduler`
  (digest-affine shards, threads for warm traffic / processes for cold
  batches, in-shard parallel coalescing over the congruence-class matrix
  rows), and the ``repro serve`` / ``repro request`` daemon pair speaking
  newline-delimited JSON (see ``docs/SERVICE.md``).
"""

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.interp.interpreter import run_function
from repro.outofssa.driver import (
    DEFAULT_ENGINE,
    ENGINE_CONFIGURATIONS,
    INTERFERENCE_BACKENDS,
    LIVENESS_BACKENDS,
    EngineConfig,
    EngineConfigBuilder,
    OutOfSSAResult,
    destruct_ssa,
    engine_by_name,
)
from repro.pipeline import AnalysisCache, Pass, PassManager, Pipeline, Session
from repro.service import (
    ServiceClient,
    ShardedScheduler,
    TranslationCache,
    TranslationServer,
    TranslationService,
)
from repro.coalescing.variants import VARIANTS, variant_by_name
from repro.ssa.construction import construct_ssa
from repro.ssa.copy_folding import fold_copies, value_number

__version__ = "1.3.0"

__all__ = [
    "Function",
    "FunctionBuilder",
    "parse_function",
    "format_function",
    "run_function",
    "destruct_ssa",
    "DEFAULT_ENGINE",
    "ENGINE_CONFIGURATIONS",
    "INTERFERENCE_BACKENDS",
    "LIVENESS_BACKENDS",
    "EngineConfig",
    "EngineConfigBuilder",
    "OutOfSSAResult",
    "engine_by_name",
    "AnalysisCache",
    "Pass",
    "PassManager",
    "Pipeline",
    "ServiceClient",
    "Session",
    "ShardedScheduler",
    "TranslationCache",
    "TranslationServer",
    "TranslationService",
    "VARIANTS",
    "variant_by_name",
    "construct_ssa",
    "fold_copies",
    "value_number",
    "__version__",
]
