"""Engine configurations for the out-of-SSA translation.

An :class:`EngineConfig` names one point of the paper's design space (which
liveness oracle, whether an interference graph is built, whether the linear
congruence-class check is used, which coalescing variant).  The seven named
configurations of Figures 6 and 7 live in :data:`ENGINE_CONFIGURATIONS`;
custom configurations are assembled with the fluent
:class:`EngineConfigBuilder` (``EngineConfig.builder()``) instead of hand
mutation via :func:`dataclasses.replace`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Union

from repro.coalescing.variants import variant_by_name

#: The pluggable liveness backends (CLI ``--liveness``, ``repro list``).
LIVENESS_BACKENDS: Dict[str, str] = {
    "sets": "ordered-set data-flow fixpoint (reference oracle)",
    "bitsets": "bit-set rows over a shared numbering, worklist solver",
    "check": "liveness checking, no global live-in/live-out sets",
}

#: The pluggable interference backends (CLI ``--interference``, ``repro list``).
INTERFERENCE_BACKENDS: Dict[str, str] = {
    "matrix": "eager half bit-matrix graph over the shared numbering",
    "query": "no graph: dominance/value pairwise queries (InterCheck)",
}

#: Policies for a φ-argument defined by the predecessor's terminator.
ON_BRANCH_DEF_POLICIES = ("split", "error")

#: The pluggable IR cores driving the hot sweeps (CLI ``--core``,
#: ``repro list``).  Representation-only: both cores translate every
#: function bit-identically (IR text and stats counters alike).
CORE_BACKENDS: Dict[str, str] = {
    "flat": "contiguous int-array arena (CSR tables) for the hot sweeps",
    "objects": "object-graph walks (reference implementation, differential baseline)",
}

#: Verification levels (mirrors ``repro.verify.stages.VERIFY_LEVELS``; spelled
#: out here so this module never imports the verify package).
VERIFY_LEVELS = ("off", "fast", "full")

#: Version tag mixed into :meth:`EngineConfig.fingerprint`; bump when a knob
#: is added or its semantics change so old fingerprints can never alias.
_FINGERPRINT_VERSION = "ec1"


# --------------------------------------------------------------------------- config
@dataclass(frozen=True)
class EngineConfig:
    """One out-of-SSA engine configuration (a bar of Figures 6/7)."""

    name: str
    label: str
    #: Figure 5 coalescing variant driving interference notion / ordering.
    coalescing: str = "value"
    #: Liveness backend: "sets" (ordered-set data-flow, the reference
    #: implementation), "bitsets" (bit-set rows + worklist, the encoding
    #: Figure 7 evaluates) or "check" (liveness checking, no global sets).
    liveness: str = "bitsets"
    #: Interference backend: "matrix" (eager bit-matrix graph) or "query"
    #: (pairwise dominance/value queries, "InterCheck").
    interference: str = "matrix"
    #: Use the linear congruence-class interference check instead of the
    #: quadratic all-pairs one.
    linear_class_check: bool = False
    #: What to do when a φ-argument is defined by the predecessor's terminator.
    on_branch_def: str = "split"
    #: Verification level: "off" (unchecked), "fast" (structural input/output
    #: checks) or "full" (every stage checker, including the interpreter
    #: differential).  Diagnostic-only — a checked run translates
    #: bit-identically to an unchecked one, so this knob is excluded from
    #: :meth:`fingerprint`.
    verify_level: str = "off"
    #: IR core driving the hot sweeps: "flat" (contiguous int-array arena,
    #: the default) or "objects" (object-graph walks, kept as the
    #: differential-testing baseline).  Representation-only — the cores
    #: translate bit-identically — so, like ``verify_level``, excluded from
    #: :meth:`fingerprint`; it *does* participate in dataclass equality, so
    #: an external :class:`~repro.pipeline.analysis.AnalysisCache` is never
    #: shared across cores.
    core: str = "flat"

    def __post_init__(self) -> None:
        if self.verify_level not in VERIFY_LEVELS:
            known = ", ".join(VERIFY_LEVELS)
            raise ValueError(
                f"unknown verify level {self.verify_level!r}; known levels: {known}"
            )
        if self.core not in CORE_BACKENDS:
            known = ", ".join(sorted(CORE_BACKENDS))
            raise ValueError(
                f"unknown IR core {self.core!r}; known cores: {known}"
            )
        if self.interference not in INTERFERENCE_BACKENDS:
            known = ", ".join(sorted(INTERFERENCE_BACKENDS))
            raise ValueError(
                f"unknown interference backend {self.interference!r}; "
                f"known backends: {known}"
            )

    def describe(self) -> str:
        parts = [variant_by_name(self.coalescing).label]
        liveness_labels = {
            "sets": "ordered liveness sets",
            "bitsets": "bit-set liveness",
            "check": "LiveCheck",
        }
        parts.append(liveness_labels.get(self.liveness, self.liveness))
        interference_labels = {
            "matrix": "interference graph",
            "query": "InterCheck",
        }
        parts.append(interference_labels.get(self.interference, self.interference))
        parts.append("linear class check" if self.linear_class_check else "quadratic class check")
        return ", ".join(parts)

    def fingerprint(self) -> str:
        """Stable hex fingerprint of the configuration's *semantic* knobs.

        Two configurations with the same fingerprint translate every function
        bit-identically, so the fingerprint (together with the IR digest) is
        the cache key of the translation service: ``name`` and ``label`` are
        cosmetic and excluded — ``EngineConfig.builder("us_i").name("x")``
        still hits a cache warmed under ``us_i``.  The leading version tag is
        bumped whenever a knob is added or its meaning changes, so stale
        fingerprints from older builds can never alias a current one.

        ``verify_level`` is likewise excluded: verification only *observes*
        the translation, so checked and unchecked runs of the same engine
        produce (and may share) identical cached translations.  ``core`` is
        excluded for the same reason — the flat and object cores are
        bit-identical representations of the same translation (a property
        test enforces it), so either may serve a cache warmed by the other.
        """
        payload = "|".join(
            (
                _FINGERPRINT_VERSION,
                self.coalescing,
                self.liveness,
                self.interference,
                "linear" if self.linear_class_check else "quadratic",
                self.on_branch_def,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def builder(base: Union["EngineConfig", str, None] = None) -> "EngineConfigBuilder":
        """Start a fluent builder, optionally from a named or given base config."""
        return EngineConfigBuilder(base)


#: The seven engine configurations of the paper's Figure 6 / Figure 7.
ENGINE_CONFIGURATIONS: List[EngineConfig] = [
    EngineConfig(
        name="sreedhar_iii", label="Sreedhar III", coalescing="sreedhar_iii",
        liveness="bitsets", interference="matrix", linear_class_check=False,
    ),
    EngineConfig(
        name="us_iii", label="Us III", coalescing="value_is",
        liveness="bitsets", interference="matrix", linear_class_check=False,
    ),
    EngineConfig(
        name="us_iii_intercheck", label="Us III + InterCheck", coalescing="value_is",
        liveness="bitsets", interference="query", linear_class_check=False,
    ),
    EngineConfig(
        name="us_iii_intercheck_livecheck", label="Us III + InterCheck + LiveCheck",
        coalescing="value_is", liveness="check", interference="query",
        linear_class_check=False,
    ),
    EngineConfig(
        name="us_iii_linear_intercheck_livecheck",
        label="Us III + Linear + InterCheck + LiveCheck", coalescing="value_is",
        liveness="check", interference="query", linear_class_check=True,
    ),
    EngineConfig(
        name="us_i", label="Us I", coalescing="value",
        liveness="bitsets", interference="matrix", linear_class_check=False,
    ),
    EngineConfig(
        name="us_i_linear_intercheck_livecheck",
        label="Us I + Linear + InterCheck + LiveCheck", coalescing="value",
        liveness="check", interference="query", linear_class_check=True,
    ),
]

_CONFIG_BY_NAME = {config.name: config for config in ENGINE_CONFIGURATIONS}


def engine_by_name(name: str) -> EngineConfig:
    """Look up a Figure 6/7 engine configuration by name.

    Raises :class:`KeyError` with the list of known engines — the uniform
    lookup-failure contract shared with :func:`~repro.coalescing.variants.variant_by_name`
    and :func:`~repro.bench.suite.spec_by_name`.
    """
    try:
        return _CONFIG_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_CONFIG_BY_NAME))
        raise KeyError(f"unknown engine {name!r}; known engines: {known}") from None


DEFAULT_ENGINE = _CONFIG_BY_NAME["us_i_linear_intercheck_livecheck"]


# --------------------------------------------------------------------------- builder
class EngineConfigBuilder:
    """Fluent construction of :class:`EngineConfig` values.

    Every setter validates eagerly (unknown coalescing variants raise
    :class:`KeyError`, unknown liveness backends and branch-def policies raise
    :class:`ValueError`) and returns the builder, so configurations read as one
    chain::

        config = (EngineConfig.builder("us_i")
                  .liveness("sets")
                  .build())

    Unless :meth:`name` / :meth:`label` are set explicitly, ``build`` derives
    them from the base configuration plus one suffix per overridden knob, so
    derived configs stay distinguishable in reports.
    """

    def __init__(self, base: Union[EngineConfig, str, None] = None) -> None:
        if isinstance(base, str):
            base = engine_by_name(base)
        self._base = base if base is not None else DEFAULT_ENGINE
        self._overrides: Dict[str, object] = {}
        self._name: Optional[str] = None
        self._label: Optional[str] = None

    # -- setters -------------------------------------------------------------
    def name(self, name: str) -> "EngineConfigBuilder":
        self._name = name
        return self

    def label(self, label: str) -> "EngineConfigBuilder":
        self._label = label
        return self

    def coalescing(self, variant_name: str) -> "EngineConfigBuilder":
        variant_by_name(variant_name)  # raises KeyError for unknown variants
        self._overrides["coalescing"] = variant_name
        return self

    def liveness(self, kind: str) -> "EngineConfigBuilder":
        if kind not in LIVENESS_BACKENDS:
            known = ", ".join(sorted(LIVENESS_BACKENDS))
            raise ValueError(f"unknown liveness backend {kind!r}; known backends: {known}")
        self._overrides["liveness"] = kind
        return self

    def interference(self, kind: str) -> "EngineConfigBuilder":
        """Select the interference backend (``matrix`` / ``query``)."""
        if kind not in INTERFERENCE_BACKENDS:
            known = ", ".join(sorted(INTERFERENCE_BACKENDS))
            raise ValueError(
                f"unknown interference backend {kind!r}; known backends: {known}"
            )
        self._overrides["interference"] = kind
        return self

    def linear_class_check(self, enabled: bool = True) -> "EngineConfigBuilder":
        self._overrides["linear_class_check"] = bool(enabled)
        return self

    def on_branch_def(self, policy: str) -> "EngineConfigBuilder":
        if policy not in ON_BRANCH_DEF_POLICIES:
            known = ", ".join(ON_BRANCH_DEF_POLICIES)
            raise ValueError(f"unknown on_branch_def policy {policy!r}; known policies: {known}")
        self._overrides["on_branch_def"] = policy
        return self

    def verify(self, level: str) -> "EngineConfigBuilder":
        """Select the verification level (``off`` / ``fast`` / ``full``)."""
        if level not in VERIFY_LEVELS:
            known = ", ".join(VERIFY_LEVELS)
            raise ValueError(f"unknown verify level {level!r}; known levels: {known}")
        self._overrides["verify_level"] = level
        return self

    def core(self, kind: str) -> "EngineConfigBuilder":
        """Select the IR core (``flat`` / ``objects``)."""
        if kind not in CORE_BACKENDS:
            known = ", ".join(sorted(CORE_BACKENDS))
            raise ValueError(f"unknown IR core {kind!r}; known cores: {known}")
        self._overrides["core"] = kind
        return self

    # -- terminal ------------------------------------------------------------
    def _derived_suffixes(self) -> List[str]:
        """One short tag per knob that differs from the base configuration."""
        parts: List[str] = []
        base = self._base
        overrides = self._overrides
        if overrides.get("coalescing", base.coalescing) != base.coalescing:
            parts.append(str(overrides["coalescing"]))
        if overrides.get("liveness", base.liveness) != base.liveness:
            parts.append(str(overrides["liveness"]))
        if overrides.get("interference", base.interference) != base.interference:
            suffix = {"matrix": "graph", "query": "intercheck"}
            parts.append(suffix.get(str(overrides["interference"]), str(overrides["interference"])))
        if overrides.get("linear_class_check", base.linear_class_check) != base.linear_class_check:
            parts.append("linear" if overrides["linear_class_check"] else "quadratic")
        if overrides.get("on_branch_def", base.on_branch_def) != base.on_branch_def:
            parts.append(str(overrides["on_branch_def"]))
        if overrides.get("verify_level", base.verify_level) != base.verify_level:
            parts.append(f"verify_{overrides['verify_level']}")
        if overrides.get("core", base.core) != base.core:
            parts.append(f"{overrides['core']}_core")
        return parts

    def build(self) -> EngineConfig:
        parts = self._derived_suffixes()
        name = self._name
        label = self._label
        if name is None:
            name = self._base.name + "".join(f"_{part}" for part in parts)
        if label is None:
            label = self._base.label + (f" [{', '.join(parts)}]" if parts else "")
        return replace(self._base, name=name, label=label, **self._overrides)
