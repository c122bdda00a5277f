"""Whole-program lint rules (the ``REPRO1xx`` family).

Per-file rules see one module; the rules here see the
:class:`~repro.lint.graph.ProjectGraph` plus the
:mod:`~repro.lint.flow` fixpoint results and certify *cross-module*
invariants:

``REPRO101``
    Purity.  Every cache-entering function (registered experiment
    runners, the serve and mean-field solvers, the campaign dispatch
    target) must be transitively free of I/O, wall-clock/environment
    reads, entropy draws, module-state mutation and unsanctioned
    ``repro.obs`` recorder use.  Violations name the full call chain from the certification
    root to the impure call.
``REPRO102``
    RNG provenance.  Any sampling call whose generator does not flow
    from ``repro.rng.resolve_rng``, a seeded ``default_rng`` or a
    spawned ``SeedSequence`` is flagged, however many calls separate the
    construction from the draw.
``REPRO103``
    Exception contract.  Public API functions of the ``repro`` package
    raise only the :mod:`repro.errors` hierarchy (plus the conventional
    ``NotImplementedError``/``AssertionError``).
Rules register through :func:`register_project_rule`, mirroring the
per-file plugin registry, and integrate with the same
``--select``/``--ignore``/noqa machinery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Type

from repro.errors import LintError
from repro.lint.analyzer import Violation
from repro.lint.flow import rng_taint, transitive_effects
from repro.lint.graph import ProjectGraph

__all__ = [
    "PROJECT_RULE_REGISTRY",
    "ProjectContext",
    "ProjectRule",
    "SANCTIONED_PURITY_BOUNDARIES",
    "all_project_rule_codes",
    "build_project_rules",
    "register_project_rule",
]

PROJECT_RULE_REGISTRY: Dict[str, Type["ProjectRule"]] = {}

#: Functions the purity walk treats as opaque, certified boundaries.
#: Each entry is either an exact qname or a ``pkg.``-style prefix.  An
#: entry here is a *reviewed* exemption: the function either has no
#: result-affecting effects or confines them behind a deterministic
#: contract of its own.
SANCTIONED_PURITY_BOUNDARIES: FrozenSet[str] = frozenset(
    {
        # The sanctioned observability surface: spans and ambient-metric
        # helpers route through whatever recorder the *caller* installed
        # and are no-ops under NullRecorder; they never decide results.
        "repro.obs.span",
        "repro.obs.span.span",
        "repro.obs.enabled",
        "repro.obs.current_span_id",
        "repro.obs.inc",
        "repro.obs.gauge_set",
        "repro.obs.observe",
        "repro.obs.observe_many",
        "repro.obs.metrics.inc",
        "repro.obs.metrics.gauge_set",
        "repro.obs.metrics.observe",
        "repro.obs.metrics.observe_many",
        # rate_gauge is *the* sanctioned wall-clock reader: throughput
        # instrumentation on pure compute paths routes its perf_counter
        # reads through here (see the REPRO101 fix in repro.sim).
        "repro.obs.metrics.rate_gauge",
        # Runtime contracts validate-and-return (or raise); their only
        # ambient read is the REPRO_CHECKS gate, which toggles checking,
        # never values.
        "repro.contracts.",
        # The one sanctioned seed fallback: deterministic by definition.
        "repro.rng.resolve_rng",
        # Building and loading the simulator kernel's compiled replay
        # reads REPRO_CC and the cache location, runs the compiler and
        # writes and prunes its cache.  The replay is chosen by
        # observation (a compiler, a safe cache, a build that loads),
        # never by a parameter of the run, and TestNumpyCompiled in
        # tests/unit/test_backends.py checks it bit-identical to the
        # numpy loop, so no cached result depends on the outcome.
        "repro.backends.cnative_backend.load_kernels",
    }
)

#: Effect kinds REPRO101 certifies against.
PURITY_EFFECT_KINDS: FrozenSet[str] = frozenset(
    {"io", "time", "env", "entropy", "global-write", "obs-recorder"}
)

#: Builtin exceptions public API code may raise despite REPRO103.
_RAISE_ALLOWLIST = frozenset(
    {
        "NotImplementedError",
        "AssertionError",
        "StopIteration",
        "StopAsyncIteration",
        "KeyboardInterrupt",
        "SystemExit",
        "argparse.ArgumentTypeError",
    }
)

_BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "FileExistsError",
        "FileNotFoundError",
        "FloatingPointError",
        "IOError",
        "ImportError",
        "IndexError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "OSError",
        "OverflowError",
        "PermissionError",
        "RecursionError",
        "ReferenceError",
        "RuntimeError",
        "TimeoutError",
        "TypeError",
        "UnicodeDecodeError",
        "UnicodeEncodeError",
        "ValueError",
        "ZeroDivisionError",
    }
)


@dataclass
class ProjectContext:
    """Everything a whole-program rule may ask about the project."""

    graph: ProjectGraph
    #: Filesystem roots the graph was built from (for path reporting).
    roots: Tuple[str, ...] = ()
    #: Extra purity boundaries (tests extend the sanctioned set here).
    extra_boundaries: FrozenSet[str] = frozenset()

    @property
    def boundaries(self) -> FrozenSet[str]:
        return SANCTIONED_PURITY_BOUNDARIES | self.extra_boundaries


def register_project_rule(
    cls: Type["ProjectRule"],
) -> Type["ProjectRule"]:
    """Class decorator adding a whole-program rule to the registry."""
    code = cls.code
    if not re.fullmatch(r"REPRO1\d{2}", code):
        raise LintError(
            f"project rule code must match REPRO1nn, got {code!r}"
        )
    if code in PROJECT_RULE_REGISTRY:
        raise LintError(f"duplicate project rule code {code!r}")
    PROJECT_RULE_REGISTRY[code] = cls
    return cls


def all_project_rule_codes() -> List[str]:
    """Sorted codes of every registered whole-program rule."""
    return sorted(PROJECT_RULE_REGISTRY)


def build_project_rules(
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> List["ProjectRule"]:
    """Instantiate whole-program rules honouring select/ignore filters.

    Unknown codes are *not* validated here - the CLI validates against
    the union of both registries so a ``--select REPRO101`` run does not
    trip over per-file codes and vice versa.
    """
    selected = (
        set(select) if select is not None else set(PROJECT_RULE_REGISTRY)
    )
    ignored = set(ignore) if ignore is not None else set()
    return [
        PROJECT_RULE_REGISTRY[code]()
        for code in sorted(selected - ignored)
        if code in PROJECT_RULE_REGISTRY
    ]


class ProjectRule:
    """Base class for whole-program rules (the plugin interface)."""

    code: str = "REPRO100"
    summary: str = ""

    def check_project(self, context: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, path: str, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            path=path, line=line, col=col, rule=self.code, message=message
        )


# ---------------------------------------------------------------------------
# REPRO101 - purity certification
# ---------------------------------------------------------------------------
@register_project_rule
class PurityRule(ProjectRule):
    """REPRO101: cache-entering call trees must be pure."""

    code = "REPRO101"
    summary = (
        "impure call (I/O, clock/env read, entropy, module-state "
        "mutation) reachable from a cache-entering root"
    )

    _KIND_TEXT = {
        "io": "performs I/O",
        "time": "reads the wall clock",
        "env": "reads/writes the process environment",
        "entropy": "draws OS entropy",
        "global-write": "mutates module-level state",
        "obs-recorder": "uses a repro.obs recorder outside the span API",
    }

    def check_project(self, context: ProjectContext) -> Iterator[Violation]:
        graph = context.graph
        findings = transitive_effects(
            graph,
            graph.roots,
            boundaries=context.boundaries,
            kinds=PURITY_EFFECT_KINDS,
        )
        for finding in findings:
            info = graph.functions[finding.function]
            kind_text = self._KIND_TEXT.get(
                finding.effect.kind, finding.effect.kind
            )
            yield self.violation(
                info.path,
                finding.effect.line,
                finding.effect.col + 1,
                f"{finding.function} {kind_text} ({finding.effect.detail}) "
                f"but is reachable from cache-entering root "
                f"{finding.root}; call chain: {finding.render_chain()}. "
                "Cached results must be pure functions of their digested "
                "inputs - hoist the effect out of the runner or route it "
                "through a sanctioned boundary",
            )


# ---------------------------------------------------------------------------
# REPRO102 - RNG provenance
# ---------------------------------------------------------------------------
@register_project_rule
class RngProvenanceRule(ProjectRule):
    """REPRO102: every random draw traces to resolve_rng/SeedSequence."""

    code = "REPRO102"
    summary = (
        "sampling call on a generator with no seed provenance "
        "(does not flow from resolve_rng or a seeded SeedSequence)"
    )

    def check_project(self, context: ProjectContext) -> Iterator[Violation]:
        for finding in rng_taint(context.graph):
            yield self.violation(
                finding.path,
                finding.line,
                finding.col + 1,
                f"{finding.function} samples .{finding.method}() from a "
                f"generator with no seed provenance: "
                f"{finding.render_provenance()}. Bit-identical --jobs "
                "replay requires every stream to flow from "
                "repro.rng.resolve_rng or a spawned SeedSequence",
            )


# ---------------------------------------------------------------------------
# REPRO103 - exception contract
# ---------------------------------------------------------------------------
@register_project_rule
class ExceptionContractRule(ProjectRule):
    """REPRO103: public API raises only the repro.errors hierarchy."""

    code = "REPRO103"
    summary = (
        "public API function raises outside the repro.errors hierarchy"
    )

    def check_project(self, context: ProjectContext) -> Iterator[Violation]:
        graph = context.graph
        approved = graph.exception_classes()
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if info.module.split(".")[0] != "repro":
                continue
            if not info.is_public:
                continue
            if any(part.startswith("_") for part in info.module.split(".")):
                continue
            for site in info.raises:
                exception = site.exception
                if exception in _RAISE_ALLOWLIST:
                    continue
                if exception in approved:
                    continue
                if exception.startswith("repro.errors."):
                    continue
                if exception not in _BUILTIN_EXCEPTIONS:
                    continue  # third-party/unknown: out of contract scope
                yield self.violation(
                    info.path,
                    site.line,
                    site.col + 1,
                    f"{qname} raises builtin {exception}; public repro API "
                    "must raise the repro.errors hierarchy so callers can "
                    "catch ReproError at the boundary",
                )

