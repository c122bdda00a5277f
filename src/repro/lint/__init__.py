"""Project-specific static analysis (``python -m repro.lint``).

A small AST-walking linter enforcing the determinism and invariant
conventions of this repository.  Rules are plugins registered in
:mod:`repro.lint.rules`; discovery, ``# repro: noqa=`` suppression and
reporting live in :mod:`repro.lint.analyzer`; the command line in
:mod:`repro.lint.cli`.

With ``--deep`` the linter additionally runs *whole-program* analyses:
:mod:`repro.lint.graph` builds a project-wide call graph with effect
summaries, :mod:`repro.lint.flow` runs fixpoint purity/taint dataflow
over it, and :mod:`repro.lint.project_rules` certifies the REPRO1xx
invariants (purity of cache-entering call trees, RNG seed provenance
and the exception contract).  SARIF output
and the baseline ratchet live in :mod:`repro.lint.sarif` and
:mod:`repro.lint.baseline`.

See ``docs/static_analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.lint.analyzer import (
    Violation,
    check_file,
    check_paths,
    check_project,
    check_source,
    iter_python_files,
)
from repro.lint.rules import (
    RULE_REGISTRY,
    LintRule,
    all_rule_codes,
    build_rules,
    register_rule,
)

__all__ = [
    "LintRule",
    "RULE_REGISTRY",
    "Violation",
    "all_rule_codes",
    "build_rules",
    "check_file",
    "check_paths",
    "check_project",
    "check_source",
    "iter_python_files",
    "register_rule",
]
