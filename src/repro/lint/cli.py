"""Command line for the project linter (``python -m repro.lint``)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.analyzer import (
    DEFAULT_EXCLUDED_DIRS,
    Violation,
    check_paths,
    check_project,
)
from repro.lint.baseline import (
    BASELINE_FILENAME,
    compare_to_baseline,
    load_baseline,
    save_baseline,
)
from repro.lint.project_rules import (
    PROJECT_RULE_REGISTRY,
    all_project_rule_codes,
)
from repro.lint.rules import RULE_REGISTRY, all_rule_codes
from repro.lint.sarif import render_sarif

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism/invariant static analysis for the repro "
            "codebase: per-file rules (REPRO001-005) plus, with "
            "--deep, whole-program purity/provenance certification "
            "(REPRO101-103)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--exclude",
        metavar="DIRS",
        help=(
            "comma-separated directory names to skip in addition to "
            f"the defaults ({', '.join(sorted(DEFAULT_EXCLUDED_DIRS))})"
        ),
    )
    parser.add_argument(
        "--no-noqa",
        action="store_true",
        help="report violations even on '# repro: noqa' lines",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the whole-program rules (REPRO101-103): call-graph "
            "purity certification, RNG provenance taint, exception "
            "contract"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "compare against a baseline file: violations fingerprinted "
            "there are reported as legacy and do not fail the run "
            f"(default name: {BASELINE_FILENAME})"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline file from this run's violations "
            "(prunes stale fingerprints) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _rule_summaries() -> Dict[str, str]:
    summaries: Dict[str, str] = {
        code: RULE_REGISTRY[code].summary for code in all_rule_codes()
    }
    summaries.update(
        {
            code: PROJECT_RULE_REGISTRY[code].summary
            for code in all_project_rule_codes()
        }
    )
    summaries["REPRO900"] = "syntax error prevents linting"
    return summaries


def _subset(
    codes: Optional[List[str]], universe: Sequence[str]
) -> Optional[List[str]]:
    if codes is None:
        return None
    allowed = set(universe)
    return [code for code in codes if code in allowed]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    ``0`` - clean (or only baseline-tracked legacy violations);
    ``1`` - new violations found; ``2`` - usage error (unknown rule
    code, missing path, unreadable baseline).
    """
    parser = build_parser()
    options = parser.parse_args(argv)

    file_codes = all_rule_codes()
    project_codes = all_project_rule_codes()

    if options.list_rules:
        for code in file_codes:
            print(f"{code}  {RULE_REGISTRY[code].summary}")
        for code in project_codes:
            print(
                f"{code}  {PROJECT_RULE_REGISTRY[code].summary} "
                "(whole-program, needs --deep)"
            )
        return 0

    select = _split_codes(options.select)
    ignore = _split_codes(options.ignore)
    known = set(file_codes) | set(project_codes)
    unknown = sorted(set(select or []) | set(ignore or []))
    unknown = [code for code in unknown if code not in known]
    if unknown:
        print(
            f"error: unknown rule code(s): {', '.join(unknown)}",
            file=sys.stderr,
        )
        return 2

    roots = [Path(p) for p in options.paths]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    excluded = set(DEFAULT_EXCLUDED_DIRS)
    extra = _split_codes(options.exclude)
    if extra:
        excluded.update(extra)

    try:
        violations, files_checked = check_paths(
            roots,
            select=_subset(select, file_codes),
            ignore=_subset(ignore, file_codes),
            excluded_dirs=frozenset(excluded),
            respect_noqa=not options.no_noqa,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if options.deep:
        deep_violations, _graph = check_project(
            roots,
            select=_subset(select, project_codes),
            ignore=_subset(ignore, project_codes),
            excluded_dirs=frozenset(excluded),
            respect_noqa=not options.no_noqa,
        )
        violations = sorted([*violations, *deep_violations])

    baseline_path = (
        Path(options.baseline) if options.baseline else None
    )
    if options.update_baseline:
        target = baseline_path or Path(BASELINE_FILENAME)
        count = save_baseline(target, violations)
        print(f"baseline written: {count} fingerprint(s) -> {target}")
        return 0

    new: List[Violation] = list(violations)
    legacy: List[Violation] = []
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        comparison = compare_to_baseline(violations, baseline)
        new, legacy = list(comparison.new), list(comparison.legacy)

    if options.format == "sarif":
        # SARIF carries every finding (legacy included) so code-scanning
        # alert state tracks reality; the exit code ratchets on new only.
        sys.stdout.write(
            render_sarif(
                violations,
                rule_summaries=_rule_summaries(),
                base_dir=Path.cwd(),
            )
        )
    elif options.format == "json":
        counts: Dict[str, int] = {}
        for violation in new:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        payload: Dict[str, object] = {
            "files_checked": files_checked,
            "violations": [v.to_dict() for v in new],
            "counts": counts,
        }
        if baseline_path is not None:
            payload["baselined"] = [v.to_dict() for v in legacy]
        print(json.dumps(payload, indent=2))
    else:
        for violation in new:
            print(violation.render())
        noun = "file" if files_checked == 1 else "files"
        suffix = (
            f" ({len(legacy)} baselined violation(s) not shown)"
            if legacy
            else ""
        )
        if new:
            print(
                f"{len(new)} violation(s) in {files_checked} "
                f"{noun} checked{suffix}"
            )
        else:
            print(f"clean: {files_checked} {noun} checked{suffix}")
    return 1 if new else 0
