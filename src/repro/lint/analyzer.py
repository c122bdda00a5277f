"""File discovery, AST context and suppression for :mod:`repro.lint`.

The analyzer parses each file once, builds a :class:`ModuleContext`
(import-alias resolution plus project-level knowledge such as the set of
registered experiment modules) and hands it to every rule.  Violations on
lines carrying ``# repro: noqa`` or ``# repro: noqa=CODE[,CODE...]`` are
filtered before reporting.

The AST helpers here (import aliases, dotted-name resolution, the
``Experiment(...)`` runner extraction and the noqa matcher) are the one
front end shared by the per-file rules and the whole-program graph of
:mod:`repro.lint.graph`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.lint.rules import LintRule, build_rules

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "ModuleContext",
    "Violation",
    "check_file",
    "check_paths",
    "check_project",
    "check_source",
    "iter_python_files",
    "registered_experiment_modules",
]

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: deliberately-dirty snippets the linter's own tests assert against.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {
        ".git",
        ".hypothesis",
        ".pytest_cache",
        "__pycache__",
        "build",
        "dist",
        "lint_fixtures",
    }
)

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+))?",
)


@dataclass(frozen=True, order=True)
class Violation:
    """One reported lint finding.

    Attributes
    ----------
    path:
        File the finding is in (as given to the analyzer).
    line, col:
        1-based position of the offending node.
    rule:
        Rule code (``REPROnnn``).
    message:
        Human-readable explanation with the suggested fix.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` - the human output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the machine output record)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a rule may ask about one parsed module."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    registered_experiments: Optional[FrozenSet[str]] = None
    _aliases: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._aliases = _import_aliases(self.tree)

    @property
    def module_stem(self) -> str:
        """File name without extension."""
        return Path(self.path).stem

    @property
    def parent_dir_name(self) -> str:
        """Name of the directory containing the file."""
        return Path(self.path).parent.name

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` whatever the import spelling
        (``import numpy as np``, ``from numpy import random``,
        ``from numpy.random import default_rng``, ...).
        """
        return _dotted(node, self._aliases)


def _noqa_suppresses(lines: Sequence[str], violation: Violation) -> bool:
    """Whether ``violation``'s line in ``lines`` carries a matching noqa."""
    if not 1 <= violation.line <= len(lines):
        return False
    match = _NOQA_PATTERN.search(lines[violation.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    wanted = {code.strip() for code in codes.split(",") if code.strip()}
    return violation.rule in wanted


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted prefixes."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports cannot be resolved statically
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _dotted(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain, alias-resolved."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    head = aliases.get(parts[0], parts[0])
    return ".".join([head, *parts[1:]])


def _registry_runners(tree: ast.Module, aliases: Dict[str, str]) -> List[str]:
    """Dotted runner names of the ``Experiment(...)`` calls in ``tree``.

    ``Experiment("table2", ..., table2.run)`` (positional or ``runner=``
    keyword) yields ``repro.experiments.table2.run`` after alias
    resolution; a runner defined in the registry itself stays a bare name.
    """
    runners: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        func_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if func_name != "Experiment":
            continue
        runner: Optional[ast.expr] = None
        if len(node.args) >= 4:
            runner = node.args[3]
        for keyword in node.keywords:
            if keyword.arg == "runner":
                runner = keyword.value
        canonical = _dotted(runner, aliases) if runner is not None else None
        if canonical is not None:
            runners.append(canonical)
    return runners


def registered_experiment_modules(source: str) -> FrozenSet[str]:
    """Module names of the experiments registered in registry ``source``.

    The module of each ``Experiment(...)`` runner, resolved through the
    registry's imports (``table2.run`` -> ``table2``).
    """
    tree = ast.parse(source)
    return frozenset(
        runner.split(".")[-2]
        for runner in _registry_runners(tree, _import_aliases(tree))
        if "." in runner
    )


def check_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Sequence[LintRule]] = None,
    registered_experiments: Optional[FrozenSet[str]] = None,
    respect_noqa: bool = True,
) -> List[Violation]:
    """Lint one source string; the core API the CLI and tests share."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Violation(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                rule="REPRO900",
                message=f"syntax error prevents linting: {error.msg}",
            )
        ]
    context = ModuleContext(
        path=path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        registered_experiments=registered_experiments,
    )
    active_rules = list(rules) if rules is not None else build_rules()
    violations: List[Violation] = []
    for rule in active_rules:
        violations.extend(rule.check_module(context))
    if respect_noqa:
        violations = [
            v for v in violations if not _noqa_suppresses(context.lines, v)
        ]
    return sorted(violations)


def check_file(
    path: Path,
    *,
    rules: Optional[Sequence[LintRule]] = None,
    registered_experiments: Optional[FrozenSet[str]] = None,
    respect_noqa: bool = True,
) -> List[Violation]:
    """Lint one file from disk."""
    source = Path(path).read_text(encoding="utf-8")
    return check_source(
        source,
        str(path),
        rules=rules,
        registered_experiments=registered_experiments,
        respect_noqa=respect_noqa,
    )


def iter_python_files(
    roots: Iterable[Path],
    *,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Yield every ``.py`` file under ``roots``, skipping excluded dirs."""
    for root in roots:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for candidate in sorted(root.rglob("*.py")):
            relative = candidate.relative_to(root)
            if any(part in excluded_dirs for part in relative.parts[:-1]):
                continue
            yield candidate


def _find_registry(files: Sequence[Path]) -> Optional[FrozenSet[str]]:
    for candidate in files:
        if (
            candidate.name == "registry.py"
            and candidate.parent.name == "experiments"
        ):
            return registered_experiment_modules(
                candidate.read_text(encoding="utf-8")
            )
    return None


def check_paths(
    roots: Sequence[Path],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
    respect_noqa: bool = True,
) -> Tuple[List[Violation], int]:
    """Lint every Python file under ``roots``.

    Returns
    -------
    tuple
        ``(violations, files_checked)``.  The experiment registry (for
        ``REPRO005``) is discovered automatically among the linted files.
    """
    rules = build_rules(select=select, ignore=ignore)
    files = list(iter_python_files(roots, excluded_dirs=excluded_dirs))
    registered = _find_registry(files)
    violations: List[Violation] = []
    for path in files:
        violations.extend(
            check_file(
                path,
                rules=rules,
                registered_experiments=registered,
                respect_noqa=respect_noqa,
            )
        )
    return sorted(violations), len(files)


def check_project(
    roots: Sequence[Path],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
    respect_noqa: bool = True,
    extra_boundaries: FrozenSet[str] = frozenset(),
) -> Tuple[List[Violation], object]:
    """Run the whole-program (REPRO1xx) rules over ``roots``.

    Builds the project call graph, runs every selected
    :class:`~repro.lint.project_rules.ProjectRule`, and filters findings
    through the same ``# repro: noqa`` matcher as the per-file pass - a
    whole-program finding anchors to the offending call site, so a noqa
    comment on that line suppresses it.

    Returns ``(violations, graph)``; the graph is returned so callers
    (tests, tooling) can inspect roots and reachability directly.
    """
    # Imported lazily: graph and project_rules import from this module.
    from repro.lint.graph import build_graph
    from repro.lint.project_rules import ProjectContext, build_project_rules

    graph = build_graph(roots, excluded_dirs=excluded_dirs)
    context = ProjectContext(
        graph=graph,
        roots=tuple(str(root) for root in roots),
        extra_boundaries=extra_boundaries,
    )
    select_f = frozenset(select) if select is not None else None
    ignore_f = frozenset(ignore) if ignore is not None else None
    violations: List[Violation] = []
    for rule in build_project_rules(select=select_f, ignore=ignore_f):
        violations.extend(rule.check_project(context))
    if respect_noqa:
        lines = {
            path: Path(path).read_text(encoding="utf-8").splitlines()
            for path in {violation.path for violation in violations}
        }
        violations = [
            violation
            for violation in violations
            if not _noqa_suppresses(lines[violation.path], violation)
        ]
    return sorted(violations), graph
