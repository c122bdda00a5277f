"""Project-wide module/call graph for whole-program lint rules.

:func:`build_graph` parses every Python file under the given roots once
and produces a :class:`ProjectGraph`: modules, their import aliases,
every function/method with

* resolved **call edges** (``repro.experiments.table2.run`` calling
  ``repro.sim.adaptive.measure_per_node_optimum`` becomes an edge, with
  the call site position),
* a **direct effect summary** (filesystem/network I/O, wall-clock and
  environment reads, entropy draws, module-state mutation, unsanctioned
  :mod:`repro.obs` recorder use),
* **raise sites** with the resolved exception name, and
* a compact **RNG micro-op** sequence (generator construction, copies,
  argument passing, sampling calls) that :mod:`repro.lint.flow` replays
  interprocedurally for the REPRO102 provenance analysis.

The graph also collects the project's *analysis roots* - the functions
whose results enter the content-addressed cache and therefore must be
certified pure:

* every runner registered through ``Experiment(...)`` calls in an
  ``experiments/registry.py`` module (extracted statically, so a newly
  registered experiment is certified automatically), and
* every dotted name declared in a module-level ``ANALYSIS_ROOTS`` tuple
  (the store/campaign registries declare their cache-entering dispatch
  targets this way).

Call edges follow module-level instances: after ``NAME = Class(...)`` at
module level, ``NAME.method()`` resolves to ``Class.method``, in that
module and wherever ``NAME`` is imported.

Like the per-file analyzer, the builder never imports the code it
checks - it is pure ``ast`` work, on the front end it shares with the
per-file pass (:mod:`repro.lint.analyzer`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.analyzer import (
    DEFAULT_EXCLUDED_DIRS,
    _dotted,
    _import_aliases,
    _registry_runners,
    iter_python_files,
)
from repro.lint.rules import _RNG_FACTORIES, _unseeded_factory_call

__all__ = [
    "ArgBinding",
    "CallSite",
    "Effect",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "RaiseSite",
    "RngOp",
    "build_graph",
]

# ---------------------------------------------------------------------------
# Effect classification tables (canonical dotted names, alias-resolved)
# ---------------------------------------------------------------------------
_TIME_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENV_READS = frozenset(
    {
        "os.getenv",
        "os.environ.get",
        "os.environ.items",
        "os.environ.keys",
        "os.environ.copy",
        "os.getcwd",
        "os.uname",
        "os.getpid",
        "platform.node",
        "platform.platform",
        "socket.gethostname",
        "getpass.getuser",
    }
)

_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)
_ENTROPY_PREFIXES = ("random.",)

_IO_CALLS = frozenset(
    {
        "open",
        "input",
        "print",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.rename",
        "os.replace",
        "os.symlink",
        "os.system",
        "os.popen",
    }
)
_IO_PREFIXES = (
    "subprocess.",
    "shutil.",
    "socket.",
    "urllib.",
    "requests.",
    "http.client.",
    "ftplib.",
    "tempfile.",
)
#: Method names (any receiver) that are unmistakably filesystem I/O.
#: Deliberately narrow - ``.open``/``.rename``/``.replace`` collide with
#: common container/string methods and stay out.
_IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "mkdir",
        "rmdir",
        "unlink",
        "touch",
        "symlink_to",
        "hardlink_to",
    }
)

#: Method calls on a *module-level* name that mutate it in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

#: ``Generator`` methods treated as sampling sites for REPRO102.
SAMPLING_METHODS = frozenset(
    {
        "random",
        "uniform",
        "integers",
        "normal",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "gamma",
        "beta",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "bytes",
        "bit_generator",
        "spawn",
    }
)

_RNG_CLEAN_SOURCES = frozenset(
    {"repro.rng.resolve_rng", "numpy.random.SeedSequence"}
)


# ---------------------------------------------------------------------------
# Graph data model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Effect:
    """One direct impurity observed in a function body."""

    kind: str  # "io" | "time" | "env" | "entropy" | "global-write" | "obs-recorder"
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class ArgBinding:
    """One argument at a call site: positional index or keyword -> var name."""

    position: Optional[int]
    keyword: Optional[str]
    var: str


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved as far as static analysis allows."""

    callee: str  # project qname when resolved, else canonical dotted name
    line: int
    col: int
    resolved: bool  # True when ``callee`` names a function in this graph
    args: Tuple[ArgBinding, ...] = ()


@dataclass(frozen=True)
class RaiseSite:
    """A ``raise X(...)`` statement with the resolved exception name."""

    exception: str  # canonical dotted name of the raised class
    line: int
    col: int


@dataclass(frozen=True)
class RngOp:
    """One micro-op of the per-function RNG provenance summary.

    ``op`` is one of:

    ``make``
        ``var`` bound to a freshly built generator; ``tainted`` says
        whether the construction is provenance-free (bare
        ``default_rng()``) or sanctioned (seeded/``resolve_rng``).
    ``copy``
        ``var`` bound to another local (``src``).
    ``call``
        ``var`` (may be empty) bound to the result of calling ``callee``;
        the bindings say which locals flow into which parameters.
    ``sample``
        a sampling method (``detail``) invoked on local ``var``.
    ``return``
        local ``src`` returned from the function.
    """

    op: str
    var: str = ""
    src: str = ""
    callee: str = ""
    detail: str = ""
    tainted: bool = False
    args: Tuple[ArgBinding, ...] = ()
    line: int = 0
    col: int = 0


@dataclass
class FunctionInfo:
    """Static summary of one function or method."""

    qname: str
    module: str
    name: str
    path: str
    line: int
    params: Tuple[str, ...]
    calls: List[CallSite] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    rng_ops: List[RngOp] = field(default_factory=list)
    is_public: bool = True


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str
    path: str
    functions: List[str] = field(default_factory=list)
    declared_roots: List[str] = field(default_factory=list)
    registry_runners: List[str] = field(default_factory=list)
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Local name -> canonical dotted target, for re-export resolution
    #: (``from repro.store import ResultStore`` resolves through the
    #: package ``__init__``'s own imports to the defining module).
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level ``NAME = Class(...)`` -> canonical ``Class`` name.
    instances: Dict[str, str] = field(default_factory=dict)


@dataclass
class ProjectGraph:
    """The whole-program analysis artefact."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def roots(self) -> Tuple[str, ...]:
        """Cache-entering analysis roots that resolve to known functions."""
        return tuple(
            sorted(name for name in self.declared_roots() if name in self.functions)
        )

    def declared_roots(self) -> Tuple[str, ...]:
        """Every declared/registered root, resolvable or not."""
        names: Set[str] = set()
        for module in self.modules.values():
            names.update(module.declared_roots)
            names.update(module.registry_runners)
        return tuple(sorted(names))

    def unresolved_roots(self) -> Tuple[str, ...]:
        """Declared roots with no matching function (config drift guard)."""
        return tuple(
            sorted(
                name
                for name in self.declared_roots()
                if name not in self.functions
            )
        )

    def callees(self, qname: str) -> List[CallSite]:
        info = self.functions.get(qname)
        return list(info.calls) if info is not None else []

    def exception_classes(self) -> FrozenSet[str]:
        """Project classes transitively derived from ``ReproError``."""
        bases: Dict[str, Tuple[str, ...]] = {}
        for module in self.modules.values():
            for cls, cls_bases in module.class_bases.items():
                bases[f"{module.name}.{cls}"] = cls_bases
        approved: Set[str] = {
            name for name in bases if name.endswith(".ReproError")
        }
        changed = True
        while changed:
            changed = False
            for name, cls_bases in bases.items():
                if name in approved:
                    continue
                if any(base in approved for base in cls_bases):
                    approved.add(name)
                    changed = True
        return frozenset(approved)


# ---------------------------------------------------------------------------
# Module-name mapping
# ---------------------------------------------------------------------------
def _module_name(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Per-function extraction
# ---------------------------------------------------------------------------
def _arg_bindings(call: ast.Call) -> Tuple[ArgBinding, ...]:
    bindings: List[ArgBinding] = []
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Name):
            bindings.append(ArgBinding(position, None, arg.id))
    for keyword in call.keywords:
        if keyword.arg is not None and isinstance(keyword.value, ast.Name):
            bindings.append(ArgBinding(None, keyword.arg, keyword.value.id))
    return tuple(bindings)


class _FunctionExtractor:
    """Builds one :class:`FunctionInfo` from a function AST node."""

    def __init__(
        self,
        module: str,
        path: str,
        aliases: Dict[str, str],
        module_globals: FrozenSet[str],
        instances: FrozenSet[str],
        local_functions: FrozenSet[str],
        class_name: Optional[str],
        class_methods: FrozenSet[str],
    ) -> None:
        self.module = module
        self.path = path
        self.aliases = aliases
        self.module_globals = module_globals
        self.instances = instances
        self.local_functions = local_functions
        self.class_name = class_name
        self.class_methods = class_methods
        self.shadowed: FrozenSet[str] = frozenset()

    def extract(self, node: ast.AST) -> FunctionInfo:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        arguments = node.args
        params = tuple(
            arg.arg
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            )
        )
        if self.class_name is not None:
            qname = f"{self.module}.{self.class_name}.{node.name}"
        else:
            qname = f"{self.module}.{node.name}"
        info = FunctionInfo(
            qname=qname,
            module=self.module,
            name=node.name,
            path=self.path,
            line=node.lineno,
            params=params,
            is_public=not node.name.startswith("_"),
        )
        self.shadowed = self._locally_bound_names(node)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                self._record_call(info, inner)
            elif isinstance(inner, ast.Global):
                info.effects.append(
                    Effect(
                        "global-write",
                        f"global {', '.join(inner.names)}",
                        inner.lineno,
                        inner.col_offset,
                    )
                )
            elif isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._record_assignment(info, inner)
            elif isinstance(inner, ast.Subscript) and isinstance(
                inner.ctx, ast.Load
            ):
                canonical = _dotted(inner.value, self.aliases)
                if canonical == "os.environ":
                    info.effects.append(
                        Effect(
                            "env",
                            "os.environ[...] read",
                            inner.lineno,
                            inner.col_offset,
                        )
                    )
            elif isinstance(inner, ast.Raise):
                self._record_raise(info, inner)
            elif isinstance(inner, ast.Return):
                self._record_return(info, inner)
        return info

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _locally_bound_names(
        node: ast.AST,
    ) -> FrozenSet[str]:
        """Names assigned (as plain locals) or taken as params in the body."""
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        bound: Set[str] = set(
            arg.arg
            for arg in (
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            )
        )
        if node.args.vararg is not None:
            bound.add(node.args.vararg.arg)
        if node.args.kwarg is not None:
            bound.add(node.args.kwarg.arg)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(inner.target, ast.Name):
                    bound.add(inner.target.id)
            elif isinstance(inner, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(inner.target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
            elif isinstance(inner, ast.comprehension):
                for name_node in ast.walk(inner.target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
            elif isinstance(inner, (ast.With, ast.AsyncWith)):
                for item in inner.items:
                    if item.optional_vars is not None:
                        for name_node in ast.walk(item.optional_vars):
                            if isinstance(name_node, ast.Name):
                                bound.add(name_node.id)
        return frozenset(bound)

    def _resolve_callee(self, call: ast.Call) -> Tuple[str, bool]:
        """``(name, resolved)`` for a call expression."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.class_name is not None
            and func.attr in self.class_methods
        ):
            return f"{self.module}.{self.class_name}.{func.attr}", True
        canonical = _dotted(func, self.aliases)
        if canonical is None:
            return "", False
        head = canonical.split(".")[0]
        if canonical in self.local_functions:
            return canonical, True
        if head not in self.aliases and f"{self.module}.{canonical}" in (
            self.local_functions
        ):
            return f"{self.module}.{canonical}", True
        if head in self.instances and head not in self.shadowed:
            # ``NAME.method()`` on a module-level instance: the link pass
            # resolves ``module.NAME.method`` through the instance's class.
            return f"{self.module}.{canonical}", False
        return canonical, False

    def _record_call(self, info: FunctionInfo, call: ast.Call) -> None:
        name, resolved = self._resolve_callee(call)
        if name:
            info.calls.append(
                CallSite(
                    name,
                    call.lineno,
                    call.col_offset,
                    resolved,
                    _arg_bindings(call),
                )
            )
        self._classify_effect_call(info, call, name if not resolved else "")
        self._record_rng_call(info, call, name, resolved)

    def _classify_effect_call(
        self, info: FunctionInfo, call: ast.Call, canonical: str
    ) -> None:
        def effect(kind: str, detail: str) -> None:
            info.effects.append(
                Effect(kind, detail, call.lineno, call.col_offset)
            )

        if canonical:
            if canonical in _TIME_READS:
                effect("time", f"{canonical}()")
            elif canonical in _ENV_READS:
                effect("env", f"{canonical}()")
            elif canonical in _ENTROPY_CALLS or canonical.startswith(
                _ENTROPY_PREFIXES
            ):
                effect("entropy", f"{canonical}()")
            elif canonical in _IO_CALLS or canonical.startswith(_IO_PREFIXES):
                effect("io", f"{canonical}()")
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _IO_METHODS:
                effect("io", f".{func.attr}()")
            elif func.attr in _MUTATING_METHODS and isinstance(
                func.value, ast.Name
            ):
                root = func.value.id
                if (
                    root in self.module_globals
                    and root not in self.shadowed
                ):
                    effect(
                        "global-write",
                        f"{root}.{func.attr}() mutates module-level state",
                    )

    def _record_assignment(
        self,
        info: FunctionInfo,
        node: ast.AST,
    ) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            targets, value = [node.target], node.value
        for target in targets:
            # Writing through an imported module's attribute, a module
            # global's subscript, or os.environ is module-state mutation.
            if isinstance(target, ast.Attribute):
                canonical = _dotted(target, self.aliases)
                root = target
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (
                    canonical is not None
                    and isinstance(root, ast.Name)
                    and root.id in self.aliases
                    and root.id not in self.shadowed
                ):
                    info.effects.append(
                        Effect(
                            "global-write",
                            f"assignment to {canonical}",
                            node.lineno,
                            node.col_offset,
                        )
                    )
            elif isinstance(target, ast.Subscript):
                canonical = _dotted(target.value, self.aliases)
                if canonical == "os.environ":
                    info.effects.append(
                        Effect(
                            "env",
                            "os.environ[...] write",
                            node.lineno,
                            node.col_offset,
                        )
                    )
                elif isinstance(target.value, ast.Name):
                    root_name = target.value.id
                    if (
                        root_name in self.module_globals
                        and root_name not in self.shadowed
                    ):
                        info.effects.append(
                            Effect(
                                "global-write",
                                f"{root_name}[...] write to module-level "
                                "state",
                                node.lineno,
                                node.col_offset,
                            )
                        )
        if value is not None:
            for target in targets:
                if isinstance(target, ast.Name):
                    self._record_rng_binding(info, target.id, value)

    # -- RNG micro-ops --------------------------------------------------
    def _rng_sources(self, value: ast.expr) -> List[Tuple[str, object]]:
        """Abstract sources of an expression: list of (kind, payload).

        Kinds: ``taint``/``clean`` (payload: detail str), ``var``
        (payload: name), ``call`` (payload: the ast.Call).
        """
        if isinstance(value, ast.Name):
            return [("var", value.id)]
        if isinstance(value, ast.IfExp):
            return self._rng_sources(value.body) + self._rng_sources(
                value.orelse
            )
        if isinstance(value, ast.BoolOp):
            sources: List[Tuple[str, object]] = []
            for operand in value.values:
                sources.extend(self._rng_sources(operand))
            return sources
        if isinstance(value, ast.Call):
            canonical = _dotted(value.func, self.aliases)
            if canonical in _RNG_FACTORIES:
                if _unseeded_factory_call(value, canonical):
                    return [("taint", f"{canonical}() without a seed")]
                seed_vars = [
                    arg.id for arg in value.args if isinstance(arg, ast.Name)
                ] + [
                    kw.value.id
                    for kw in value.keywords
                    if isinstance(kw.value, ast.Name)
                ]
                if seed_vars:
                    # Seeded from a local: inherits that local's taint.
                    return [("var", name) for name in seed_vars] + [
                        ("clean", f"{canonical}(seed)")
                    ]
                return [("clean", f"{canonical}(seed)")]
            if canonical in _RNG_CLEAN_SOURCES:
                return [("clean", f"{canonical}(...)")]
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "spawn"
                and isinstance(value.func.value, ast.Name)
            ):
                # spawned streams inherit the parent's provenance
                return [("var", value.func.value.id)]
            return [("call", value)]
        if isinstance(value, (ast.Tuple, ast.List)):
            sources = []
            for element in value.elts:
                sources.extend(self._rng_sources(element))
            return sources
        if isinstance(value, ast.Subscript):
            return self._rng_sources(value.value)
        if isinstance(value, ast.Starred):
            return self._rng_sources(value.value)
        return []

    def _emit_sources(
        self, info: FunctionInfo, var: str, value: ast.expr
    ) -> None:
        for kind, payload in self._rng_sources(value):
            line = getattr(value, "lineno", 0)
            col = getattr(value, "col_offset", 0)
            if kind in ("taint", "clean"):
                op = RngOp(
                    "make",
                    var=var,
                    detail=str(payload),
                    tainted=(kind == "taint"),
                    line=line,
                    col=col,
                )
            elif kind == "var":
                op = RngOp("copy", var=var, src=str(payload), line=line, col=col)
            else:
                call = payload
                assert isinstance(call, ast.Call)
                name, _resolved = self._resolve_callee(call)
                if not name:
                    continue
                # Unresolved canonical names are kept: the whole-graph
                # link pass rewrites them to project qnames when the
                # callee lives in another module.
                op = RngOp(
                    "call",
                    var=var,
                    callee=name,
                    args=_arg_bindings(call),
                    line=call.lineno,
                    col=call.col_offset,
                )
            info.rng_ops.append(op)

    def _record_rng_binding(
        self, info: FunctionInfo, var: str, value: ast.expr
    ) -> None:
        self._emit_sources(info, var, value)

    def _record_rng_call(
        self,
        info: FunctionInfo,
        call: ast.Call,
        name: str,
        resolved: bool,
    ) -> None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SAMPLING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            info.rng_ops.append(
                RngOp(
                    "sample",
                    var=func.value.id,
                    detail=func.attr,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )
        if name:
            info.rng_ops.append(
                RngOp(
                    "call",
                    var="",
                    callee=name,
                    args=_arg_bindings(call),
                    line=call.lineno,
                    col=call.col_offset,
                )
            )

    def _record_raise(self, info: FunctionInfo, node: ast.Raise) -> None:
        exc = node.exc
        if exc is None:
            return
        if isinstance(exc, ast.Call):
            exc = exc.func
        canonical = _dotted(exc, self.aliases)
        if canonical is None:
            return
        info.raises.append(
            RaiseSite(canonical, node.lineno, node.col_offset)
        )

    def _record_return(self, info: FunctionInfo, node: ast.Return) -> None:
        if node.value is None:
            return
        if isinstance(node.value, ast.Name):
            info.rng_ops.append(
                RngOp(
                    "return",
                    src=node.value.id,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
            return
        # Returned expressions flow through a synthetic local so the
        # interprocedural pass sees e.g. ``return default_rng()``.
        synthetic = "<return-value>"
        self._emit_sources(info, synthetic, node.value)
        info.rng_ops.append(
            RngOp(
                "return",
                src=synthetic,
                line=node.lineno,
                col=node.col_offset,
            )
        )


# ---------------------------------------------------------------------------
# Registry/root extraction
# ---------------------------------------------------------------------------
def _declared_roots(tree: ast.Module) -> List[str]:
    """String literals of a top-level ``ANALYSIS_ROOTS`` tuple/list."""
    roots: List[str] = []
    for node in ast.iter_child_nodes(tree):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        named = any(
            isinstance(target, ast.Name) and target.id == "ANALYSIS_ROOTS"
            for target in targets
        )
        if not named or not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                roots.append(element.value)
    return roots


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------
def _collect_module(
    graph: ProjectGraph, path: Path, source: str
) -> None:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return  # the per-file pass reports REPRO900 for this
    module = _module_name(path)
    aliases = _import_aliases(tree)
    info = ModuleInfo(name=module, path=str(path), import_aliases=aliases)
    module_globals: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        module_globals.update(names)
        if isinstance(node.value, ast.Call):
            cls = _dotted(node.value.func, aliases)
            if cls is not None:
                for name in names:
                    info.instances[name] = (
                        cls if "." in cls else f"{module}.{cls}"
                    )

    info.declared_roots = _declared_roots(tree)
    if path.name == "registry.py":
        info.registry_runners = [
            runner if "." in runner else f"{module}.{runner}"
            for runner in _registry_runners(tree, aliases)
        ]

    # First pass: enumerate functions/classes so calls can resolve to them.
    local_functions: Set[str] = set()
    class_methods: Dict[str, Set[str]] = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_functions.add(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            class_methods[node.name] = methods
            for method in methods:
                local_functions.add(f"{module}.{node.name}.{method}")
            bases = []
            for base in node.bases:
                canonical = _dotted(base, aliases)
                if canonical is not None:
                    if canonical in local_functions or "." not in canonical:
                        canonical = f"{module}.{canonical}"
                    bases.append(canonical)
            info.class_bases[node.name] = tuple(bases)

    frozen_globals = frozenset(module_globals)
    frozen_instances = frozenset(info.instances)
    frozen_locals = frozenset(local_functions)

    def add_function(node: ast.AST, class_name: Optional[str]) -> None:
        extractor = _FunctionExtractor(
            module,
            str(path),
            aliases,
            frozen_globals,
            frozen_instances,
            frozen_locals,
            class_name,
            frozenset(class_methods.get(class_name or "", ())),
        )
        function = extractor.extract(node)
        graph.functions[function.qname] = function
        info.functions.append(function.qname)

    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(item, node.name)
    graph.modules[module] = info


def _resolve_project_name(
    graph: ProjectGraph, name: str, *, _depth: int = 0
) -> Optional[str]:
    """Project function qname for a canonical dotted name, if any.

    Handles direct matches, class construction (``pkg.mod.Cls`` ->
    ``pkg.mod.Cls.__init__``) and package re-exports by following the
    import aliases of the longest module prefix (``repro.store.
    ResultStore`` -> the ``repro.store`` package's ``from repro.store.
    store import ResultStore`` -> ``repro.store.store.ResultStore``).
    A method on a module-level instance follows the instance's class
    (``pkg.mod._KERNELS.get`` with ``_KERNELS = LazyKernels()`` ->
    ``LazyKernels.get``).
    """
    if _depth > 8:  # re-export cycles cannot recurse forever
        return None
    if name in graph.functions:
        return name
    if f"{name}.__init__" in graph.functions:
        return f"{name}.__init__"
    parts = name.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module = graph.modules.get(".".join(parts[:split]))
        if module is None:
            continue
        head, rest = parts[split], parts[split + 1:]
        target = module.import_aliases.get(head)
        if target is None and rest:
            target = module.instances.get(head)
        if target is None:
            return None
        return _resolve_project_name(
            graph, ".".join([target, *rest]), _depth=_depth + 1
        )
    return None


def _function_reference(
    graph: ProjectGraph, info: FunctionInfo, var: str
) -> Optional[str]:
    """Project function a bare name argument refers to, if any."""
    if var in info.params:
        return None  # a parameter, not a module-level function reference
    candidate = f"{info.module}.{var}"
    if candidate in graph.functions:
        return candidate
    module = graph.modules.get(info.module)
    if module is not None:
        alias = module.import_aliases.get(var)
        if alias is not None:
            return _resolve_project_name(graph, alias)
    return None


def _link_graph(graph: ProjectGraph) -> None:
    """Second pass: resolve cross-module call edges and RNG callees."""
    for info in graph.functions.values():
        linked_calls: List[CallSite] = []
        for call in info.calls:
            if not call.resolved:
                target = _resolve_project_name(graph, call.callee)
                if target is not None:
                    call = CallSite(
                        target, call.line, call.col, True, call.args
                    )
            linked_calls.append(call)
            # A project function passed *by reference* (the worker given
            # to ``parallel_map``, an ``on_result`` hook, ...) will be
            # called by the receiver: add the higher-order edge so
            # purity certification follows it.
            for binding in call.args:
                target = _function_reference(graph, info, binding.var)
                if target is not None and target != call.callee:
                    linked_calls.append(
                        CallSite(target, call.line, call.col, True, ())
                    )
        info.calls = linked_calls
        linked_ops: List[RngOp] = []
        for op in info.rng_ops:
            if op.op == "call" and op.callee not in graph.functions:
                target = _resolve_project_name(graph, op.callee)
                if target is not None:
                    op = RngOp(
                        "call",
                        var=op.var,
                        callee=target,
                        args=op.args,
                        line=op.line,
                        col=op.col,
                    )
            linked_ops.append(op)
        info.rng_ops = linked_ops


def build_graph(
    roots: Sequence[Path],
    *,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> ProjectGraph:
    """Parse every file under ``roots`` into one :class:`ProjectGraph`."""
    graph = ProjectGraph()
    for path in iter_python_files(roots, excluded_dirs=excluded_dirs):
        _collect_module(graph, Path(path), path.read_text(encoding="utf-8"))
    _link_graph(graph)
    return graph
