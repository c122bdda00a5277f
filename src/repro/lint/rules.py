"""Lint rules and their plugin registry.

Every rule is a class with a unique ``code`` (``REPROnnn``), a one-line
``summary`` and a ``check_module`` generator yielding
:class:`~repro.lint.analyzer.Violation` instances.  Registration happens
at import time through the :func:`register_rule` decorator, so adding a
rule is: subclass :class:`LintRule`, decorate, done - the CLI, the JSON
output and ``--select``/``--ignore`` pick it up automatically.

The shipped rule set encodes this repository's determinism and invariant
conventions:

``REPRO001``
    Unseeded RNG construction (``np.random.default_rng()`` with no seed,
    legacy ``np.random.*`` global-state calls, bare ``RandomState()``).
``REPRO002``
    A function that accepts ``rng``/``seed`` but falls back to
    constructing its own unseeded generator.
``REPRO003``
    Float equality (``==``/``!=``) on probabilities/utilities or against
    float literals; use ``math.isclose``/``np.isclose`` or a tolerance.
``REPRO004``
    Mutable default argument values.
``REPRO005``
    Experiment module defining ``run()`` but missing from
    ``repro.experiments.registry``.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Type

from repro.errors import LintError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.analyzer import ModuleContext, Violation

__all__ = [
    "LintRule",
    "RULE_REGISTRY",
    "all_rule_codes",
    "build_rules",
    "register_rule",
]

RULE_REGISTRY: Dict[str, Type["LintRule"]] = {}


def register_rule(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Class decorator adding a rule to the plugin registry."""
    code = cls.code
    if not re.fullmatch(r"REPRO\d{3}", code):
        raise LintError(f"rule code must match REPROnnn, got {code!r}")
    if code in RULE_REGISTRY:
        raise LintError(f"duplicate rule code {code!r}")
    RULE_REGISTRY[code] = cls
    return cls


def all_rule_codes() -> List[str]:
    """Sorted codes of every registered rule."""
    return sorted(RULE_REGISTRY)


def build_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List["LintRule"]:
    """Instantiate the registered rules, honouring select/ignore filters."""
    selected = set(select) if select is not None else set(RULE_REGISTRY)
    ignored = set(ignore) if ignore is not None else set()
    unknown = (selected | ignored) - set(RULE_REGISTRY)
    if unknown:
        raise LintError(
            f"unknown rule codes: {sorted(unknown)!r}; "
            f"known: {all_rule_codes()!r}"
        )
    return [
        RULE_REGISTRY[code]()
        for code in sorted(selected - ignored)
    ]


class LintRule:
    """Base class for lint rules (the plugin interface)."""

    code: str = "REPRO000"
    summary: str = ""

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        """Yield violations for one parsed module."""
        raise NotImplementedError

    # Helper shared by subclasses -------------------------------------
    def violation(
        self, context: "ModuleContext", node: ast.AST, message: str
    ) -> "Violation":
        from repro.lint.analyzer import Violation

        return Violation(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


# ----------------------------------------------------------------------
# RNG helpers
# ----------------------------------------------------------------------
#: Legacy numpy functions that mutate/read the hidden global RNG state.
_GLOBAL_STATE_FUNCS = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "get_state",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "weibull",
        "zipf",
    }
)


#: Generator constructors whose missing seed means OS entropy.
_RNG_FACTORIES = frozenset(
    {"numpy.random.default_rng", "numpy.random.RandomState"}
)


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unseeded_factory_call(call: ast.Call, canonical: str) -> bool:
    """``default_rng``/``RandomState`` called without a concrete seed."""
    if canonical not in _RNG_FACTORIES:
        return False
    if not call.args and not call.keywords:
        return True
    if call.args and _is_none(call.args[0]):
        return True
    return any(
        keyword.arg == "seed" and _is_none(keyword.value)
        for keyword in call.keywords
    )


def _global_state_call(canonical: str) -> bool:
    parts = canonical.split(".")
    return (
        len(parts) == 3
        and parts[0] == "numpy"
        and parts[1] == "random"
        and parts[2] in _GLOBAL_STATE_FUNCS
    )


@register_rule
class UnseededRngRule(LintRule):
    """REPRO001: all randomness must flow from an explicit seed."""

    code = "REPRO001"
    summary = (
        "unseeded RNG construction or legacy np.random global-state call"
    )

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = context.resolve(node.func)
            if canonical is None:
                continue
            if _unseeded_factory_call(node, canonical):
                yield self.violation(
                    context,
                    node,
                    f"{canonical}() without a seed draws OS entropy; pass "
                    "a seed/SeedSequence or use repro.rng.resolve_rng",
                )
            elif _global_state_call(canonical):
                yield self.violation(
                    context,
                    node,
                    f"{canonical}() uses numpy's hidden global RNG state; "
                    "use a seeded numpy.random.Generator instead",
                )


@register_rule
class RngFallbackRule(LintRule):
    """REPRO002: ``rng``/``seed`` takers must not invent their own stream."""

    code = "REPRO002"
    summary = (
        "function taking rng/seed constructs its own unseeded generator"
    )

    _PARAM_NAMES = frozenset({"rng", "seed", "random_state"})

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            arguments = node.args
            names = {
                arg.arg
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                )
            }
            taken = names & self._PARAM_NAMES
            if not taken:
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                canonical = context.resolve(inner.func)
                if canonical is None:
                    continue
                if _unseeded_factory_call(inner, canonical):
                    yield self.violation(
                        context,
                        inner,
                        f"{node.name}() takes {sorted(taken)!r} but falls "
                        "back to an unseeded generator; derive the "
                        "fallback from a fixed seed "
                        "(repro.rng.resolve_rng) or require the argument",
                    )


@register_rule
class FloatEqualityRule(LintRule):
    """REPRO003: tolerate floating point; never ``==`` it.

    A deliberate exact comparison (such as the Anderson step's
    ``den == 0.0`` guards in :mod:`repro.bianchi.meanfield`) carries a
    per-line ``# repro: noqa=REPRO003``.
    """

    code = "REPRO003"
    summary = "float equality comparison (use math.isclose or a tolerance)"

    _HINT = re.compile(
        r"(^|_)(tau|prob|probabilit|utilit|payoff|welfare|residual)"
    )
    _TOLERANT_CALLS = frozenset(
        {"approx", "isclose", "allclose", "assert_allclose"}
    )

    def _is_tolerant_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name in self._TOLERANT_CALLS

    def _is_float_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(
            node.value, float
        )

    def _hinted_name(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            identifier = node.attr
        elif isinstance(node, ast.Name):
            identifier = node.id
        else:
            return None
        if self._HINT.search(identifier.lower()):
            return identifier
        return None

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._is_tolerant_call(left) or self._is_tolerant_call(
                    right
                ):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(
                    right
                ):
                    yield self.violation(
                        context,
                        node,
                        "equality against a float literal; use "
                        "math.isclose/np.isclose or compare with a "
                        "tolerance",
                    )
                    continue
                hinted = self._hinted_name(left) or self._hinted_name(right)
                if hinted is not None:
                    yield self.violation(
                        context,
                        node,
                        f"float equality on {hinted!r} (probability/"
                        "utility-like quantity); use math.isclose/"
                        "np.isclose or compare with a tolerance",
                    )


@register_rule
class MutableDefaultRule(LintRule):
    """REPRO004: mutable default arguments alias state across calls."""

    code = "REPRO004"
    summary = "mutable default argument value"

    _MUTABLE_CALLS = frozenset(
        {
            "bytearray",
            "collections.OrderedDict",
            "collections.defaultdict",
            "collections.deque",
            "dict",
            "list",
            "numpy.array",
            "numpy.empty",
            "numpy.ones",
            "numpy.zeros",
            "set",
        }
    )

    def _is_mutable(
        self, context: "ModuleContext", node: ast.expr
    ) -> bool:
        if isinstance(
            node,
            (
                ast.List,
                ast.Dict,
                ast.Set,
                ast.ListComp,
                ast.DictComp,
                ast.SetComp,
            ),
        ):
            return True
        if isinstance(node, ast.Call):
            canonical = context.resolve(node.func)
            return canonical in self._MUTABLE_CALLS
        return False

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            arguments = node.args
            defaults = [
                *arguments.defaults,
                *(d for d in arguments.kw_defaults if d is not None),
            ]
            for default in defaults:
                if self._is_mutable(context, default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        context,
                        default,
                        f"mutable default argument in {name}(); default "
                        "to None and create the object inside the "
                        "function",
                    )


@register_rule
class UnregisteredExperimentRule(LintRule):
    """REPRO005: every experiment must be enumerable by tooling."""

    code = "REPRO005"
    summary = (
        "experiment module with run() missing from "
        "repro.experiments.registry"
    )

    #: Infrastructure modules of ``repro/experiments/`` that are not
    #: experiments themselves.
    INFRASTRUCTURE = frozenset(
        {
            "__init__",
            "__main__",
            "export",
            "parallel",
            "plotting",
            "registry",
            "reporting",
        }
    )

    def check_module(
        self, context: "ModuleContext"
    ) -> Iterator["Violation"]:
        registered = context.registered_experiments
        if registered is None:
            return
        if context.parent_dir_name != "experiments":
            return
        stem = context.module_stem
        if stem in self.INFRASTRUCTURE or stem in registered:
            return
        for node in ast.iter_child_nodes(context.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "run"
            ):
                yield self.violation(
                    context,
                    node,
                    f"experiment module {stem!r} defines run() but has no "
                    "entry in repro.experiments.registry; register it so "
                    "the CLI/benchmarks can enumerate it",
                )
                return

