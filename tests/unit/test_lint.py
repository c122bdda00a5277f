"""Tests for the determinism/invariant linter (``repro.lint``).

Rule-level behavior is pinned against inline snippets; the end-to-end
paths (file discovery, registry lookup, noqa, CLI exit codes and JSON
output) run against the fixture tree in ``tests/lint_fixtures``, which is
excluded from repository-wide lint runs precisely so it can contain
deliberate violations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    RULE_REGISTRY,
    all_rule_codes,
    build_rules,
    check_paths,
    check_source,
)
from repro.lint.analyzer import (
    DEFAULT_EXCLUDED_DIRS,
    registered_experiment_modules,
)
from repro.lint.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "lint_fixtures"


def codes(violations):
    return [v.rule for v in violations]


# ----------------------------------------------------------------- REPRO001
class TestUnseededRng:
    def test_flags_default_rng_without_seed(self):
        found = check_source("import numpy as np\nr = np.random.default_rng()\n")
        assert codes(found) == ["REPRO001"]
        assert found[0].line == 2

    def test_flags_explicit_none_seed(self):
        source = (
            "from numpy.random import default_rng\n"
            "a = default_rng(None)\n"
            "b = default_rng(seed=None)\n"
        )
        assert codes(check_source(source)) == ["REPRO001", "REPRO001"]

    def test_flags_global_state_calls(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)\n"
            "x = np.random.uniform(size=3)\n"
        )
        assert codes(check_source(source)) == ["REPRO001", "REPRO001"]

    def test_accepts_seeded_generator(self):
        source = (
            "import numpy as np\n"
            "r = np.random.default_rng(2007)\n"
            "s = np.random.default_rng(np.random.SeedSequence(7))\n"
        )
        assert check_source(source) == []

    def test_import_alias_is_resolved(self):
        found = check_source(
            "import numpy.random as npr\nr = npr.default_rng()\n"
        )
        assert codes(found) == ["REPRO001"]


# ----------------------------------------------------------------- REPRO002
class TestRngFallback:
    def test_flags_or_fallback(self):
        source = (
            "import numpy as np\n"
            "def sample(n, rng=None):\n"
            "    g = rng or np.random.default_rng()\n"
            "    return g.uniform(size=n)\n"
        )
        found = check_source(source)
        assert sorted(codes(found)) == ["REPRO001", "REPRO002"]

    def test_flags_seed_branch_fallback(self):
        source = (
            "import numpy as np\n"
            "def sim(seed=None):\n"
            "    if seed is None:\n"
            "        g = np.random.default_rng()\n"
            "    else:\n"
            "        g = np.random.default_rng(seed)\n"
            "    return g\n"
        )
        assert "REPRO002" in codes(check_source(source))

    def test_accepts_deterministic_fallback(self):
        source = (
            "import numpy as np\n"
            "def sample(n, rng=None):\n"
            "    g = rng if rng is not None else np.random.default_rng(7)\n"
            "    return g.uniform(size=n)\n"
        )
        assert check_source(source) == []

    def test_ignores_functions_without_rng_parameter(self):
        source = (
            "import numpy as np\n"
            "def scratch():\n"
            "    return np.random.default_rng()\n"
        )
        # Still REPRO001 (unseeded), but not a fallback violation.
        assert codes(check_source(source)) == ["REPRO001"]


# ----------------------------------------------------------------- REPRO003
class TestFloatEquality:
    def test_flags_float_literal_comparison(self):
        assert codes(check_source("ok = x == 0.25\n")) == ["REPRO003"]
        assert codes(check_source("ok = x != -1.5\n")) == ["REPRO003"]

    def test_flags_probability_named_operands(self):
        assert codes(check_source("same = tau_a == tau_b\n")) == ["REPRO003"]
        assert codes(
            check_source("hit = outcome.utility == target\n")
        ) == ["REPRO003"]

    def test_accepts_int_literal_comparison(self):
        assert check_source("done = count == 3\n") == []

    def test_accepts_isclose_comparisons(self):
        source = (
            "import math\n"
            "import numpy as np\n"
            "a = math.isclose(tau, 0.25)\n"
            "b = np.allclose(tau_estimates, reference)\n"
        )
        assert check_source(source) == []

    def test_accepts_unhinted_name_comparison(self):
        assert check_source("same = left == right\n") == []

    def test_batched_solver_module_is_exempt(self):
        # No module is exempt from REPRO003: a deliberate exact guard
        # carries a per-line noqa (as the Anderson step's do in
        # meanfield.py).
        source = "safe = den == 0.0\nusable = den != 0.0\n"
        assert codes(
            check_source(source, "src/repro/bianchi/batched.py")
        ) == ["REPRO003", "REPRO003"]


# ----------------------------------------------------------------- REPRO004
class TestMutableDefault:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "np.zeros(3)", "[x for x in y]"]
    )
    def test_flags_mutable_defaults(self, default):
        source = f"import numpy as np\ndef f(a, b={default}):\n    return b\n"
        assert codes(check_source(source)) == ["REPRO004"]

    def test_flags_keyword_only_and_lambda_defaults(self):
        assert codes(
            check_source("def f(*, acc=[]):\n    return acc\n")
        ) == ["REPRO004"]
        assert codes(check_source("g = lambda acc=[]: acc\n")) == ["REPRO004"]

    def test_accepts_immutable_defaults(self):
        source = "def f(a=1, b=(), c='x', d=None, e=frozenset()):\n    return a\n"
        assert check_source(source) == []


# ----------------------------------------------------------------- REPRO005
class TestUnregisteredExperiment:
    def test_registry_parse(self):
        registry = (FIXTURES / "experiments" / "registry.py").read_text()
        assert registered_experiment_modules(registry) == frozenset({"good_exp"})

    def test_real_registry_covers_real_experiments(self):
        root = Path(__file__).resolve().parents[2]
        violations, _ = check_paths([root / "src" / "repro" / "experiments"])
        assert [v for v in violations if v.rule == "REPRO005"] == []

    def test_orphan_flagged_registered_not(self):
        violations, _ = check_paths([FIXTURES / "experiments"])
        flagged = [v for v in violations if v.rule == "REPRO005"]
        assert [Path(v.path).name for v in flagged] == ["orphan.py"]

    def test_skipped_without_registry(self):
        source = "def run(seed=0):\n    return {}\n"
        # No registry context -> rule must stay silent rather than guess.
        assert check_source(source, "experiments/orphan.py") == []


# --------------------------------------------------------------- suppression
class TestNoqa:
    def test_code_specific_and_bare_noqa(self):
        path = FIXTURES / "suppressed.py"
        violations, _ = check_paths([path])
        assert violations == []

    def test_no_noqa_reveals_suppressed(self):
        violations, _ = check_paths([FIXTURES / "suppressed.py"], respect_noqa=False)
        assert sorted(codes(violations)) == ["REPRO001", "REPRO003", "REPRO004"]

    def test_noqa_for_other_code_does_not_suppress(self):
        source = "import numpy as np\nr = np.random.default_rng()  # repro: noqa=REPRO004\n"
        assert codes(check_source(source)) == ["REPRO001"]


# ------------------------------------------------------------------ registry
class TestRuleRegistry:
    def test_catalogue(self):
        assert all_rule_codes() == [
            "REPRO001",
            "REPRO002",
            "REPRO003",
            "REPRO004",
            "REPRO005",
        ]

    def test_select_and_ignore(self):
        selected = build_rules(select=["REPRO003"])
        assert [r.code for r in selected] == ["REPRO003"]
        remaining = build_rules(ignore=["REPRO003", "REPRO005"])
        assert [r.code for r in remaining] == [
            "REPRO001", "REPRO002", "REPRO004",
        ]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            build_rules(select=["REPRO999"])

    def test_every_rule_has_a_summary(self):
        for code, rule_cls in RULE_REGISTRY.items():
            assert rule_cls.summary, code


# ----------------------------------------------------------------- discovery
class TestDiscoveryAndSyntax:
    def test_fixture_dir_is_excluded_from_tree_runs(self):
        assert "lint_fixtures" in DEFAULT_EXCLUDED_DIRS

    def test_syntax_error_reported_not_raised(self):
        found = check_source("def broken(:\n", "oops.py")
        assert codes(found) == ["REPRO900"]

    def test_fixture_sweep_totals(self):
        violations, files_checked = check_paths([FIXTURES])
        assert files_checked == 14
        by_rule = {}
        for violation in violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        assert by_rule == {
            "REPRO001": 9,
            "REPRO002": 2,
            "REPRO003": 3,
            "REPRO004": 3,
            "REPRO005": 1,
        }


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        assert main([str(FIXTURES / "clean_module.py")]) == 0
        assert "clean: 1 file checked" in capsys.readouterr().out

    def test_exit_one_on_violations(self, capsys):
        assert main([str(FIXTURES / "bad_rng.py")]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" in out

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["--select", "REPRO999", str(FIXTURES)]) == 2

    def test_json_output(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "bad_float_eq.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"REPRO003": 3}
        first = payload["violations"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}

    def test_select_filters_rules(self, capsys):
        assert main(["--select", "REPRO004", str(FIXTURES / "bad_rng.py")]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_rule_codes():
            assert code in out
