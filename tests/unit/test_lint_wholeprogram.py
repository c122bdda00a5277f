"""Tests for the whole-program REPRO1xx rules (purity, RNG provenance,
exception contract) and the real-tree certification."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.analyzer import check_project
from repro.lint.project_rules import (
    PROJECT_RULE_REGISTRY,
    all_project_rule_codes,
    build_project_rules,
    register_project_rule,
)

FIXTURES = Path(__file__).resolve().parent.parent / "lint_fixtures"
WHOLEPROGRAM = FIXTURES / "wholeprogram"
SRC = Path(__file__).resolve().parent.parent.parent / "src"


def deep_check(root, **kwargs):
    violations, graph = check_project([root], **kwargs)
    return violations, graph


def write_tree(root: Path, files: dict) -> Path:
    for name, source in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def fixture_report():
    violations, graph = check_project([WHOLEPROGRAM])
    return violations, graph


class TestPurityRule:
    def test_injected_time_read_fails_with_call_chain(self, fixture_report):
        violations, _ = fixture_report
        purity = [v for v in violations if v.rule == "REPRO101"]
        assert purity, "time.time() in a cached runner must be flagged"
        finding = purity[0]
        assert finding.path.endswith("cached_runner.py")
        assert "reads the wall clock" in finding.message
        assert "time.time()" in finding.message
        assert (
            "cached_runner.run -> cached_runner._sweep -> "
            "cached_runner._stamp" in finding.message
        )

    def test_time_read_behind_module_level_instance(self, fixture_report):
        violations, _ = fixture_report
        purity = [
            v
            for v in violations
            if v.rule == "REPRO101" and v.path.endswith("instance_runner.py")
        ]
        assert len(purity) == 1
        assert "time.time()" in purity[0].message
        assert (
            "call chain: instance_runner.run -> instance_runner._stamp -> "
            "instance_runner.Clock.now." in purity[0].message
        )

    def test_chain_is_shortest_path(self, tmp_path):
        # Two routes to the impure callee; the report must take the
        # direct one, not the detour.
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import time

                    ANALYSIS_ROOTS = ("mod.run",)

                    def _stamp():
                        return time.time()

                    def _detour():
                        return _stamp()

                    def run():
                        _detour()
                        return _stamp()
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO101"])
        assert len(violations) == 1
        assert "mod.run -> mod._stamp" in violations[0].message
        assert "_detour" not in violations[0].message

    def test_sanctioned_boundary_not_traversed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import time

                    ANALYSIS_ROOTS = ("mod.run",)

                    def blessed():
                        return time.time()

                    def run():
                        return blessed()
                """,
            },
        )
        flagged, _ = deep_check(tmp_path, select=["REPRO101"])
        assert len(flagged) == 1
        clean, _ = deep_check(
            tmp_path,
            select=["REPRO101"],
            extra_boundaries=frozenset({"mod.blessed"}),
        )
        assert clean == []

    def test_global_mutation_reachable_from_root(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    ANALYSIS_ROOTS = ("mod.run",)

                    _MEMO = {}

                    def _lookup(key):
                        _MEMO[key] = True
                        return _MEMO[key]

                    def run(key):
                        return _lookup(key)
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO101"])
        assert len(violations) == 1
        assert "mutates module-level state" in violations[0].message

    def test_unreachable_impurity_not_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import time

                    ANALYSIS_ROOTS = ("mod.run",)

                    def untouched():
                        return time.time()

                    def run(x):
                        return x * 2
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO101"])
        assert violations == []


class TestRngProvenanceRule:
    def test_bare_default_rng_two_hops_from_draw(self, fixture_report):
        violations, _ = fixture_report
        taint = [v for v in violations if v.rule == "REPRO102"]
        assert len(taint) == 1
        finding = taint[0]
        assert finding.path.endswith("tainted_rng.py")
        assert ".integers()" in finding.message
        assert "tainted_rng.make_generator" in finding.message
        assert "tainted_rng.sample_windows" in finding.message

    def test_resolve_rng_and_spawned_paths_clean(self, fixture_report):
        violations, _ = fixture_report
        assert not any(
            v.path.endswith("clean_rng.py") for v in violations
        ), "seed-provenanced fixture must produce zero findings"

    def test_taint_through_argument_positions(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import numpy as np

                    def draw(count, rng):
                        return rng.random(count)

                    def run(count):
                        rng = np.random.default_rng()
                        return draw(count, rng)
                """,
            },
        )
        violations, _ = deep_check(
            tmp_path, select=["REPRO102"], respect_noqa=False
        )
        assert len(violations) == 1
        assert "mod.draw" in violations[0].message

    def test_seeded_default_rng_is_provenanced(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import numpy as np

                    def run(seed, count):
                        rng = np.random.default_rng(seed)
                        return rng.random(count)
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO102"])
        assert violations == []


class TestExceptionContractRule:
    def test_public_api_builtin_raise_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/errors.py": """
                    class ReproError(Exception):
                        pass
                """,
                "repro/api.py": """
                    def load(path):
                        raise ValueError("bad path")
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO103"])
        assert len(violations) == 1
        assert "raises builtin ValueError" in violations[0].message

    def test_repro_errors_hierarchy_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/errors.py": """
                    class ReproError(Exception):
                        pass

                    class StoreError(ReproError):
                        pass
                """,
                "repro/api.py": """
                    from repro.errors import StoreError

                    def load(path):
                        raise StoreError("bad path")

                    def todo():
                        raise NotImplementedError

                    def _internal(path):
                        raise ValueError("private: out of contract")
                """,
            },
        )
        violations, _ = deep_check(tmp_path, select=["REPRO103"])
        assert violations == []


class TestRealTreeCertification:
    """The acceptance bar: the shipped tree certifies clean with zero
    suppressions."""

    @pytest.fixture(scope="class")
    def real_report(self):
        violations, graph = check_project([SRC], respect_noqa=False)
        return violations, graph

    def test_purity_certified_for_all_roots(self, real_report):
        violations, graph = real_report
        assert [v for v in violations if v.rule == "REPRO101"] == []
        roots = set(graph.roots)
        registry = graph.modules["repro.experiments.registry"]
        assert len(registry.registry_runners) >= 12
        assert set(registry.registry_runners) <= roots

    def test_rng_provenance_clean_without_noqa(self, real_report):
        violations, _ = real_report
        assert [v for v in violations if v.rule == "REPRO102"] == []

    def test_exception_contract_clean(self, real_report):
        violations, _ = real_report
        assert [v for v in violations if v.rule == "REPRO103"] == []

    def test_all_declared_roots_resolve(self, real_report):
        _, graph = real_report
        assert graph.unresolved_roots() == ()


class TestRegistry:
    def test_catalogue(self):
        assert all_project_rule_codes() == [
            "REPRO101",
            "REPRO102",
            "REPRO103",
        ]

    def test_select_and_ignore(self):
        rules = build_project_rules(select=frozenset({"REPRO101"}))
        assert [r.code for r in rules] == ["REPRO101"]
        rules = build_project_rules(ignore=frozenset({"REPRO103"}))
        assert [r.code for r in rules] == ["REPRO101", "REPRO102"]

    def test_bad_code_rejected(self):
        with pytest.raises(LintError):

            @register_project_rule
            class Bad:
                code = "REPRO999"

    def test_duplicate_code_rejected(self):
        existing = PROJECT_RULE_REGISTRY["REPRO101"]
        with pytest.raises(LintError):
            register_project_rule(existing)


class TestDeepNoqa:
    def test_noqa_on_call_site_suppresses_deep_finding(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    import time

                    ANALYSIS_ROOTS = ("mod.run",)

                    def run():
                        return time.time()  # repro: noqa=REPRO101
                """,
            },
        )
        suppressed, _ = deep_check(tmp_path, select=["REPRO101"])
        assert suppressed == []
        kept, _ = deep_check(
            tmp_path, select=["REPRO101"], respect_noqa=False
        )
        assert len(kept) == 1
