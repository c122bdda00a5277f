"""Unit tests for the whole-program call graph (repro.lint.graph)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.graph import build_graph

FIXTURES = Path(__file__).resolve().parent.parent / "lint_fixtures"
WHOLEPROGRAM = FIXTURES / "wholeprogram"


def write_tree(root: Path, files: dict) -> Path:
    for name, source in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


class TestGraphConstruction:
    def test_functions_and_modules_collected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """
                    def helper():
                        return 1

                    class Thing:
                        def method(self):
                            return helper()
                """,
            },
        )
        graph = build_graph([tmp_path])
        assert "pkg.mod" in graph.modules
        assert "pkg.mod.helper" in graph.functions
        assert "pkg.mod.Thing.method" in graph.functions

    def test_same_module_call_edge_resolves(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "solo.py": """
                    def inner():
                        return 1

                    def outer():
                        return inner()
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("solo.outer")
        assert any(c.resolved and c.callee == "solo.inner" for c in calls)

    def test_cross_module_call_edge_resolves(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                    def work():
                        return 1
                """,
                "pkg/b.py": """
                    from pkg.a import work

                    def caller():
                        return work()
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("pkg.b.caller")
        assert any(c.resolved and c.callee == "pkg.a.work" for c in calls)

    def test_package_reexport_resolves(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import work\n",
                "pkg/impl.py": """
                    def work():
                        return 1
                """,
                "pkg/user.py": """
                    from pkg import work

                    def caller():
                        return work()
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("pkg.user.caller")
        assert any(c.resolved and c.callee == "pkg.impl.work" for c in calls)

    def test_function_reference_argument_creates_edge(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "hof.py": """
                    def dispatch(fn, items):
                        return [fn(item) for item in items]

                    def worker(item):
                        return item + 1

                    def driver(items):
                        return dispatch(worker, items)
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("hof.driver")
        assert any(c.resolved and c.callee == "hof.worker" for c in calls)

    def test_parameter_name_is_not_a_function_reference(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "shadow.py": """
                    def worker(item):
                        return item

                    def driver(worker):
                        return len(worker)
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("shadow.driver")
        assert not any(c.callee == "shadow.worker" for c in calls)

    def test_method_on_module_level_instance_resolves(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/clock.py": """
                    class Clock:
                        def now(self):
                            return 0.0
                """,
                "pkg/user.py": """
                    from pkg.clock import Clock

                    _CLOCK = Clock()

                    def caller():
                        return _CLOCK.now()
                """,
            },
        )
        graph = build_graph([tmp_path])
        assert graph.modules["pkg.user"].instances == {
            "_CLOCK": "pkg.clock.Clock"
        }
        calls = graph.callees("pkg.user.caller")
        assert any(
            c.resolved and c.callee == "pkg.clock.Clock.now" for c in calls
        )

    def test_imported_instance_resolves_through_its_module(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/clock.py": """
                    class Clock:
                        def now(self):
                            return 0.0

                    CLOCK = Clock()
                """,
                "pkg/user.py": """
                    from pkg.clock import CLOCK

                    def caller():
                        return CLOCK.now()

                    def passes_it_on(fn):
                        return fn(CLOCK)
                """,
            },
        )
        graph = build_graph([tmp_path])
        calls = graph.callees("pkg.user.caller")
        assert any(
            c.resolved and c.callee == "pkg.clock.Clock.now" for c in calls
        )
        # Passing the instance along is not a call of its class.
        passed = graph.callees("pkg.user.passes_it_on")
        assert not any(c.callee.startswith("pkg.clock.Clock") for c in passed)

    def test_local_shadowing_an_instance_does_not_resolve(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "solo.py": """
                    class Clock:
                        def now(self):
                            return 0.0

                    _CLOCK = Clock()

                    def caller(_CLOCK):
                        return _CLOCK.now()

                    def rebinds(other):
                        _CLOCK = other
                        return _CLOCK.now()
                """,
            },
        )
        graph = build_graph([tmp_path])
        for qname in ("solo.caller", "solo.rebinds"):
            assert not any(c.resolved for c in graph.callees(qname)), qname


class TestEffectExtraction:
    def _effects(self, tmp_path, body):
        write_tree(tmp_path, {"mod.py": body})
        graph = build_graph([tmp_path])
        return {
            (effect.kind, effect.detail)
            for info in graph.functions.values()
            for effect in info.effects
        }

    def test_time_read(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            import time

            def f():
                return time.time()
            """,
        )
        assert ("time", "time.time()") in effects

    def test_env_read_and_write(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            import os

            def f():
                value = os.environ["HOME"]
                os.environ["X"] = "1"
                return value
            """,
        )
        kinds = {kind for kind, _ in effects}
        assert "env" in kinds

    def test_global_statement_flagged(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            _CACHE = None

            def f(value):
                global _CACHE
                _CACHE = value
            """,
        )
        assert ("global-write", "global _CACHE") in effects

    def test_module_level_mutation_flagged(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            _CACHE = {}

            def f(key, value):
                _CACHE[key] = value
            """,
        )
        assert any(kind == "global-write" for kind, _ in effects)

    def test_mutating_method_on_module_global(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            _SEEN = []

            def f(item):
                _SEEN.append(item)
            """,
        )
        assert any(kind == "global-write" for kind, _ in effects)

    def test_local_shadow_not_flagged(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            _CACHE = {}

            def f(key, value):
                _CACHE = {}
                _CACHE[key] = value
                return _CACHE
            """,
        )
        assert not any(kind == "global-write" for kind, _ in effects)

    def test_io_calls(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            from pathlib import Path

            def f(path):
                data = open(path).read()
                Path(path).write_text(data)
                return data
            """,
        )
        io_details = {d for kind, d in effects if kind == "io"}
        assert "open()" in io_details
        assert ".write_text()" in io_details

    def test_pure_function_has_no_effects(self, tmp_path):
        effects = self._effects(
            tmp_path,
            """
            def f(values):
                total = 0
                for value in values:
                    total += value
                return total
            """,
        )
        assert effects == set()


class TestRoots:
    def test_registry_runners_become_roots(self):
        graph = build_graph([WHOLEPROGRAM])
        assert {"cached_runner.run", "instance_runner.run"} <= set(graph.roots)

    def test_declared_analysis_roots(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    ANALYSIS_ROOTS = ("mod.kernel",)

                    def kernel(x):
                        return x * 2
                """,
            },
        )
        graph = build_graph([tmp_path])
        assert graph.roots == ("mod.kernel",)

    def test_unresolved_roots_surface(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": """
                    ANALYSIS_ROOTS = ("mod.gone",)

                    def kernel(x):
                        return x
                """,
            },
        )
        graph = build_graph([tmp_path])
        assert graph.unresolved_roots() == ("mod.gone",)

    def test_real_tree_roots_cover_all_registered_runners(self):
        graph = build_graph([Path("src")])
        roots = set(graph.roots)
        # Every Experiment(...) registration contributes its runner.
        registry = graph.modules["repro.experiments.registry"]
        assert registry.registry_runners
        assert set(registry.registry_runners) <= roots
        # The declared solver roots are certified too.
        assert "repro.serve.solvers.solve_request" in roots
        assert "repro.bianchi.meanfield.solve_mean_field_batch" in roots
        # Config drift guard: every declared root resolves.
        assert graph.unresolved_roots() == ()

    def test_exception_classes_transitive(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "errors.py": """
                    class ReproError(Exception):
                        pass

                    class StoreError(ReproError):
                        pass

                    class IntegrityError(StoreError):
                        pass

                    class Unrelated(Exception):
                        pass
                """,
            },
        )
        graph = build_graph([tmp_path])
        approved = graph.exception_classes()
        assert "errors.StoreError" in approved
        assert "errors.IntegrityError" in approved
        assert "errors.Unrelated" not in approved
