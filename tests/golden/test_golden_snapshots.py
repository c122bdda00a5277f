"""Golden snapshots of the paper artefacts (Tables I-III, Figures 2/3,
the Section V.C search).

Each test runs one experiment in a small, fully seeded configuration
and compares the exported payload field-by-field against the canonical
JSON checked in under ``snapshots/``.  The configurations are chosen so
the whole module runs in about a second - the goldens pin the *numeric
pipeline*, not the paper-scale statistics (those live in
``tests/integration``).

Regenerate after an intended numeric change with::

    pytest tests/golden --update-golden
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    figure2,
    figure3,
    search_protocol,
    table1,
    table2,
    table3,
)
from repro.experiments.export import result_to_dict
from repro.game.definition import MACGame

from .conftest import GoldenComparer, normalize


def test_table1_golden(golden) -> None:
    golden.check("table1", result_to_dict(table1.run()))


def test_table2_golden(golden) -> None:
    result = table2.run(sizes=(5, 10), slots_per_point=8000, seed=0)
    golden.check("table2_small", result_to_dict(result))


def test_table3_golden(golden) -> None:
    result = table3.run(sizes=(5, 10), slots_per_point=8000, seed=0)
    golden.check("table3_small", result_to_dict(result))


def test_figure2_golden(golden) -> None:
    result = figure2.run(sizes=(5, 10), n_points=12)
    golden.check("figure2_small", result_to_dict(result))


def test_figure3_golden(golden) -> None:
    result = figure3.run(sizes=(5, 10), n_points=12)
    golden.check("figure3_small", result_to_dict(result))


def test_search_golden(golden) -> None:
    # The simulated rows and the raw probe payoffs pin the seeded probe
    # stream; the analytic rows pin the protocol itself.
    result = search_protocol.run(n_players=5, slots_per_probe=10_000, seed=0)
    measure = search_protocol.simulator_measurement(
        MACGame(n_players=5), slots_per_probe=10_000, seed=0
    )
    payoffs = [measure(window) for window in (40, 78, 160)]
    golden.check(
        "search_small",
        {"study": result_to_dict(result), "probe_payoffs": payoffs},
    )


def _bump_first_float(payload) -> bool:
    """Multiply the first non-zero float leaf by ``1 + 1e-6`` in place."""
    stack = [payload]
    while stack:
        node = stack.pop()
        items = (
            list(node.items())
            if isinstance(node, dict)
            else list(enumerate(node))
        )
        for key, value in items:
            # Exact check on purpose: skip literal zeros when picking
            # the leaf to perturb.
            if isinstance(value, float) and value != 0.0:  # repro: noqa=REPRO003
                node[key] = value * (1.0 + 1e-6)
                return True
            if isinstance(value, (dict, list)):
                stack.append(value)
    return False


def test_harness_catches_1e6_perturbation() -> None:
    """A 1e-6 relative perturbation of one value must fail the compare."""
    perturbed = normalize(result_to_dict(table1.run()))
    assert _bump_first_float(perturbed), (
        "table1 payload has no non-zero float leaf to perturb"
    )
    comparer = GoldenComparer(update=False)
    with pytest.raises(pytest.fail.Exception, match="differs"):
        comparer.check("table1", perturbed)
