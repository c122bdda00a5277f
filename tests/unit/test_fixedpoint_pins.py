"""Bit-exact pins of the Bianchi fixed-point solvers.

The other solver tests check agreement to ``1e-9``; these pin every
output bit.  Each case calls one public entry point on fixed inputs and
records ``float.hex`` of ``tau``, ``collision`` and ``residual`` with
the iteration counts and the Newton/method flags.  The cases cover
``n = 1`` up to ``n = 50``, ``m = 0..7``, real-valued windows, a
``max_iterations=2`` Newton lane, warm starts and fractional mean-field
counts.  Any change to the iteration, the coupling step or the Newton
fallback that moves a last bit fails here.

``python -m tests.unit.test_fixedpoint_pins`` rewrites
``fixedpoint_pins.json`` from the current code; only do that for a
change that is meant to move results, and say why.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np
import pytest

from repro.bianchi.batched import solve_heterogeneous_batch, solve_symmetric_grid
from repro.bianchi.fixedpoint import solve_heterogeneous
from repro.bianchi.meanfield import solve_mean_field_batch

PIN_PATH = Path(__file__).with_name("fixedpoint_pins.json")

Record = Dict[str, Any]


def _hex(values: Any) -> List[str]:
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def _record(solution: Any) -> Record:
    record: Record = {
        "tau": _hex(solution.tau),
        "collision": _hex(solution.collision),
        "residual": _hex(solution.residual),
        "iterations": np.ravel(solution.iterations).tolist(),
    }
    if hasattr(solution, "newton"):
        record["newton"] = np.ravel(solution.newton).tolist()
    if hasattr(solution, "method"):
        record["method"] = solution.method
    return record


def _spread(n_nodes: int, offset: int) -> List[float]:
    """A fixed, uneven window vector in ``[2, 1024]``."""
    return [float(2 + (37 * i + 11 * offset) % 1023) for i in range(n_nodes)]


def _cases() -> Dict[str, Callable[[], Any]]:
    cases: Dict[str, Callable[[], Any]] = {}

    # solve_heterogeneous_batch
    cases["batch/n1"] = lambda: solve_heterogeneous_batch(
        [[32.0], [1024.0]], 5
    )
    for m in range(8):
        cases[f"batch/m{m}"] = lambda m=m: solve_heterogeneous_batch(
            [[2.0, 8.0, 32.0, 128.0], [16.0, 16.0, 16.0, 1024.0]], m
        )
    for m in (2, 6):
        cases[f"batch/n50/m{m}"] = lambda m=m: solve_heterogeneous_batch(
            [_spread(50, 0), [2.0] + [1024.0] * 49], m
        )
    cases["batch/real-windows"] = lambda: solve_heterogeneous_batch(
        [[17.5, 33.25, 100.125], [1.0, 2.5, 3.75]], 3
    )
    cases["batch/newton"] = lambda: solve_heterogeneous_batch(
        [[4.0, 8.0, 512.0], [16.0, 32.0, 64.0]], 5, max_iterations=2
    )
    cases["batch/mixed-lanes"] = lambda: solve_heterogeneous_batch(
        [[1024.0] * 3, [2.0, 4.0, 8.0], [16.0, 32.0, 64.0]],
        5,
        max_iterations=10,
    )
    cases["batch/warm-row"] = lambda: solve_heterogeneous_batch(
        [[16.0, 32.0, 64.0], [8.0, 8.0, 1024.0]],
        5,
        initial_tau=[0.05, 0.2, 0.01],
    )
    # A (n,) warm start broadcast over B > 1 rows, and Fortran-ordered
    # windows, give the iterate a column-major layout; numpy then sums
    # along the rows in another order, which moves last bits for n >= 8.
    cases["batch/warm-row-n9"] = lambda: solve_heterogeneous_batch(
        [_spread(9, b) for b in range(3)],
        4,
        initial_tau=[0.8, 0.4, 0.96, 1.0, 0.27, 0.78, 0.2, 0.07, 0.43],
    )
    cases["batch/fortran-n12"] = lambda: solve_heterogeneous_batch(
        np.asfortranarray([_spread(12, b) for b in range(4)]), 6
    )
    cases["batch/warm-batch"] = lambda: solve_heterogeneous_batch(
        [[16.0, 32.0, 64.0], [8.0, 8.0, 1024.0]],
        4,
        initial_tau=[[0.5, 1.5, -0.1], [0.03, 0.03, 0.001]],
    )

    # solve_heterogeneous
    cases["hetero/n1"] = lambda: solve_heterogeneous([32.0], 5)
    cases["hetero/n2"] = lambda: solve_heterogeneous([16.0, 32.0], 5)
    cases["hetero/n50"] = lambda: solve_heterogeneous(_spread(50, 3), 7)
    cases["hetero/newton"] = lambda: solve_heterogeneous(
        [4.0, 8.0, 512.0], 5, max_iterations=2
    )
    cases["hetero/warm"] = lambda: solve_heterogeneous(
        [16.0, 32.0, 64.0], 0, initial_tau=[0.1, 0.07, 0.02]
    )

    # solve_mean_field_batch
    cases["meanfield/single"] = lambda: solve_mean_field_batch(
        [[32.0, 64.0], [1024.0, 2.0]], [[0.4, 0.6], [0.5, 0.5]], 5
    )
    for m in range(8):
        cases[f"meanfield/m{m}"] = lambda m=m: solve_mean_field_batch(
            [[32.0, 1024.0], [16.0, 335.0]], [[3.0, 17.0], [10.0, 90.0]], m
        )
    cases["meanfield/fractional"] = lambda: solve_mean_field_batch(
        [[32.0, 1024.0], [64.0, 256.0]], [[0.3, 2.7], [0.5, 0.75]], 5
    )
    cases["meanfield/million"] = lambda: solve_mean_field_batch(
        [[1024.0, 16.0, 2.5]], [[999_000.0, 990.0, 10.0]], 5
    )
    cases["meanfield/newton"] = lambda: solve_mean_field_batch(
        [[4.0, 512.0], [16.0, 64.0]], [[2.0, 1.0], [3.0, 5.0]], 5,
        max_iterations=2,
    )
    cases["meanfield/warm"] = lambda: solve_mean_field_batch(
        [[32.0, 1024.0], [16.0, 335.0]],
        [[3.0, 17.0], [10.0, 90.0]],
        5,
        initial_tau=[0.02, 0.004],
    )

    # solve_symmetric_grid
    grid = [2.0, 16.0, 78.0, 335.5, 1024.0]
    for m in range(8):
        cases[f"grid/m{m}"] = lambda m=m: solve_symmetric_grid(grid, 20, m)
    cases["grid/n1"] = lambda: solve_symmetric_grid(grid, 1, 5)
    cases["grid/n2"] = lambda: solve_symmetric_grid(grid, 2, 5)
    cases["grid/n50"] = lambda: solve_symmetric_grid(grid, 50, 7)
    return cases


CASES = _cases()


def _load_pins() -> Dict[str, Record]:
    pins: Dict[str, Record] = json.loads(PIN_PATH.read_text())
    return pins


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_output_is_bit_identical_to_pin(name):
    pinned = _load_pins()[name]
    actual = _record(CASES[name]())
    assert actual == pinned


def test_every_pin_has_a_case():
    assert sorted(_load_pins()) == sorted(CASES)


def _write_pins() -> None:
    pins = {name: _record(CASES[name]()) for name in sorted(CASES)}
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_pins()
