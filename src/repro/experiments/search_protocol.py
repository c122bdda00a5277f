"""Section V.C - the distributed search for the efficient NE.

Runs the Start/Right/Left protocol from several starting points with two
payoff measurements:

* the analytic symmetric utility (noise-free: the protocol must land on
  the exact efficient window from any start);
* a simulator-backed measurement (each probe runs the DCF simulator for a
  finite measurement window ``t_m``, so payoffs are noisy and the found
  window scatters across the utility plateau - exactly the regime the
  paper's GTFT tolerance is designed for).

The probes run on the vectorized kernel
(:func:`repro.sim.vectorized.simulate`), like the Table II/III
simulations.  It runs the compiled replay of its numpy loop where a C
compiler is available and the loop itself otherwise, with identical
seeded results on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ParameterError
from repro.experiments.reporting import format_table
from repro.game.definition import MACGame
from repro.game.equilibrium import efficient_window
from repro.game.search import SearchOutcome, run_search_protocol
from repro.phy.parameters import AccessMode, PhyParameters, default_parameters
from repro.sim.vectorized import simulate

__all__ = ["SearchStudyResult", "SearchRun", "run", "simulator_measurement"]


def simulator_measurement(
    game: MACGame, *, slots_per_probe: int = 40_000, seed: int = 0
):
    """Build a simulator-backed payoff measurement for the protocol.

    Each probe simulates the whole network on the probed common window
    for ``slots_per_probe`` virtual slots and returns the initiator's
    (node 0) measured payoff - the paper's ``(n_s g - n_e e) / t_m``.
    Probe ``k`` (counting from 1) is seeded ``seed + k``, so repeated
    probes of one window draw fresh streams and the whole search is
    reproducible from ``seed``.
    """
    if slots_per_probe < 1:
        raise ParameterError(
            f"slots_per_probe must be >= 1, got {slots_per_probe!r}"
        )
    state = {"probe": 0}

    def measure(window: int) -> float:
        state["probe"] += 1
        result = simulate(
            [int(window)] * game.n_players,
            game.params,
            game.mode,
            n_slots=slots_per_probe,
            seed=seed + state["probe"],
        )
        return float(result.payoff_rates[0])

    return measure


@dataclass(frozen=True)
class SearchRun:
    """One protocol run.

    Attributes
    ----------
    start_window:
        ``W_0`` of the run.
    found_window:
        The window the initiator broadcast.
    n_measurements:
        Payoff probes spent.
    exact:
        Whether the run used the noise-free analytic measurement.
    """

    start_window: int
    found_window: int
    n_measurements: int
    exact: bool


@dataclass(frozen=True)
class SearchStudyResult:
    """The Section V.C study."""

    n_players: int
    analytic_optimum: int
    runs: List[SearchRun]

    def render(self) -> str:
        """Render all runs against the analytic optimum."""
        headers = ["W_0", "found", "probes", "measurement"]
        rows = [
            [
                run_.start_window,
                run_.found_window,
                run_.n_measurements,
                "analytic" if run_.exact else "simulated",
            ]
            for run_ in self.runs
        ]
        return format_table(
            headers,
            rows,
            title=(
                "Section V.C: distributed search "
                f"(n={self.n_players}, analytic W_c*={self.analytic_optimum})"
            ),
        )


def run(
    *,
    params: Optional[PhyParameters] = None,
    n_players: int = 10,
    mode: AccessMode = AccessMode.BASIC,
    start_windows: Optional[Sequence[int]] = None,
    step: Optional[int] = None,
    with_simulation: bool = True,
    slots_per_probe: int = 40_000,
    seed: int = 0,
) -> SearchStudyResult:
    """Run the protocol from several starts, analytic and simulated.

    The analytic runs measure the noise-free symmetric utility.  The
    simulated runs (``with_simulation``) share one
    :func:`simulator_measurement`, so the ``k``-th probe of the whole
    study simulates ``slots_per_probe`` virtual slots on seed
    ``seed + k``.
    """
    if params is None:
        params = default_parameters()
    game = MACGame(n_players=n_players, params=params, mode=mode)
    optimum = efficient_window(n_players, params, game.times)
    if start_windows is None:
        start_windows = sorted(
            {
                max(params.cw_min, optimum // 4),
                max(params.cw_min, optimum - 10),
                optimum + 10,
                optimum * 2,
            }
        )
    if step is None:
        # One-window steps are the paper's protocol; scale up for distant
        # starting points to keep probe counts reasonable.
        step = max(1, optimum // 50)

    runs: List[SearchRun] = []
    for start in start_windows:
        outcome: SearchOutcome = run_search_protocol(
            game, int(start), step=step
        )
        runs.append(
            SearchRun(
                start_window=int(start),
                found_window=outcome.window,
                n_measurements=outcome.n_measurements,
                exact=True,
            )
        )
    if with_simulation:
        measure = simulator_measurement(
            game, slots_per_probe=slots_per_probe, seed=seed
        )
        for start in start_windows:
            outcome = run_search_protocol(
                game, int(start), measure=measure, step=step
            )
            runs.append(
                SearchRun(
                    start_window=int(start),
                    found_window=outcome.window,
                    n_measurements=outcome.n_measurements,
                    exact=False,
                )
            )
    return SearchStudyResult(
        n_players=n_players, analytic_optimum=optimum, runs=runs
    )
