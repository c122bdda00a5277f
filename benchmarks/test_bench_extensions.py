"""Benches for the paper's proposed extensions (Sections VIII-IX).

* the delay-aware NE trade-off curve (Section VIII's "more factors");
* the selfish rate-control game (Section IX's proposed extension);
* the empirical (measured-CW) TFT loop closing the [Kyasanur & Vaidya]
  observation assumption.
"""

from __future__ import annotations

import numpy as np

from repro.detect import EmpiricalRepeatedGame
from repro.experiments.reporting import format_table
from repro.game import GenerousTitForTat, MACGame, TitForTat
from repro.game.delay_aware import delay_tradeoff_curve
from repro.game.equilibrium import efficient_window
from repro.game.rate_control import RateControlGame
from repro.phy.parameters import AccessMode
from repro.phy.timing import slot_times


def test_bench_delay_tradeoff(benchmark, archive, params):
    game = MACGame(n_players=10, params=params)
    weights = [0.0, 0.5, 2.0]
    curve = benchmark.pedantic(
        lambda: delay_tradeoff_curve(game, weights),
        rounds=1,
        iterations=1,
    )
    windows = [curve[w].window_star for w in weights]
    assert windows == sorted(windows)
    # The robustness finding: throughput cost stays under 1%.
    base = curve[0.0].throughput_utility
    assert curve[2.0].throughput_utility >= base * 0.99
    rows = [
        [
            weight,
            curve[weight].window_star,
            curve[weight].mean_delay_us / 1000.0,
            curve[weight].jitter_us / 1000.0,
            curve[weight].throughput_utility,
        ]
        for weight in weights
    ]
    archive(
        "extension_delay_tradeoff",
        format_table(
            ["lambda", "Wc*(lambda)", "mean delay (ms)", "jitter (ms)",
             "throughput utility"],
            rows,
            title="Extension: delay-aware NE (Section VIII)",
        ),
    )


def test_bench_rate_control(benchmark, archive, params):
    times = slot_times(params, AccessMode.BASIC)
    star = efficient_window(10, params, times)
    game = RateControlGame(10, params, star)
    equilibrium = benchmark.pedantic(game.solve, rounds=1, iterations=1)
    assert game.is_nash(equilibrium.nash_profile)
    assert equilibrium.price_of_anarchy > 1.0
    assert equilibrium.nash_profile[0] <= equilibrium.social_profile[0]
    options = game.options
    rows = [
        ["selfish NE", options[equilibrium.nash_profile[0]].label,
         equilibrium.nash_welfare],
        ["social optimum", options[equilibrium.social_profile[0]].label,
         equilibrium.social_welfare],
        ["price of anarchy", f"{equilibrium.price_of_anarchy:.3f}", ""],
    ]
    archive(
        "extension_rate_control",
        format_table(
            ["profile", "rate", "welfare"],
            rows,
            title="Extension: selfish rate control (Section IX)",
        ),
    )


def test_bench_empirical_tft(benchmark, archive, params):
    game = MACGame(n_players=5, params=params)

    def run_both():
        tft = EmpiricalRepeatedGame(
            game,
            [TitForTat() for _ in range(5)],
            [64, 100, 200, 80, 150],
            slots_per_stage=50_000,
            seed=1,
        ).run(4)
        gtft = EmpiricalRepeatedGame(
            game,
            [GenerousTitForTat(memory=3, tolerance=0.8) for _ in range(5)],
            [64] * 5,
            slots_per_stage=50_000,
            seed=1,
        ).run(4)
        return tft, gtft

    tft_trace, gtft_trace = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert np.all(np.abs(tft_trace.final_windows - 64) <= 8)
    assert gtft_trace.final_windows.tolist() == [64.0] * 5
    rows = [
        ["empirical TFT", str([int(w) for w in tft_trace.final_windows])],
        ["empirical GTFT", str([int(w) for w in gtft_trace.final_windows])],
    ]
    archive(
        "extension_empirical_tft",
        format_table(
            ["engine", "final windows (start min = 64)"],
            rows,
            title="Extension: TFT on measured contention windows",
        ),
    )
