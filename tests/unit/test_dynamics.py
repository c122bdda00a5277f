"""Unit tests for the mobility dynamics of multi-hop TFT."""

from __future__ import annotations

import numpy as np
import pytest

import repro.multihop.dynamics as dynamics_module
import repro.multihop.game as game_module
from repro.errors import ParameterError
from repro.multihop.dynamics import MobilityDynamics
from repro.multihop.localgame import local_efficient_windows


@pytest.fixture(scope="module")
def trace(params):
    dynamics = MobilityDynamics(
        params, n_nodes=40, rng=np.random.default_rng(5)
    )
    return dynamics.run(5, epoch_seconds=120.0)


class TestMobilityDynamics:
    def test_epoch_count(self, trace):
        assert len(trace.records) == 5

    def test_sticky_windows_never_increase(self, trace):
        sticky = trace.sticky_windows()
        assert all(a >= b for a, b in zip(sticky, sticky[1:]))

    def test_sticky_is_historical_minimum(self, trace):
        minima = trace.snapshot_minima()
        sticky = trace.sticky_windows()
        for epoch in range(len(sticky)):
            assert sticky[epoch] == min(minima[: epoch + 1])

    def test_reopening_tracks_each_snapshot(self, trace):
        assert trace.reopening_windows() == trace.snapshot_minima()

    def test_sticky_never_above_reopening(self, trace):
        for sticky, reopening in zip(
            trace.sticky_windows(), trace.reopening_windows()
        ):
            assert sticky <= reopening

    def test_first_epoch_policies_agree(self, trace):
        first = trace.records[0]
        assert first.sticky_window == first.reopening_window

    def test_run_validates_epochs(self, params):
        dynamics = MobilityDynamics(
            params, n_nodes=10, rng=np.random.default_rng(1)
        )
        with pytest.raises(ParameterError):
            dynamics.run(0)

    def test_solves_each_epoch_local_game_once(self, params, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return local_efficient_windows(*args, **kwargs)

        for module in (dynamics_module, game_module):
            if hasattr(module, "local_efficient_windows"):
                monkeypatch.setattr(module, "local_efficient_windows", counting)
        dynamics = MobilityDynamics(
            params, n_nodes=20, rng=np.random.default_rng(3)
        )
        dynamics.run(3)
        assert len(calls) == 3
