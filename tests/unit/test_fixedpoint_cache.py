"""Tests for the symmetric fixed-point memo cache."""

from __future__ import annotations

import pytest

from repro.bianchi import (
    solve_symmetric,
    symmetric_cache_info,
)
from repro.errors import ParameterError


class TestSymmetricCache:
    def test_repeat_call_returns_cached_instance(self):
        first = solve_symmetric(335.0, 20, 5)
        second = solve_symmetric(335.0, 20, 5)
        assert second is first

    def test_int_and_float_window_share_an_entry(self):
        assert solve_symmetric(64, 5, 5) is solve_symmetric(64.0, 5, 5)

    def test_distinct_arguments_distinct_entries(self):
        assert solve_symmetric(64, 5, 5) is not solve_symmetric(65, 5, 5)
        assert solve_symmetric(64, 5, 5) is not solve_symmetric(64, 6, 5)

    def test_hits_increase_on_repeat(self):
        solve_symmetric(97, 7, 5)
        before = symmetric_cache_info().hits
        solve_symmetric(97, 7, 5)
        assert symmetric_cache_info().hits == before + 1

    def test_validation_still_raises(self):
        with pytest.raises(ParameterError):
            solve_symmetric(0.5, 5, 5)
        with pytest.raises(ParameterError):
            solve_symmetric(64, 0, 5)
