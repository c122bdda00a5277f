"""Property-based equivalence of the batched solver vs the scalar one.

The batched Anderson solver (`repro.bianchi.batched`) is the production
path; `solve_heterogeneous_reference` (`tests/fixedpoint_oracle.py`) is
the original damped scalar iteration kept as a test oracle.  On
randomized window vectors the two must agree to within 1e-9 in max
absolute tau difference, in both access-mode regimes (max_stage varies
the backoff ladder, not the access mode per se, but it is the knob the
modes differ on).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bianchi.batched import solve_heterogeneous_batch, solve_symmetric_grid
from repro.bianchi.fixedpoint import solve_heterogeneous, solve_symmetric
from tests.fixedpoint_oracle import solve_heterogeneous_reference

TOL = 1e-9

window_vectors = st.lists(
    st.integers(min_value=2, max_value=1024), min_size=2, max_size=50
)
stages = st.sampled_from([0, 3, 5, 7])


class TestBatchedMatchesReference:
    @given(window_vectors, stages)
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_scalar_reference(self, windows, max_stage):
        reference = solve_heterogeneous_reference(windows, max_stage)
        batch = solve_heterogeneous_batch(
            np.asarray(windows, dtype=float)[None, :], max_stage
        )
        assert float(np.max(np.abs(batch.tau[0] - reference.tau))) <= TOL
        assert (
            float(np.max(np.abs(batch.collision[0] - reference.collision)))
            <= TOL
        )

    @given(window_vectors, stages)
    @settings(max_examples=25, deadline=None)
    def test_wrapper_matches_reference(self, windows, max_stage):
        reference = solve_heterogeneous_reference(windows, max_stage)
        wrapped = solve_heterogeneous(windows, max_stage)
        assert float(np.max(np.abs(wrapped.tau - reference.tau))) <= TOL

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=2, max_value=1024),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=16,
        ),
        stages,
    )
    @settings(max_examples=15, deadline=None)
    def test_batch_rows_are_independent(self, rows, max_stage):
        # Solving B instances at once must equal solving each alone.
        windows = np.asarray(rows, dtype=float)
        batch = solve_heterogeneous_batch(windows, max_stage)
        for index, row in enumerate(rows):
            alone = solve_heterogeneous_batch(
                np.asarray(row, dtype=float)[None, :], max_stage
            )
            assert (
                float(np.max(np.abs(batch.tau[index] - alone.tau[0]))) <= TOL
            )


class TestSymmetricGrid:
    @given(
        st.lists(st.integers(min_value=2, max_value=1024), min_size=1, max_size=24),
        st.integers(min_value=2, max_value=50),
        stages,
    )
    @settings(max_examples=25, deadline=None)
    def test_grid_matches_scalar_symmetric(self, windows, n_nodes, max_stage):
        grid = solve_symmetric_grid(
            np.asarray(sorted(set(windows)), dtype=float), n_nodes, max_stage
        )
        for index, window in enumerate(sorted(set(windows))):
            scalar = solve_symmetric(float(window), n_nodes, max_stage)
            assert abs(float(grid.tau[index]) - scalar.tau) <= TOL
            assert abs(float(grid.collision[index]) - scalar.collision) <= TOL


class TestEdgeCases:
    @given(st.integers(min_value=2, max_value=4096), stages)
    @settings(max_examples=25, deadline=None)
    def test_single_node_has_no_collisions(self, window, max_stage):
        batch = solve_heterogeneous_batch(
            np.asarray([[float(window)]]), max_stage
        )
        # The n=1 shortcut is an exact closed form, not an iterate.
        assert float(batch.collision[0, 0]) == 0.0  # repro: noqa=REPRO003
        assert abs(float(batch.tau[0, 0]) - 2.0 / (1.0 + window)) <= TOL

    @given(
        st.integers(min_value=2, max_value=1024),
        st.integers(min_value=2, max_value=50),
        stages,
    )
    @settings(max_examples=25, deadline=None)
    def test_identical_windows_reduce_to_symmetric(
        self, window, n_nodes, max_stage
    ):
        batch = solve_heterogeneous_batch(
            np.full((1, n_nodes), float(window)), max_stage
        )
        scalar = solve_symmetric(float(window), n_nodes, max_stage)
        assert float(np.max(np.abs(batch.tau[0] - scalar.tau))) <= 1e-8
        spread = float(batch.tau[0].max() - batch.tau[0].min())
        assert spread <= TOL  # homogeneity is preserved exactly

    @given(st.integers(min_value=2, max_value=50), stages)
    @settings(max_examples=25, deadline=None)
    def test_one_aggressive_deviator(self, n_nodes, max_stage):
        windows = [2.0] + [1024.0] * (n_nodes - 1)
        reference = solve_heterogeneous_reference(windows, max_stage)
        batch = solve_heterogeneous_batch(
            np.asarray(windows)[None, :], max_stage
        )
        assert float(np.max(np.abs(batch.tau[0] - reference.tau))) <= TOL
        # The deviator transmits strictly more aggressively than the rest.
        if n_nodes >= 2:
            assert float(batch.tau[0, 0]) > float(batch.tau[0, 1:].max())
