"""Grid reconstruction: the factorised trial characteristic function."""

import tracemalloc

import numpy as np
import pytest

from cvshadow.measurement import HETERODYNE, SampleBatch, sample_heterodyne_batch
from cvshadow.reconstruction import (
    _trial_char_grid,
    reconstruct_pair_section,
    reconstruct_single_mode,
)
from cvshadow.states import ChainSpec, GaussianStateSpec, chain_ground_state


def square_grid(lo, hi, points):
    """(points, points, 2) grid of (a_k, b_l) with a on axis 0."""
    axis = np.linspace(lo, hi, points)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)


def direct_trial_char(outcomes, u):
    """chi_N(u) = exp(|u|^2/4) mean_i exp(-i u^T Omega x_i) by the direct sum."""
    ux, up = u[..., 0, None], u[..., 1, None]
    phase = ux * outcomes[:, 1] - up * outcomes[:, 0]
    grow = np.exp(0.25 * (ux**2 + up**2))
    return (grow * np.exp(-1j * phase)).mean(axis=-1)


class TestTrialChar:
    @pytest.mark.parametrize("n", [37, 9000])
    def test_single_mode_matches_direct_sum(self, n):
        # 9000 rounds are one chunk at 7 points (several: the 81-point cases below)
        outcomes = np.random.default_rng(n).normal(0.3, 0.8, size=(n, 2))
        batch = SampleBatch(HETERODYNE, outcomes[:, None, :])
        _, recon, _ = reconstruct_single_mode(batch, GaussianStateSpec.vacuum(), -2.0, 2.0, 7)
        assert np.array_equal(recon.points, square_grid(-2.0, 2.0, 7))
        direct = direct_trial_char(outcomes, recon.points)
        assert np.abs(recon.values - direct).max() <= 1e-12

    @pytest.mark.parametrize("n", [37, 9000])
    def test_pair_section_matches_direct_sum(self, n):
        rng = np.random.default_rng(n + 1)
        out_i, out_j = rng.normal(0.0, 0.9, size=(2, n, 2))
        # modes 0 and 2 of three; mode 1 must not enter
        batch = SampleBatch(HETERODYNE, np.stack([out_i, rng.normal(size=(n, 2)), out_j], axis=1))
        state = GaussianStateSpec.vacuum(3)
        _, recon, _ = reconstruct_pair_section(batch, state, (0, 2), -2.0, 2.0, 6)
        # points are [x_0, x_2, p_0, p_2]; the section is u = ((a, 0), (b, 0))
        assert np.array_equal(recon.points[..., :2], square_grid(-2.0, 2.0, 6))
        assert not recon.points[..., 2:].any()
        ga, gb = recon.points[..., 0], recon.points[..., 1]
        # the phase is a p_i + b p_j
        phase = ga[..., None] * out_i[:, 1] + gb[..., None] * out_j[:, 1]
        direct = np.exp(0.25 * (ga**2 + gb**2)) * np.exp(-1j * phase).mean(axis=-1)
        assert np.abs(recon.values - direct).max() <= 1e-12

    def test_memory_does_not_scale_with_grid_times_samples(self):
        # a grid x N complex array would be 81^2 * 5e4 * 16 B = 5.2 GB
        state = GaussianStateSpec.vacuum()
        batch = sample_heterodyne_batch(state, 50_000, "grid-memory")
        tracemalloc.start()
        try:
            _, recon, _ = reconstruct_single_mode(batch, state, points=81)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recon.values.shape == (81, 81)
        assert peak < 200 * 2**20

    def test_memory_beyond_the_batch_flat_in_samples(self):
        # the grid reads each chunk's two phase columns from the batch in
        # place: 1.64 and 1.68 MB traced at N = 5e4 and 2e5 (batches of 0.8
        # and 3.2 MB), where an (N, 2) copy of the mode's rows and its
        # -Omega image read 3.24 and 8.11 MB
        state = GaussianStateSpec.vacuum()
        peaks = []
        for n in (50_000, 200_000):
            batch = sample_heterodyne_batch(state, n, "grid-flat")
            tracemalloc.start()
            try:
                reconstruct_single_mode(batch, state, points=81)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.5

    def test_phase_matrices_exponentiated_in_place(self):
        # the bench vacuum grid: N = 8000, 81 points, 400-round chunks.  Two
        # complex 81 x 400 phase matrices are 1.0 MB (1.52 MB traced); a float
        # outer product beside them would add 0.26 MB, and a copy for
        # exp(1j * outer) 0.52 MB
        rng = np.random.default_rng(8)
        axis, ya, yb = np.linspace(-2.0, 2.0, 81), rng.normal(size=8000), rng.normal(size=8000)
        tracemalloc.start()
        try:
            grid = _trial_char_grid(axis, ya, axis, yb)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        direct = np.exp(0.25 * (axis[:, None] ** 2 + axis[None, :] ** 2)) * (
            np.exp(1j * np.outer(axis, ya)) @ np.exp(1j * np.outer(axis, yb)).T / 8000
        )
        assert np.abs(grid - direct).max() <= 1e-12
        assert peak <= 1.7

    def test_phase_buffers_follow_grid_points(self):
        # at 401 points a chunk is 80 rounds: two 401 x 80 phase matrices are
        # 1.0 MB and the 401 x 401 sum and its scaled copies 2.6 MB each; the
        # 4096-round chunks of an older version were 52.6 MB
        rng = np.random.default_rng(9)
        axis, ya, yb = np.linspace(-2.0, 2.0, 401), rng.normal(size=8000), rng.normal(size=8000)
        tracemalloc.start()
        try:
            _trial_char_grid(axis, ya, axis, yb)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 12.0

    def test_chunked_grid_matches_direct_exp(self):
        # 3 x 400 + 5 rounds at 81 points: three full chunks and a partial one
        n = 3 * 400 + 5
        rng = np.random.default_rng(10)
        axis, ya, yb = np.linspace(-2.0, 2.0, 81), rng.normal(size=n), rng.normal(size=n)
        direct = np.exp(0.25 * (axis[:, None] ** 2 + axis[None, :] ** 2)) * (
            np.exp(1j * np.outer(axis, ya)) @ np.exp(1j * np.outer(axis, yb)).T / n
        )
        assert np.abs(_trial_char_grid(axis, ya, axis, yb) - direct).max() <= 1e-12


class TestPairValidation:
    @pytest.mark.parametrize("pair", [(0, 7), (-1, 1), (3, 0)])
    def test_pair_outside_modes_rejected(self, pair):
        state = chain_ground_state(ChainSpec(m=3, kappa=0.5))
        batch = sample_heterodyne_batch(state, 20, "pair-check")
        with pytest.raises(ValueError, match="outside measured modes 0..2"):
            reconstruct_pair_section(batch, state, pair, points=5)
