"""Grid reconstruction: the factorised trial characteristic function."""

import tracemalloc

import numpy as np
import pytest

from cvshadow.measurement import sample_heterodyne_batch
from cvshadow.reconstruction import (
    reconstruct_pair_section,
    reconstruct_single_mode,
    trial_char_pair_section,
    trial_char_single_mode,
)
from cvshadow.states import ChainSpec, GaussianStateSpec, chain_ground_state


def direct_trial_char(outcomes, u):
    """chi_N(u) = exp(|u|^2/4) mean_i exp(-i u^T Omega x_i) by the direct sum."""
    ux, up = u[..., 0, None], u[..., 1, None]
    phase = ux * outcomes[:, 1] - up * outcomes[:, 0]
    grow = np.exp(0.25 * (ux**2 + up**2))
    return (grow * np.exp(-1j * phase)).mean(axis=-1)


class TestTrialChar:
    @pytest.mark.parametrize("n", [37, 9000])
    def test_single_mode_matches_direct_sum(self, n):
        # 9000 rounds span three chunks of the factorised sum
        outcomes = np.random.default_rng(n).normal(0.3, 0.8, size=(n, 2))
        a, b = np.linspace(-2.0, 2.0, 7), np.linspace(-1.5, 2.0, 5)
        ga, gb = np.meshgrid(a, b, indexing="ij")
        direct = direct_trial_char(outcomes, np.stack([ga, gb], axis=-1))
        assert np.abs(trial_char_single_mode(outcomes, a, b) - direct).max() <= 1e-12

    @pytest.mark.parametrize("n", [37, 9000])
    def test_pair_section_matches_direct_sum(self, n):
        rng = np.random.default_rng(n + 1)
        out_i, out_j = rng.normal(0.0, 0.9, size=(2, n, 2))
        a, b = np.linspace(-2.0, 2.0, 6), np.linspace(-1.0, 1.5, 4)
        ga, gb = np.meshgrid(a, b, indexing="ij")
        # u = ((a, 0), (b, 0)): the phase is a p_i + b p_j
        phase = ga[..., None] * out_i[:, 1] + gb[..., None] * out_j[:, 1]
        direct = np.exp(0.25 * (ga**2 + gb**2)) * np.exp(-1j * phase).mean(axis=-1)
        assert np.abs(trial_char_pair_section(out_i, out_j, a, b) - direct).max() <= 1e-12

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


class TestPairValidation:
    @pytest.mark.parametrize("pair", [(0, 7), (-1, 1), (3, 0)])
    def test_pair_outside_modes_rejected(self, pair):
        state = chain_ground_state(ChainSpec(m=3, kappa=0.5))
        batch = sample_heterodyne_batch(state, 20, "pair-check")
        with pytest.raises(ValueError, match="outside measured modes 0..2"):
            reconstruct_pair_section(batch, state, pair, points=5)
