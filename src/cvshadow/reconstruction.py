"""Characteristic-function grid reconstruction from heterodyne samples.

The trial characteristic function of a batch of heterodyne outcomes is

    chi_N(u) = exp(|u|^2/4) / N * sum_i exp(-i u^T Omega x_i),

an unbiased pointwise estimator of the state's characteristic function.  The
growing exponential makes it useful only on compact windows around the
origin; the quality metric is the grid variance

    V_{N,D} = sum_i |chi(x_i) - chi_N(x_i)|^2 / (vol(D) N_grid).
"""

from __future__ import annotations

import numpy as np

from .measurement import HETERODYNE, SampleBatch
from .phase_space import CharGrid


# Rounds per chunk of the factorised phase sum; fixed, so the summation
# order (and the bits) do not depend on N.
_ROUND_CHUNK = 4096


def _trial_char_grid(a, ya, b, yb) -> np.ndarray:
    """``exp((a_k^2 + b_l^2)/4) mean_n exp(i a_k ya_n) exp(i b_l yb_n)``.

    Returns shape (len(a), len(b)).  The phase factorises per axis, so the
    sum over rounds is ``A @ B.T`` accumulated over fixed-size chunks of
    rounds in order, then divided by N; memory is axes x chunk, never
    grid x N.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    total = np.zeros((a.size, b.size), dtype=complex)
    for start in range(0, len(ya), _ROUND_CHUNK):
        sl = slice(start, start + _ROUND_CHUNK)
        total += np.exp(1j * np.outer(a, ya[sl])) @ np.exp(1j * np.outer(b, yb[sl])).T
    grow = np.exp(0.25 * (np.square(a)[:, None] + np.square(b)[None, :]))
    return grow * (total / len(ya))


def trial_char_single_mode(outcomes: np.ndarray, a, b) -> np.ndarray:
    """Reconstructed chi_N((a_k, b_l)) on the grid of axes ``a`` x ``b``.

    ``outcomes`` is the (N, 2) array of heterodyne points (x, p) of the mode;
    returns shape (len(a), len(b)).  With ``u^T Omega x = a p - b x`` the
    phase is ``exp(-i a p) exp(i b x)``.
    """
    outcomes = np.asarray(outcomes, dtype=float).reshape(-1, 2)
    return _trial_char_grid(a, -outcomes[:, 1], b, outcomes[:, 0])


def trial_char_pair_section(
    outcomes_i: np.ndarray, outcomes_j: np.ndarray, a, b
) -> np.ndarray:
    """Reconstructed chi_N((a, 0), (b, 0)) for a pair of modes.

    ``a``/``b`` are the grid axes of the two x-type section coordinates;
    returns shape (len(a), len(b)).  The phase is ``exp(-i a p_i) exp(-i b p_j)``.
    """
    return _trial_char_grid(a, -outcomes_i[:, 1], b, -outcomes_j[:, 1])


def v_metric(exact: np.ndarray, recon: np.ndarray, volume: float) -> float:
    """Grid variance ``V_{N,D}`` between exact and reconstructed values."""
    exact = np.asarray(exact)
    recon = np.asarray(recon)
    if exact.shape != recon.shape:
        raise ValueError("grids must have matching shapes")
    return float(np.sum(np.abs(exact - recon) ** 2) / (volume * exact.size))


def _char_grids(lo, hi, points, exact_vals, recon_vals):
    """Exact and reconstructed CharGrids on [lo, hi]^2 plus their V metric."""
    step = (hi - lo) / (points - 1)
    grid = ((lo, lo), (step, step), (points, points))
    exact = CharGrid(*grid, exact_vals)
    recon = CharGrid(*grid, recon_vals)
    return exact, recon, v_metric(exact_vals, recon_vals, (hi - lo) ** 2)


def reconstruct_single_mode(
    batch: SampleBatch, state, lo: float = -2.0, hi: float = 2.0, points: int = 81
) -> tuple[CharGrid, CharGrid, float]:
    """Exact and reconstructed CharGrids plus V metric for a one-mode state."""
    if batch.protocol != HETERODYNE:
        raise ValueError("grid reconstruction needs heterodyne records")
    axis = np.linspace(lo, hi, points)
    recon_vals = trial_char_single_mode(batch.outcomes[:, 0, :], axis, axis)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    exact_vals = state.char(np.stack([gx, gy], axis=-1))
    return _char_grids(lo, hi, points, exact_vals, recon_vals)


def reconstruct_pair_section(
    batch: SampleBatch,
    chain_state,
    pair: tuple[int, int],
    lo: float = -2.0,
    hi: float = 2.0,
    points: int = 81,
) -> tuple[CharGrid, CharGrid, float]:
    """Exact vs reconstructed chi((a,0),(b,0)) for two modes of a Gaussian state.

    Only the reduced 4x4 covariance block of the pair is touched, so this
    scales to chains of thousands of oscillators.  A pair naming a mode
    outside ``0..m-1`` raises ``ValueError``.
    """
    if batch.protocol != HETERODYNE:
        raise ValueError("grid reconstruction needs heterodyne records")
    i, j = (int(k) for k in pair)
    if not (0 <= i < batch.modes and 0 <= j < batch.modes):
        raise ValueError(f"pair {pair} outside measured modes 0..{batch.modes - 1}")
    axis = np.linspace(lo, hi, points)
    outcomes = batch.outcomes
    recon_vals = trial_char_pair_section(outcomes[:, i, :], outcomes[:, j, :], axis, axis)
    marg = chain_state.marginal([i, j])
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    u = np.stack([gx, gy, np.zeros_like(gx), np.zeros_like(gy)], axis=-1)
    exact_vals = marg.char(u)
    return _char_grids(lo, hi, points, exact_vals, recon_vals)
