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


def square_grid(lo: float = -2.0, hi: float = 2.0, points: int = 81) -> np.ndarray:
    """Flattened 2D grid over [lo, hi]^2, shape (points^2, 2)."""
    axis = np.linspace(lo, hi, points)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def trial_char_single_mode(outcomes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reconstructed chi_N on single-mode points ``u`` (shape (..., 2)).

    ``outcomes`` is the (N, 2) array of heterodyne points of the mode.
    """
    outcomes = np.asarray(outcomes, dtype=float).reshape(-1, 2)
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1, 2)
    # u^T Omega x = u_x p - u_p x
    phase = np.outer(flat[:, 0], outcomes[:, 1]) - np.outer(flat[:, 1], outcomes[:, 0])
    est = np.exp(-1j * phase).mean(axis=1)
    grow = np.exp(0.25 * np.sum(flat * flat, axis=-1))
    return (grow * est).reshape(u.shape[:-1])


def trial_char_pair_section(
    outcomes_i: np.ndarray, outcomes_j: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Reconstructed chi_N((a, 0), (b, 0)) for a pair of modes.

    ``a``/``b`` are the grid axes of the two x-type section coordinates;
    returns shape (len(a), len(b)).  The per-mode phases separate, so the
    double sum is two outer products.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pha = np.exp(-1j * np.outer(a, outcomes_i[:, 1]))  # u = (a, 0): a * p_i
    phb = np.exp(-1j * np.outer(b, outcomes_j[:, 1]))
    est = (pha[:, None, :] * phb[None, :, :]).mean(axis=2)
    grow = np.exp(0.25 * (a[:, None] ** 2 + b[None, :] ** 2))
    return grow * est


def v_metric(exact: np.ndarray, recon: np.ndarray, volume: float) -> float:
    """Grid variance ``V_{N,D}`` between exact and reconstructed values."""
    exact = np.asarray(exact)
    recon = np.asarray(recon)
    if exact.shape != recon.shape:
        raise ValueError("grids must have matching shapes")
    return float(np.sum(np.abs(exact - recon) ** 2) / (volume * exact.size))


def reconstruct_single_mode(
    batch: SampleBatch, state, lo: float = -2.0, hi: float = 2.0, points: int = 81
) -> tuple[CharGrid, CharGrid, float]:
    """Exact and reconstructed CharGrids plus V metric for a one-mode state."""
    if batch.protocol != HETERODYNE:
        raise ValueError("grid reconstruction needs heterodyne records")
    pts = square_grid(lo, hi, points)
    recon_vals = trial_char_single_mode(batch.outcomes[:, 0, :], pts)
    exact_vals = state.char(pts)
    step = (hi - lo) / (points - 1)
    exact = CharGrid((lo, lo), (step, step), (points, points), exact_vals, "exact")
    recon = CharGrid(
        (lo, lo), (step, step), (points, points), recon_vals, "reconstructed"
    )
    vol = (hi - lo) ** 2
    return exact, recon, v_metric(exact_vals, recon_vals, vol)


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
    scales to chains of thousands of oscillators.
    """
    if batch.protocol != HETERODYNE:
        raise ValueError("grid reconstruction needs heterodyne records")
    i, j = pair
    axis = np.linspace(lo, hi, points)
    outcomes = batch.outcomes
    recon_vals = trial_char_pair_section(outcomes[:, i, :], outcomes[:, j, :], axis, axis)
    marg = chain_state.marginal([i, j])
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    u = np.stack([gx, gy, np.zeros_like(gx), np.zeros_like(gy)], axis=-1)
    exact_vals = marg.char(u)
    step = (hi - lo) / (points - 1)
    exact = CharGrid((lo, lo), (step, step), (points, points), exact_vals, "exact")
    recon = CharGrid(
        (lo, lo), (step, step), (points, points), recon_vals, "reconstructed"
    )
    vol = (hi - lo) ** 2
    return exact, recon, v_metric(exact_vals, recon_vals, vol)
