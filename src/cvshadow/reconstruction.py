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

from .measurement import HETERODYNE, SampleBatch, _one_blas_thread
from .phase_space import CharGrid
from .states import SLICE_BUDGETS, _check_modes, value_slices


def _trial_char_grid(a, ya, b, yb) -> np.ndarray:
    """``exp((a_k^2 + b_l^2)/4) mean_n exp(i a_k ya_n) exp(i b_l yb_n)``.

    Returns shape (len(a), len(b)).  The phase factorises per axis, so the
    sum over rounds is ``A @ B.T`` over chunks of rounds in order, then
    divided by N.  The chunks are the ``"grid"`` slices of rounds
    (:func:`~cvshadow.states.value_slices`), so each axis's complex phase
    buffer, allocated once, holds at most 2^15 values up to 2048 points (400
    rounds at 81 points, 0.5 MB), and the sum's bits depend on N and the
    grid size only.  Each chunk's phases are written into the buffer's
    imaginary part, and their cosines and sines in place, never grid x N.
    The products run on one BLAS thread
    (:func:`~cvshadow.measurement._one_blas_thread`), so no threaded zgemm
    leaves a worker spinning beside the next chunk's phases.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    total = np.zeros((a.size, b.size), dtype=complex)
    cuts = value_slices(len(ya), max(a.size, b.size), SLICE_BUDGETS["grid"], align=16)
    buffers = [np.empty((axis.size, cuts[0].stop if cuts else 0), complex) for axis in (a, b)]
    for sl in cuts:
        pa, pb = (buf[:, : sl.stop - sl.start] for buf in buffers)
        for axis, y, phase in ((a, ya, pa), (b, yb, pb)):
            np.multiply.outer(axis, y[sl], out=phase.imag)
            np.cos(phase.imag, out=phase.real)
            np.sin(phase.imag, out=phase.imag)
        with _one_blas_thread():
            total += pa @ pb.T
    grow = np.exp(0.25 * (np.square(a)[:, None] + np.square(b)[None, :]))
    return grow * (total / len(ya))


def v_metric(exact: np.ndarray, recon: np.ndarray, volume: float) -> float:
    """Grid variance ``V_{N,D}`` between exact and reconstructed values."""
    exact = np.asarray(exact)
    recon = np.asarray(recon)
    if exact.shape != recon.shape:
        raise ValueError("grids must have matching shapes")
    return float(np.sum(np.abs(exact - recon) ** 2) / (volume * exact.size))


def _section(batch: SampleBatch, state, modes, lo, hi, points):
    """Exact and reconstructed chi on the square section of coordinates 0 and 1.

    They index ``[x | p]`` of the marginal on ``modes``, (x, p) of one mode or
    the two x's of a pair; ``u`` is zero elsewhere.  Along coordinate ``c`` the
    phase of ``u^T Omega x`` is ``-(Omega x)_c``: ``-p_k`` on an x-axis and
    ``+x_k`` on a p-axis.  The grid reads that column of the batch in place,
    the sign moved onto the axis (exact: ``(-a) p = a (-p)``), so no N-sized
    copy is formed.  Only the marginal is touched (cat and Fock states,
    which have none, are single-mode), so this scales to long chains.
    """
    if batch.protocol != HETERODYNE:
        raise ValueError("grid reconstruction needs heterodyne records")
    modes = [int(k) for k in modes]
    axis = np.linspace(lo, hi, points)
    u = np.zeros((points, points, 2 * len(modes)))
    u[..., 0], u[..., 1] = np.meshgrid(axis, axis, indexing="ij")

    def phase(c):  # coordinate c's signed axis and batch column
        k = modes[c % len(modes)]
        if c < len(modes):  # an x-axis: -p_k
            return -axis, batch.outcomes[:, k, 1]
        return axis, batch.outcomes[:, k, 0]  # a p-axis: +x_k

    recon = _trial_char_grid(*phase(0), *phase(1))
    exact = (state.marginal(modes) if hasattr(state, "marginal") else state).char(u)
    return CharGrid(u, exact), CharGrid(u, recon), v_metric(exact, recon, (hi - lo) ** 2)


def reconstruct_single_mode(
    batch: SampleBatch, state, lo: float = -2.0, hi: float = 2.0, points: int = 81
) -> tuple[CharGrid, CharGrid, float]:
    """Exact vs reconstructed chi(a, b) of mode 0 on [lo, hi]^2, plus V."""
    return _section(batch, state, (0,), lo, hi, points)


def reconstruct_pair_section(
    batch: SampleBatch,
    chain_state,
    pair: tuple[int, int],
    lo: float = -2.0,
    hi: float = 2.0,
    points: int = 81,
) -> tuple[CharGrid, CharGrid, float]:
    """Exact vs reconstructed chi((a,0),(b,0)) for two modes of a Gaussian state.

    A pair naming a mode outside ``0..m-1``, or one mode twice, raises
    ``ValueError``.
    """
    _check_modes(pair, batch.modes, "pair")
    return _section(batch, chain_state, pair, lo, hi, points)
