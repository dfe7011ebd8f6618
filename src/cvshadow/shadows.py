"""Shadow construction: per-round truncated Fock matrices and their averages.

Estimator conventions (fixed once by the unbiasedness tests, which drive the
empirical shadow average to ``P_M(rho)`` / ``P_tilde_M(rho)``):

* Homodyne round ``(theta, q)`` per mode.  Entry ``(n1, n2)`` of the one-mode
  shadow is ``(1/2) int dy |y| exp(i y q) conj(chi_{|n1><n2|}(y n_theta))``
  with direction ``n_theta = (sin theta, cos theta)``; the absolute
  normalization ``1/2`` makes the estimator exactly unbiased for the sampler
  in :mod:`cvshadow.measurement`.
* Heterodyne round ``x`` per mode.  Entry ``(n1, n2)`` is
  ``int_{|u|<=R} chi_{|n2><n1|}(u) xi(u) exp(|u|^2/4 + i u^T Omega x)
  d^2u / (2 pi)``; the growing exponential is tamed by the compactly
  supported window ``xi``.

Multimode shadows tensor per-mode matrices over the mode subset ``A``.  Both
integrals reduce to one radial dimension (the angular part is a Bessel /
cosine transform), so entry ``(k + d, k)`` is ``phase_d(angle) *
profile_{d,k}(r)``: homodyne ``r = |q|`` with the pattern function of homodyne
tomography, heterodyne ``r = |x|`` with a windowed Bessel transform.  The
per-entry operations use adaptive quadrature and serve as the reference path.

The batch path reads profiles from one table per (protocol, M, window): value
and r-derivative at nodes ``j * step`` (``PROFILE_STEPS``), computed in blocks
of 512 nodes with fixed array shapes and stored node-major, and cubic Hermite
interpolation between the two nodes that bracket r.  Homodyne nodes come from
a fixed 600-node Gauss-Legendre cosine/sine transform (the rule found by
Newton's method, :func:`_gauss_legendre`), each block one matrix product by
angle addition against the in-block offsets; heterodyne nodes from
Gauss-Legendre rules split at the window's inner radius eta, with Bessel
orders above 1 by the forward recurrence.  The table grows by whole blocks up
to ``PROFILE_MAX_RADIUS``, and a round's entries depend on that round alone.
The phases ``c_d z^d`` of a round come from one complex ``z`` by repeated
multiplication.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .measurement import HETERODYNE, HOMODYNE, SampleBatch
from .phase_space import (
    dyad_poly,
    fock_dyad_radial,
    fock_pairing_matrix,
    mode_pair,
    symplectic_product,
)
from .states import FockMatrix, multi_indices

# Normalization of the homodyne per-mode entry relative to `int dy |y| ...`,
# fixed by the unbiasedness oracle; `bounds.sigma_homodyne` reads it, so the
# bound and the estimator share one constant.
HOMODYNE_SHADOW_NORMALIZATION = 0.5


@dataclass(frozen=True)
class WindowSpec:
    """Radial cutoff ``xi_{eta,R}``: 1 inside ``eta``, 0 outside ``R``.

    The transition is a quintic smoothstep in the radius (C^2); the truncation
    bounds only use ``0 <= xi <= 1`` and the support property.
    """

    eta: float
    radius: float

    def __post_init__(self):
        if not 0 < self.eta < self.radius:
            raise ValueError(f"need 0 < eta < R, got eta={self.eta}, R={self.radius}")

    def xi_radial(self, rho):
        """Window profile as a function of the radius |z|."""
        rho = np.asarray(rho, dtype=float)
        t = np.clip((self.radius - rho) / (self.radius - self.eta), 0.0, 1.0)
        out = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        return out if np.ndim(out) else float(out)

    def xi(self, z):
        """Window value at 2D point(s) ``z`` of shape (..., 2)."""
        z = np.asarray(z, dtype=float)
        return self.xi_radial(np.sqrt(np.sum(z * z, axis=-1)))


def default_window(truncation: int) -> WindowSpec:
    """Default window (eta, R) = (max(6, sqrt(2) M + 1), eta + 2).

    Satisfies the precondition ``eta^2 >= 2 M^2`` of the truncation bounds.
    """
    eta = max(6.0, math.sqrt(2.0) * truncation + 1.0)
    return WindowSpec(eta, eta + 2.0)


# ---------------------------------------------------------------------------
# noise multiplier f_{mu,T}
# ---------------------------------------------------------------------------


def f_mu_homodyne(rho, s: float):
    """Angular average of the squeezed-Gaussian damping at squeezing ``s``.

    ``f(u) = exp(-|u|^2 cosh(2s)/2) I0(|u|^2 sinh(2s)/2)`` as a function of
    the radius ``rho = |u|``, evaluated with the scaled Bessel function so it
    stays finite for any argument.  For each ``s`` it is a probability-type
    kernel: ``int |f| d^2x = 2 pi`` and ``int f^2 d^2x <= pi``.
    """
    from scipy.special import i0e

    rho = np.asarray(rho, dtype=float)
    z = 0.5 * rho * rho
    out = np.exp(-z * np.exp(-2.0 * s)) * i0e(z * np.sinh(2.0 * s))
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# homodyne shadow entries
# ---------------------------------------------------------------------------


def homodyne_shadow_entry(
    n1: int, n2: int, theta: float, q: float, tol: float = 1e-8
) -> complex:
    """One matrix entry of the single-mode homodyne shadow at round (theta, q).

    Adaptive quadrature of the folded radial integral to relative tolerance
    ``tol``.  The integrand decays like ``t^(1+|n1-n2|) exp(-t^2/4)`` times
    an oscillation in ``t q``.
    """
    from scipy.integrate import quad

    if n1 > n2:
        return complex(np.conj(homodyne_shadow_entry(n2, n1, theta, q, tol)))
    coeff, d, radial = fock_dyad_radial(n1, n2)
    osc = np.cos if d % 2 == 0 else np.sin
    upper = 14.0 + 2.0 * np.sqrt(d + 2.0)

    def integrand(t):
        return t * radial(t) * osc(t * q)

    val, _ = quad(
        integrand,
        0.0,
        upper,
        epsabs=1e-13,
        epsrel=tol,
        limit=400,
    )
    beta = 0.5 * np.pi - theta
    unit = 1j if d % 2 else 1.0
    return complex(HOMODYNE_SHADOW_NORMALIZATION * 2.0 * coeff * unit * np.exp(-1j * d * beta) * val)


# ---------------------------------------------------------------------------
# windowed dyads and heterodyne shadow entries
# ---------------------------------------------------------------------------


def _as_multi_index(n, r: int) -> tuple[int, ...]:
    if np.isscalar(n):
        n = (int(n),)
    n = tuple(int(v) for v in np.atleast_1d(n))
    if len(n) != r:
        raise ValueError(f"multi-index {n} does not match {r} modes")
    return n


def windowed_dyad_char(n1, n2, u, w: WindowSpec):
    """Windowed Fock-dyad characteristic function ``chi_{|n1><n2|} prod xi``.

    ``n1``/``n2`` are multi-indices (scalars for one mode); ``u`` has shape
    ``(..., 2r)``.
    """
    from .phase_space import char_fock_dyad

    u = np.asarray(u, dtype=float)
    r = u.shape[-1] // 2
    n1 = _as_multi_index(n1, r)
    n2 = _as_multi_index(n2, r)
    out = np.ones(u.shape[:-1], dtype=complex)
    for j in range(r):
        uj = mode_pair(u, j)
        out = out * char_fock_dyad(n1[j], n2[j], uj) * w.xi(uj)
    return out if np.ndim(out) else complex(out)


def _het_entry_single(n1: int, n2: int, x: np.ndarray, w: WindowSpec, tol: float) -> complex:
    from scipy.integrate import quad
    from scipy.special import jv

    if n1 < n2:
        return complex(np.conj(_het_entry_single(n2, n1, x, w, tol)))
    coeff, d, _ = fock_dyad_radial(n2, n1)
    s = float(np.hypot(x[0], x[1]))
    psi = math.atan2(x[0], x[1])

    def integrand(rho):
        return rho * dyad_poly(n2, d, rho) * w.xi_radial(rho) * jv(d, rho * s)

    # one quad per two periods of J_d(rho s): over the whole disk they cancel below roundoff
    edges = sorted({0.0, w.eta, w.radius, *(np.arange(4 * math.pi, s * w.radius, 4 * math.pi) / s)})
    val = math.fsum(
        quad(integrand, lo, hi, epsabs=1e-13, epsrel=tol, limit=400)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    return complex(coeff * (1j**d) * np.exp(-1j * d * psi) * val)


def heterodyne_shadow_entry(n1, n2, x_a, w: WindowSpec, tol: float = 1e-7):
    """Entry ``(n1, n2)`` of the heterodyne shadow for outcomes ``x_a``.

    The 2r-dimensional windowed integral factorizes over modes (dyad, window
    and shadow kernel are all per-mode products), so it is evaluated as a
    product of per-mode disk integrals; each is reduced to adaptive radial
    quadratures over pieces two Bessel periods long, each to relative
    tolerance ``tol`` (the angular part is an exact Bessel transform).
    """
    x_a = np.asarray(x_a, dtype=float).reshape(-1, 2)
    r = x_a.shape[0]
    n1 = _as_multi_index(n1, r)
    n2 = _as_multi_index(n2, r)
    out = complex(1.0)
    for j in range(r):
        out *= _het_entry_single(n1[j], n2[j], x_a[j], w, tol)
    return out


def heterodyne_shadow_entry_qmc(n1, n2, x_a, w: WindowSpec, budget: int) -> complex:
    """The same entry as :func:`heterodyne_shadow_entry`, by quasi-Monte Carlo.

    The full 2r-dimensional windowed integral over the box ``[-R, R]^(2r)``
    is estimated from ``budget`` Halton points, without using the per-mode
    factorization; a reference for the factorized quadrature.
    """
    from .qmc import BoxDomain, qmc_integrate

    x_a = np.asarray(x_a, dtype=float).reshape(-1, 2)
    r = x_a.shape[0]
    x_flat = np.concatenate([x_a[:, 0], x_a[:, 1]])

    def integrand(pts):
        # pts arrive as (..., 2r) in xxpp ordering
        chi = windowed_dyad_char(n2, n1, pts, w)
        grow = np.exp(0.25 * np.sum(pts * pts, axis=-1))
        phase = np.exp(1j * symplectic_product(pts, x_flat))
        return chi * grow * phase / (2.0 * np.pi) ** r

    box = BoxDomain([w.radius] * (2 * r))
    value, _ = qmc_integrate(integrand, box, budget)
    return complex(value)


# ---------------------------------------------------------------------------
# profile tables and batch entries
# ---------------------------------------------------------------------------

# Node spacing per protocol (powers of two, so r / step is exact), nodes per
# block, and the largest outcome radius a table grows to.  Cubic Hermite
# interpolation errs by O(step^4) times the fourth r-derivative.  The
# heterodyne profiles oscillate at frequencies up to the window radius R, so
# at step 1/512 the M = 3 table is 2.5e-7 from its rule (profile scale 9.5e3);
# step 1/2048 brings that to about 1e-9.  Homodyne profiles decay like
# exp(-t^2/4) in the conjugate variable and are within 1e-10 at 1/512.
PROFILE_STEPS = {HOMODYNE: 1.0 / 512, HETERODYNE: 1.0 / 2048}
_BLOCK_NODES = 512
PROFILE_MAX_RADIUS = 64.0
# Rounds per chunk of the batch entries and of the averages: temporaries stay
# one chunk large, and the averages' bits depend on this size.
_CHUNK_ROUNDS = 4096

_PROFILE_TABLES: dict = {}


def _dyads(truncation: int) -> list[tuple[int, int]]:
    """Table rows: the lower-triangle entries (k + d, k), d-major."""
    return [(d, k) for d in range(truncation + 1) for k in range(truncation + 1 - d)]


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` for ``|x| < 1`` by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, n):
        nxt = x * cur
        nxt *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        nxt -= prev
        prev, cur = cur, nxt
    return cur, n * (prev - x * cur) / (1.0 - x * x)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], for even ``n``.

    Newton's method on ``P_n`` from Tricomi's asymptotic nodes
    ``(1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2))``, until a step
    moves no node by 1e-11 (three steps at n = 600); the weights are
    ``2 / ((1 - x^2) P_n'(x)^2)``.  The positive half is computed and
    mirrored, so the rule is exactly symmetric.  It costs O(n^2)
    single-threaded flops, where ``numpy.polynomial.legendre.leggauss``
    solves a dense n x n eigenproblem in threaded LAPACK.
    """
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(10):
        p, dp = _legendre_and_slope(n, x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() < 1e-11:
            break
    _, dp = _legendre_and_slope(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _homodyne_block(truncation: int, step: float):
    """Homodyne pattern functions on whole blocks of nodes, from a fixed 600-node rule.

    ``profile_{d,k}(r) = coeff int t radial(t) osc_d(t r) dt`` with cos for even
    and sin for odd d; the r-derivative is the same sum with one more factor t.
    Returns ``blocks(starts)``, which yields the node-major values and slopes
    of the ``_BLOCK_NODES`` nodes ``b + j * step`` of each block start ``b``.
    By angle addition, ``exp(i t (b + j step)) = exp(i t b) exp(i t j step)``:
    the second factor, a 600 x ``_BLOCK_NODES`` matrix, is evaluated once per
    ``blocks`` call (one table growth) and dropped afterwards, and each block
    is one matrix product.  The offsets ``j * step`` and radii ``b + j * step``
    are exact, since ``step`` is a power of two.
    """
    upper = 16.0 + 2.0 * np.sqrt(truncation + 1.0)
    x, wts = _gauss_legendre(600)
    t = 0.5 * upper * (x + 1.0)
    wt = 0.5 * upper * wts
    dyads = _dyads(truncation)
    rows = []
    for d, k in dyads:
        coeff, _, radial = fock_dyad_radial(k, k + d)
        rows.append(coeff * wt * t * radial(t))
    rows = np.array(rows)
    weights = np.concatenate([rows, rows * t])
    odd = np.array([d % 2 == 1 for d, _ in dyads])

    def blocks(starts):
        offsets = np.outer(step * np.arange(_BLOCK_NODES), t)
        turns = np.empty(offsets.shape, dtype=complex)
        np.cos(offsets, out=turns.real)
        np.sin(offsets, out=turns.imag)
        del offsets
        for b in starts:
            # sums over t of w exp(i t r) and w t exp(i t r) at every node r
            vals, slopes = np.split(turns @ (weights * np.exp(1j * b * t)).T, 2, axis=1)
            yield (
                np.where(odd, vals.imag, vals.real),
                np.where(odd, slopes.real, -slopes.imag),
            )

    return blocks


# Gauss-Legendre nodes per unit of rho in the heterodyne rule, and the fewest
# on either side of eta: 160 on [0, 6] and 60 on [6, 8] for the default
# window at M <= 3.  n nodes on an interval of length L integrate J_d(rho s)
# accurately while s L < 2 n with a margin, so the density keeps every s up
# to PROFILE_MAX_RADIUS covered when eta grows with M.
_HET_NODES_PER_RHO = 80.0 / 3.0
_HET_MIN_NODES = 60


def _bessel_orders(top: int, z: np.ndarray) -> list[np.ndarray]:
    """``J_0(z), ..., J_top(z)`` for ``z >= 0``.

    Orders 0 and 1 come from ``j0``/``j1``; higher orders from the forward
    recurrence ``J_{d+1} = (2d/z) J_d - J_{d-1}``, which is stable where
    ``z >= d + 1`` (DLMF 10.6); ``jv`` fills only the entries below that.
    """
    from scipy.special import j0, j1, jv

    out = [j0(z), j1(z)]
    for d in range(1, top):
        up = z >= d + 1
        nxt = np.empty_like(z)
        nxt[up] = (2.0 * d / z[up]) * out[d][up] - out[d - 1][up]
        nxt[~up] = jv(d + 1, z[~up])
        out.append(nxt)
    return out[: top + 1]


def _heterodyne_block(truncation: int, w: WindowSpec):
    """Windowed Bessel transforms on one block of s = |x|, from a rule split at eta.

    ``profile_{d,k}(s) = coeff int rho poly(rho) xi(rho) J_d(rho s) d rho``
    from one Gauss-Legendre rule on [0, eta] and one on [eta, R] (the window's
    third derivative jumps at eta), with Bessel orders from
    :func:`_bessel_orders`.  The s-derivative uses ``J_0' = -J_1``
    and ``J_d' = J_{d-1} - d J_d / z``, so it needs no Bessel order beyond
    those of the values (order 1 if M = 0).
    """
    rho, wts = [], []
    for lo, hi in ((0.0, w.eta), (w.eta, w.radius)):
        n = max(_HET_MIN_NODES, math.ceil(_HET_NODES_PER_RHO * (hi - lo)))
        x, wx = np.polynomial.legendre.leggauss(n)
        rho.append(lo + 0.5 * (hi - lo) * (x + 1.0))
        wts.append(0.5 * (hi - lo) * wx)
    rho, wts = np.concatenate(rho), np.concatenate(wts)
    wr = wts * rho * w.xi_radial(rho)
    rows = [[] for _ in range(truncation + 1)]
    for d, k in _dyads(truncation):
        coeff, _, _ = fock_dyad_radial(k, k + d)
        rows[d].append(coeff * wr * dyad_poly(k, d, rho))
    rows = [np.array(rows_d) for rows_d in rows]

    def block(s):
        z = np.outer(rho, s)
        bessel = _bessel_orders(max(truncation, 1), z)
        vals, slopes = [], []
        for d, rows_d in enumerate(rows):
            if d == 0:
                deriv = -bessel[1]
            else:  # J_d(z) / z -> 1/2 (d = 1) or 0 (d > 1) at z = 0
                limit = np.full_like(z, 0.5 if d == 1 else 0.0)
                over_z = np.divide(bessel[d], z, out=limit, where=z > 0)
                deriv = bessel[d - 1] - d * over_z
            vals.append(rows_d @ bessel[d])
            slopes.append((rows_d * rho) @ deriv)
        return np.concatenate(vals), np.concatenate(slopes)

    return block


def _node_blocks(transform, step: float):
    """``blocks(starts)`` from ``transform(r)`` of any radii, (rows, len(r)).

    Yields the node-major values and slopes at the nodes ``b + j * step`` of
    each block start ``b``, one transform call per block.
    """
    offsets = step * np.arange(_BLOCK_NODES)

    def blocks(starts):
        for b in starts:
            vals, slopes = transform(b + offsets)
            yield vals.T, slopes.T

    return blocks


class _ProfileTable:
    """Values and r-derivatives of every profile_{d,k} at r_j = j * step.

    Stored node-major, shape (nodes, rows), so that interpolating at one
    radius reads whole rows.
    """

    def __init__(self, blocks, rows: int, step: float):
        self._blocks = blocks
        self.step = step
        self.values = self.slopes = np.empty((0, rows))

    def cover(self, r_max: float) -> None:
        """Grow by whole blocks until nodes bracket ``r_max``.

        Raises ``ValueError`` above ``PROFILE_MAX_RADIUS``, before building
        any block.
        """
        if r_max > PROFILE_MAX_RADIUS:
            raise ValueError(
                f"outcome radius {r_max:.6g} exceeds the profile-table limit "
                f"{PROFILE_MAX_RADIUS}"
            )
        have = self.values.shape[0]
        starts = self.step * np.arange(have, int(r_max / self.step) + 2, _BLOCK_NODES)
        if starts.size:
            blocks = list(self._blocks(starts))
            self.values = np.concatenate([self.values] + [b[0] for b in blocks])
            self.slopes = np.concatenate([self.slopes] + [b[1] for b in blocks])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolation of every profile at radii ``r``: (rows, N).

        The result is the transpose of an (N, rows) array.
        """
        self.cover(r.max(initial=0.0))
        pos = r / self.step
        i = pos.astype(np.int64)
        u = (pos - i)[:, None]
        one_u = 1.0 - u
        v, s = self.values, self.slopes
        out = v.take(i, axis=0) * ((1.0 + 2.0 * u) * one_u * one_u)
        out += v.take(i + 1, axis=0) * (u * u * (3.0 - 2.0 * u))
        out += (one_u * s.take(i, axis=0) - u * s.take(i + 1, axis=0)) * (
            self.step * u * one_u
        )
        return out.T


def _profile_table(protocol: str, truncation: int, w: WindowSpec | None):
    key = (protocol, truncation, w)
    if key not in _PROFILE_TABLES:
        step = PROFILE_STEPS[protocol]
        if protocol == HOMODYNE:
            blocks = _homodyne_block(truncation, step)
        else:
            blocks = _node_blocks(_heterodyne_block(truncation, w), step)
        _PROFILE_TABLES[key] = _ProfileTable(blocks, len(_dyads(truncation)), step)
    return _PROFILE_TABLES[key]


def _radii(batch: SampleBatch, j: int) -> np.ndarray:
    """Outcome radius of mode ``j`` in every round: ``|q|`` or ``|x|``."""
    if batch.protocol == HOMODYNE:
        return np.abs(batch.outcomes[:, j])
    return np.hypot(batch.outcomes[:, j, 0], batch.outcomes[:, j, 1])


def _mode_entries(
    batch: SampleBatch,
    j: int,
    truncation: int,
    table: _ProfileTable,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Shadow matrices of mode ``j`` for every round, shape (N, M+1, M+1).

    Entry ``(k + d, k)`` is ``c_d z^d profile_{d,k}(r)`` and entry
    ``(k, k + d)`` its conjugate, with one complex ``z`` per round: homodyne
    ``z = sign(q) exp(i beta)``, ``beta = pi/2 - theta`` and ``c_d = 2 norm
    (-i)^(d mod 2)``; heterodyne ``z = exp(-i psi)``, ``psi = atan2(x, p)``
    and ``c_d = i^d``.  Written into ``out`` when given.
    """
    dim = truncation + 1
    if batch.protocol == HOMODYNE:
        sign = np.where(batch.outcomes[:, j] < 0, -1.0, 1.0)
        z = sign * np.exp(1j * (0.5 * np.pi - batch.thetas[:, j]))
        scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION
        coeffs = [scale * (-1j if d % 2 else 1.0) for d in range(dim)]
    else:
        x = batch.outcomes[:, j, :]
        z = np.exp(-1j * np.arctan2(x[:, 0], x[:, 1]))
        coeffs = [1j**d for d in range(dim)]
    phases, power = [], np.ones_like(z)
    for d in range(dim):
        phases.append(coeffs[d] * power)
        power = power * z
    profiles = table(_radii(batch, j))
    if out is None:
        out = np.empty((batch.n, dim, dim), dtype=complex)
    for row, (d, k) in enumerate(_dyads(truncation)):
        np.multiply(phases[d], profiles[row], out=out[:, k + d, k])
        if d:
            np.conjugate(out[:, k + d, k], out=out[:, k, k + d])
    return out


def _checked_subset(batch: SampleBatch, subset) -> tuple[int, ...]:
    subset = tuple(int(j) for j in np.atleast_1d(subset))
    if not subset or any(j < 0 or j >= batch.modes for j in subset):
        raise ValueError(
            f"subset {subset} outside measured modes 0..{batch.modes - 1}"
        )
    return subset


def shadow_batch_entries(
    batch: SampleBatch, subset, truncation: int, w: WindowSpec | None = None
) -> np.ndarray:
    """Stacked Hermitian shadow matrices for every round of a batch.

    Returns shape ``(N, dim, dim)`` with ``dim = (M+1)^len(subset)``; rows
    follow the batch order, and per-mode matrices are tensored in the order
    of ``subset``.  Rows are filled ``_CHUNK_ROUNDS`` rounds at a time, so
    temporaries stay one chunk large.  Each row depends only on its own
    round, so any split of the batch into chunks gives the same bits.  Each
    per-mode matrix is filled with entry ``(k, k + d)`` the conjugate of
    ``(k + d, k)``, so it and every Kronecker product of such matrices is
    exactly Hermitian.  A subset naming a mode the batch did not measure, or
    an outcome radius above ``PROFILE_MAX_RADIUS`` anywhere in the batch,
    raises ``ValueError`` before any entry is built.  Heterodyne batches use
    ``w`` (default window for M).
    """
    subset = _checked_subset(batch, subset)
    w = (w or default_window(truncation)) if batch.protocol == HETERODYNE else None
    table = _profile_table(batch.protocol, truncation, w)
    table.cover(max(_radii(batch, j).max(initial=0.0) for j in subset))
    dim = (truncation + 1) ** len(subset)
    out = np.empty((batch.n, dim, dim), dtype=complex)
    for a in range(0, batch.n, _CHUNK_ROUNDS):
        part = batch[a : a + _CHUNK_ROUNDS]
        if len(subset) == 1:
            _mode_entries(part, subset[0], truncation, table, out[a : a + part.n])
            continue
        mats = _mode_entries(part, subset[0], truncation, table)
        for j in subset[1:]:
            other = _mode_entries(part, j, truncation, table)
            mats = np.einsum("nij,nkl->nikjl", mats, other).reshape(
                part.n, mats.shape[1] * other.shape[1], -1
            )
        out[a : a + part.n] = mats
    return out


@dataclass
class ShadowAverage:
    """Empirical average of shadow matrices with entrywise standard errors."""

    subset: tuple[int, ...]
    truncation: int
    protocol: str
    mean: np.ndarray
    stderr: np.ndarray
    count: int

    def fock(self) -> FockMatrix:
        return FockMatrix(len(self.subset), self.truncation, self.mean)

    def to_json(self, path) -> None:
        payload = {
            "M": self.truncation,
            "A": list(self.subset),
            "protocol": self.protocol,
            "count": self.count,
            "entries_re": self.mean.real.ravel().tolist(),
            "entries_im": self.mean.imag.ravel().tolist(),
            "stderr": self.stderr.ravel().tolist(),
        }
        payload["checksum"] = _payload_checksum(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "ShadowAverage":
        with open(path) as fh:
            payload = json.load(fh)
        stored = payload.pop("checksum", None)
        if stored != _payload_checksum(payload):
            raise ValueError(f"integrity check failed for shadow-average file {path}")
        dim = int(round(len(payload["entries_re"]) ** 0.5))
        mean = (
            np.asarray(payload["entries_re"]) + 1j * np.asarray(payload["entries_im"])
        ).reshape(dim, dim)
        stderr = np.asarray(payload["stderr"]).reshape(dim, dim)
        return cls(
            subset=tuple(payload["A"]),
            truncation=payload["M"],
            protocol=payload["protocol"],
            mean=mean,
            stderr=stderr,
            count=payload["count"],
        )


def _payload_checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _chunked_sum(rows: np.ndarray, term) -> np.ndarray:
    """Sum over axis 0 of ``term(chunk)``, chunk by chunk of ``_CHUNK_ROUNDS`` rows."""
    total = 0.0
    for a in range(0, rows.shape[0], _CHUNK_ROUNDS):
        total = total + term(rows[a : a + _CHUNK_ROUNDS]).sum(axis=0)
    return total


def average_entries(
    stacked: np.ndarray, subset, truncation: int, protocol: str
) -> ShadowAverage:
    """Mean and standard errors of stacked shadow matrices (axis 0 = sample).

    Two passes over chunks of ``_CHUNK_ROUNDS`` rows, in order: the first
    sums the rows, the second the squared deviations from their mean, so no
    temporary is larger than one chunk.  The bits depend on the chunk size
    and the row order: the same rows in the same order give the same bits; a
    permuted input may differ in the last digits.
    """
    n = stacked.shape[0]
    if n == 0:
        raise ValueError("cannot average an empty list of shadows")
    mean = _chunked_sum(stacked, lambda rows: rows) / n
    if n > 1:

        def squared_deviation(rows):
            dev = rows - mean
            return dev.real**2 + dev.imag**2

        var = _chunked_sum(stacked, squared_deviation) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros_like(mean, dtype=float)
    return ShadowAverage(
        subset=tuple(int(j) for j in np.atleast_1d(subset)),
        truncation=truncation,
        protocol=protocol,
        mean=mean,
        stderr=stderr,
        count=n,
    )


# ---------------------------------------------------------------------------
# projections P_M and windowed P~_M
# ---------------------------------------------------------------------------


def project_PM(big: FockMatrix, truncation: int) -> FockMatrix:
    """Leading Fock block ``P_M T P_M`` of a (larger) truncated matrix."""
    if truncation > big.truncation:
        raise ValueError(
            f"target truncation {truncation} exceeds source {big.truncation}"
        )
    keep = np.where(
        (multi_indices(big.truncation, big.modes) <= truncation).all(axis=1)
    )[0]
    entries = big.entries[np.ix_(keep, keep)]
    return FockMatrix(big.modes, truncation, entries)


# Gauss-Legendre nodes per axis of the P~_M tensor grid over [-R, R]^2.
_PM_TILDE_NODES = 240


def project_PM_tilde(state, truncation: int, w: WindowSpec | None = None) -> FockMatrix:
    """Window-smoothed projection ``P~_M(rho)`` of an exact state.

    Entries are the windowed Plancherel pairings ``Tr[Z~_{n2 n1} rho] =
    int conj(chi_{|n1><n2|} xi) chi_rho d^2u/(2 pi)`` per mode pair,
    evaluated on a Gauss-Legendre tensor grid covering the window support
    (the integrand vanishes outside |u| = R).  Single-mode states only;
    multimode product states follow by tensoring.
    """
    w = w or default_window(truncation)
    if getattr(state, "modes", 1) != 1:
        raise ValueError("project_PM_tilde supports single-mode states")
    mat = fock_pairing_matrix(
        state.char, truncation, w.radius, _PM_TILDE_NODES, window=w.xi
    )
    return FockMatrix(1, truncation, mat)
