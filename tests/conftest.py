"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the library code paths it is
used to check: dense tensor-grid quadrature, explicit factorial sums, and
direct Fock-series evaluations.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import erf

from cvshadow.measurement import fock_husimi
from cvshadow.phase_space import char_fock_dyad, fock_dyad_radial, hermite_stack
from cvshadow.qmc import BoxDomain, qmc_integrate
from cvshadow.states import (
    CatStateSpec,
    FockMatrix,
    GaussianStateSpec,
    cat_position_pdf,
    multi_indices,
)


def gauss_legendre_grid_2d(half_width: float, nodes: int):
    """(points, weights) for a tensor Gauss-Legendre rule on a centered square."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    pts = half_width * x
    w2d = np.outer(w, w) * half_width**2
    gx, gy = np.meshgrid(pts, pts, indexing="ij")
    return np.stack([gx, gy], axis=-1), w2d


def plancherel_pairing(f_vals, g_vals, weights):
    """Quadrature of conj(f) g / (2 pi) over the grid the values live on."""
    return np.sum(weights * np.conj(f_vals) * g_vals) / (2.0 * np.pi)


@pytest.fixture(scope="session")
def dyad_grid():
    """Shared quadrature grid plus cached Fock-dyad evaluations up to n = 6."""
    grid, weights = gauss_legendre_grid_2d(12.0, 220)
    cache = {}

    def dyad(n1, n2):
        if (n1, n2) not in cache:
            cache[(n1, n2)] = char_fock_dyad(n1, n2, grid)
        return cache[(n1, n2)]

    return grid, weights, dyad


def gaussian_family_error(budget: int, half_width: float = 6.0) -> float:
    """Worst absolute QMC error over a small family of 2D Gaussians.

    Runs ``qmc_integrate`` against the exact box integrals (erf products).
    """
    box = BoxDomain([half_width, half_width])
    worst = 0.0
    for sigma in (0.8, 1.0, 1.4, 2.0):
        for center in ((0.0, 0.0), (0.5, -0.3)):

            def f(p, sigma=sigma, center=center):
                d = p - np.asarray(center)
                return np.exp(-0.5 * np.sum(d * d, axis=-1) / sigma**2)

            exact = 1.0
            for c in center:
                a = (-half_width - c) / (sigma * math.sqrt(2.0))
                b = (half_width - c) / (sigma * math.sqrt(2.0))
                exact *= sigma * math.sqrt(math.pi / 2.0) * (erf(b) - erf(a))
            val, _ = qmc_integrate(f, box, budget)
            worst = max(worst, abs(val - exact))
    return worst


def reference_jsonl(batch) -> bytes:
    """``records.jsonl`` bytes of ``batch``, one ``json.dumps`` per round."""
    lines = []
    for i in range(batch.n):
        payload = {
            "protocol": batch.protocol,
            "thetas": None if batch.thetas is None else batch.thetas[i].tolist(),
            "outcome": batch.outcomes[i].tolist(),
            "seed_path": batch.seed_path,
        }
        lines.append(json.dumps(payload, separators=(",", ":")) + "\n")
    return "".join(lines).encode()


def hermite_wavefunction(n: int, q):
    """L2-normalized harmonic-oscillator eigenfunction ``psi_n(q)``, n <= 200.

    Convention ``X = (a + a^dag)/sqrt(2)``, i.e. ``psi_0(q) = pi^(-1/4)
    exp(-q^2/2)``; row ``n`` of ``hermite_stack``.  Vectorized in ``q``.
    """
    if not 0 <= n <= 200:
        raise ValueError(f"n={n} out of range 0..200")
    psi = hermite_stack(n, q)[n]
    return psi if psi.ndim else float(psi)


def heterodyne_covariance(spec: GaussianStateSpec) -> np.ndarray:
    """Covariance ``(V + I)/2`` of heterodyne outcomes of a Gaussian state."""
    return 0.5 * (spec.cov + np.eye(spec.cov.shape[0]))


def correlated_gaussian(modes: int, seed: int) -> GaussianStateSpec:
    """A pure ``modes``-mode Gaussian state with x-p correlations and a nonzero mean.

    ``V = S S^T`` for the symplectic ``S = expm(Omega (H + H^T))``, so its xp
    block ``C`` is nonzero and every symplectic eigenvalue is 1.
    """
    rng = np.random.default_rng(seed)
    eye, zero = np.eye(modes), np.zeros((modes, modes))
    h = rng.normal(scale=0.3, size=(2 * modes, 2 * modes))
    sym = expm(np.block([[zero, eye], [-eye, zero]]) @ (h + h.T))
    return GaussianStateSpec(rng.normal(size=2 * modes), sym @ sym.T)


def heterodyne_pdf(state, x):
    """Normalized heterodyne outcome density of ``state`` at point(s) ``x``.

    Gaussian states use the closed form ``N(t, (V+I)/2)``; cat states the
    coherent-overlap density; truncated Fock matrices the Husimi form.
    """
    if isinstance(state, GaussianStateSpec):
        x = np.asarray(x, dtype=float)
        chol = np.linalg.cholesky(heterodyne_covariance(state))
        z = np.linalg.solve(chol, (x - state.mean).reshape(-1, chol.shape[0]).T)
        norm = (2.0 * np.pi) ** (chol.shape[0] / 2.0) * np.prod(np.diag(chol))
        out = (np.exp(-0.5 * np.sum(z * z, axis=0)) / norm).reshape(x.shape[:-1])
        return out if np.ndim(out) else float(out)
    if isinstance(state, CatStateSpec):
        return cat_position_pdf(state, x) / (2.0 * np.pi)
    if isinstance(state, FockMatrix):
        return fock_husimi(state, x)
    raise ValueError(f"unsupported state kind: {type(state).__name__}")


def sobolev_norm(mat: FockMatrix, alpha: float) -> float:
    """Weighted trace norm ``|| H^(a/2) X H^(a/2) ||_1``.

    Weights ``(1 + |n|)^(alpha/2)`` with the total photon number ``|n|`` act
    on each side; the norm is the sum of singular values.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    weights = (1.0 + multi_indices(mat.truncation, mat.modes).sum(axis=1)) ** (alpha / 2.0)
    weighted = weights[:, None] * mat.entries * weights[None, :]
    return float(np.linalg.svd(weighted, compute_uv=False).sum())


def homodyne_transform(truncation: int):
    """Homodyne pattern functions at any radii, straight from the 600-node rule.

    ``profile_{d,k}(r) = coeff int t radial(t) osc_d(t r) dt`` (cos for even,
    sin for odd d) and its r-derivative, with ``cos(t r)`` and ``sin(t r)``
    evaluated at every node and radius: ``transform(r)`` returns (values,
    slopes), each of shape (rows, len(r)), rows the entries (k + d, k), d-major.
    """
    upper = 16.0 + 2.0 * np.sqrt(truncation + 1.0)
    x, wts = np.polynomial.legendre.leggauss(600)
    t = 0.5 * upper * (x + 1.0)
    wt = 0.5 * upper * wts
    dyads = [(d, k) for d in range(truncation + 1) for k in range(truncation + 1 - d)]
    rows = []
    for d, k in dyads:
        coeff, _, radial = fock_dyad_radial(k, k + d)
        rows.append(coeff * wt * t * radial(t))
    rows = np.array(rows)
    odd = np.array([d % 2 == 1 for d, _ in dyads])[:, None]

    def transform(r):
        tr = np.outer(t, r)
        cos_t, sin_t = np.cos(tr), np.sin(tr)
        vals = np.where(odd, rows @ sin_t, rows @ cos_t)
        slopes = np.where(odd, (rows * t) @ cos_t, -((rows * t) @ sin_t))
        return vals, slopes

    return transform
