"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the library code paths it is
used to check: dense tensor-grid quadrature, explicit factorial sums, and
direct Fock-series evaluations.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import erf

from cvshadow.phase_space import char_fock_dyad
from cvshadow.qmc import BoxDomain, qmc_integrate


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
