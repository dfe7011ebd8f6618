"""Polynomial von Neumann entropy estimation on truncated shadow averages.

The surrogate ``H^(d_p)`` is a degree-``d_p`` matrix polynomial of the
truncated estimate; it approximates the entropy of the projected state to
``(M+1)^r / d_p`` and only needs matrix powers, never an eigendecomposition,
so it applies verbatim to non-positive shadow averages.

Sign note: expanding ``-x ln x`` around the projector gives

    S(sigma) = -tr(sigma - P) - sum_{k>=2} tr[(P - sigma)^k] / (k (k-1)),

with a *minus* sign on the series (the maximally mixed state on dimension 2
must come out as ln 2, and a pure state as 0).  The surrogate implements this
sign; the corresponding swap-operator coefficients are the printed
``C_j = (-1)^j sum_{k=max(2,j)}^{d_p} (k-2)!/(k-j)!``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _log_required_n, sigma_homodyne
from .states import CatStateSpec, FockMatrix, GaussianStateSpec


@dataclass(frozen=True)
class EntropyPlan:
    """Parameter selection for entropy estimation at accuracy ``epsilon``.

    ``d_p = ceil(3 (M+1)^r / eps)`` and ``eps' = eps^2 / (12 (M+1)^r e)
    2^(-4 (M+1)^r / eps)``; the implied sample count is astronomically large
    for all but tiny ``(M+1)^r / eps`` and is reported in log10.
    """

    epsilon: float
    d_p: int
    epsilon_prime: float
    log10_epsilon_prime: float
    log10_n_implied: float | None = None


def entropy_poly(sigma, d_p: int) -> float:
    """Polynomial entropy surrogate ``H^(d_p)`` of a truncated matrix.

    ``sigma`` is a square array over the truncated block, such as a shadow
    average's ``mean``; ``P_M`` is the identity on that block.  Powers of
    ``P_M - sigma`` are accumulated by repeated multiplication with
    re-Hermitization after each step (shadow averages need not be positive).
    """
    if d_p < 2:
        raise ValueError("d_p must be at least 2")
    mat = np.asarray(sigma)
    dim = mat.shape[0]
    mat = 0.5 * (mat + mat.conj().T)
    a = np.eye(dim) - mat
    total = dim - float(np.trace(mat).real)
    power = a.copy()
    for k in range(2, d_p + 1):
        power = power @ a
        power = 0.5 * (power + power.conj().T)
        total -= float(np.trace(power).real) / (k * (k - 1))
    return total


# Failure probability of the implied sample count in :func:`plan_entropy`.
_PLAN_DELTA = 0.05


def plan_entropy(
    truncation: int,
    r: int,
    epsilon: float,
    energy: float,
) -> EntropyPlan:
    """Select ``d_p`` and the per-entry accuracy ``eps'`` for the entropy run.

    Requires the proof precondition ``1 + M > 4 r^2 E^2``.  The implied sample
    count (via the Bernstein expression at accuracy ``eps'``, for one mode at
    confidence 0.95) is reported, not enforced: it is astronomically large
    except at toy scales, so desk runs demonstrate the pipeline on exact
    projections plus controlled noise.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if 1 + truncation <= 4.0 * r * r * energy * energy:
        raise ValueError(
            f"precondition 1 + M > 4 r^2 E^2 violated "
            f"(M={truncation}, r={r}, E={energy})"
        )
    dim = (truncation + 1) ** r
    d_p = math.ceil(3.0 * dim / epsilon)
    log2_eps_prime = (
        math.log2(epsilon * epsilon / (12.0 * dim * math.e)) - 4.0 * dim / epsilon
    )
    eps_prime = 2.0**log2_eps_prime if log2_eps_prime > -1000 else 0.0
    log10_eps_prime = log2_eps_prime * math.log10(2.0)

    # the homodyne Bernstein sample size at accuracy 2 eps' with additive
    # constant 1: N = (M+1)^{2r} (6 S^2 + 2 (S+1) eps') / (3 eps'^2)
    # log(2 (M+1)^r / delta)
    sigma = sigma_homodyne(truncation, r, 0.0)
    log_two_eps_prime = (log2_eps_prime + 1.0) * math.log(2.0)
    log_n = _log_required_n(
        truncation, r, log_two_eps_prime, _PLAN_DELTA, sigma, 1.0, 1, None
    )
    return EntropyPlan(
        epsilon=epsilon,
        d_p=d_p,
        epsilon_prime=eps_prime,
        log10_epsilon_prime=log10_eps_prime,
        log10_n_implied=log_n / math.log(10.0),
    )


def matrix_entropy(mat: np.ndarray) -> float:
    """Exact ``-tr(rho ln rho)`` of a PSD matrix (oracle path)."""
    lam = np.linalg.eigvalsh(0.5 * (mat + np.conj(mat).T))
    lam = lam[lam > 1e-300]
    return float(0.0 - np.sum(lam * np.log(lam)))  # a pure state reads 0.0, not -0.0


def _gaussian_mode_entropy(nu_symplectic: float) -> float:
    """Entropy contribution g((v-1)/2) of one symplectic eigenvalue v >= 1."""
    x = max(0.5 * (nu_symplectic - 1.0), 0.0)
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log(x + 1.0) - x * math.log(x)


def entropy_reference(spec) -> float:
    """Exact von Neumann entropy of a Gaussian state, cat state or truncated matrix.

    Gaussian states use the symplectic spectrum (a thermal state with mean
    photon number ``nu`` gives ``(nu+1) ln(nu+1) - nu ln nu``); a cat state is
    pure; truncated Fock matrices are diagonalized directly.
    """
    if isinstance(spec, CatStateSpec):
        return 0.0
    if isinstance(spec, GaussianStateSpec):
        return float(
            sum(_gaussian_mode_entropy(v) for v in spec.symplectic_eigenvalues())
        )
    if isinstance(spec, FockMatrix):
        return matrix_entropy(spec.entries)
    raise ValueError(f"unsupported state kind: {type(spec).__name__}")
