"""Phase-space conventions, special functions, and exact characteristic functions.

Conventions used throughout the package:

* An ``m``-mode phase-space point is a real vector of length ``2m`` ordered as
  ``(x_1, ..., x_m, p_1, ..., p_m)`` (positions first, then momenta).
* The symplectic form is ``Omega = [[0, I], [-I, 0]]``, so ``Omega @ (x, p) =
  (p, -x)``.  It is applied as a coordinate swap and never stored densely for
  large mode counts.
* The displacement operator is ``D(x) = exp(-i x^T Omega R)`` with
  ``R = (X_1..X_m, P_1..P_m)``, ``X = (a + a^dag)/sqrt(2)``.  The complex
  amplitude of a single-mode point ``u = (u_x, u_p)`` is
  ``alpha(u) = (u_x + i u_p)/sqrt(2)``.
* The characteristic function of a trace-class operator ``Z`` is
  ``chi_Z(u) = Tr[Z D(u)]``.  Vacuum: ``chi(u) = exp(-|u|^2/4)``; a valid
  covariance matrix has ``V = I`` for the vacuum.

All functions here are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def omega_apply(u: np.ndarray) -> np.ndarray:
    """Apply the symplectic form: ``Omega @ (x, p) = (p, -x)``.

    Acts on the last axis, which must have even length.
    """
    u = np.asarray(u)
    m = u.shape[-1] // 2
    return np.concatenate([u[..., m:], -u[..., :m]], axis=-1)


def omega_matrix(m: int) -> np.ndarray:
    """Dense ``2m x 2m`` symplectic form, for small-m checks only."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_product(u, v) -> np.ndarray:
    """``u^T Omega v`` without materializing Omega."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.shape[-1] // 2
    return np.sum(u[..., :m] * v[..., m:], axis=-1) - np.sum(
        u[..., m:] * v[..., :m], axis=-1
    )


def alpha_of(u: np.ndarray) -> np.ndarray:
    """Complex amplitude ``(x + i p)/sqrt(2)`` of single-mode points.

    Accepts arrays of shape ``(..., 2)``.
    """
    u = np.asarray(u, dtype=float)
    return (u[..., 0] + 1j * u[..., 1]) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def laguerre(k: int, j: int, x):
    """Generalized Laguerre polynomial ``L_k^(j)(x)``.

    Evaluated with the three-term recurrence in ``k``; the explicit factorial
    sum cancels catastrophically for k of a few tens.  Vectorized in array
    ``x``; a float ``x`` is used as given, so ``quad`` integrands pay for no
    array conversion.
    """
    if k < 0 or j < 0:
        raise ValueError(f"laguerre indices must be non-negative, got k={k}, j={j}")
    if k == 0:
        return np.ones_like(x, dtype=float) if np.ndim(x) else 1.0
    prev, cur = 1.0, 1.0 + j - x
    for i in range(2, k + 1):
        prev, cur = cur, ((2 * i - 1 + j - x) * cur - (i - 1 + j) * prev) / i
    return cur


# psi 2^-e gives up 2^512 to its exponent e once |psi| passes 2^512
_RESCALE_BITS = 512


def hermite_stack(n_max: int, q) -> np.ndarray:
    """``psi_n(q)`` for all ``n <= n_max``, shape ``(n_max + 1,) + q.shape``.

    Uses the stable three-term recurrence on the normalized functions, from
    ``psi_0 = pi^{-1/4} exp(-q^2/2)``.  Where that start is subnormal (|q| >
    37.6), the recurrence runs on ``psi 2^-e`` with an integer exponent ``e``
    per point instead, so rows that are representable do not underflow to 0
    on the way.  The other points' rows are the plain recurrence's bits.
    """
    q = np.asarray(q, dtype=float)
    shape = (n_max + 1,) + q.shape
    q = q.ravel()
    out = np.empty((n_max + 1, q.size))
    psi_prev = np.zeros_like(q)
    psi = np.pi ** (-0.25) * np.exp(-0.5 * q * q)
    far = np.flatnonzero(psi < np.finfo(float).tiny)
    log2_start = -0.5 * q[far] ** 2 / math.log(2.0)
    e = np.floor(log2_start).astype(int)
    psi[far] = np.pi ** (-0.25) * np.exp2(log2_start - e)
    out[0] = psi
    out[0, far] = np.ldexp(psi[far], e)
    for n in range(n_max):
        psi_prev, psi = psi, q * np.sqrt(2.0 / (n + 1)) * psi - np.sqrt(
            n / (n + 1.0)
        ) * psi_prev
        out[n + 1] = psi
        if far.size:
            big = np.abs(psi[far]) > 2.0**_RESCALE_BITS
            psi[far[big]] *= 2.0**-_RESCALE_BITS
            psi_prev[far[big]] *= 2.0**-_RESCALE_BITS
            e[big] += _RESCALE_BITS
            out[n + 1, far] = np.ldexp(psi[far], e)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def char_coherent_dyad(x, y, u):
    """Characteristic function of the coherent dyad ``|x><y|`` at ``u``.

    ``chi(u) = exp(-i/2 u^T Omega x) exp(i/2 y^T Omega (u+x))
    exp(-|u+x-y|^2/4)``.  ``x``, ``y`` and ``u`` share the same (even)
    dimension; multimode arguments factorize automatically.  ``u`` may carry
    leading batch axes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    phase = -0.5 * symplectic_product(u, x) + 0.5 * symplectic_product(y, u + x)
    gauss = -0.25 * np.sum((u + x - y) ** 2, axis=-1)
    out = np.exp(gauss + 1j * phase)
    return out if np.ndim(out) else complex(out)


def dyad_poly(lo: int, d: int, rho):
    """``(rho/sqrt2)^d L_lo^(d)(rho^2/2)``, the Fock-dyad profile without its Gaussian.

    The dyads ``|lo><lo+d|`` and ``|lo+d><lo|`` have radial profile
    ``sqrt(lo!/(lo+d)!) dyad_poly(lo, d, rho) exp(-rho^2/4)``.  ``rho`` is
    used as given, so a ``quad`` integrand passing Python floats pays for no
    array conversion.
    """
    return (rho / math.sqrt(2.0)) ** d * laguerre(lo, d, 0.5 * rho * rho)


def fock_dyad_radial(n1: int, n2: int):
    """Polar decomposition of ``chi_{|n1><n2|}``.

    Writes ``chi_{|n1><n2|}(u) = c * radial(rho) * exp(i d phi)`` for
    ``u = rho (cos phi, sin phi)``, with ``d = n2 - n1``.  Returns
    ``(c, d, radial)`` where ``c = +-sqrt(lo!/hi!)`` carries the sign
    convention of the ``n1 > n2`` branch and ``radial`` maps ``rho >= 0``
    arrays to the real profile ``dyad_poly(lo, |d|, rho) exp(-rho^2/4)``.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("Fock indices must be non-negative")
    d = n2 - n1
    lo, hi = min(n1, n2), max(n1, n2)
    sign = (-1.0) ** (n1 - n2) if n1 > n2 else 1.0
    coeff = sign * np.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1)))  # sqrt(lo!/hi!)

    def radial(rho):
        rho = np.asarray(rho, dtype=float)
        return dyad_poly(lo, abs(d), rho) * np.exp(-0.25 * rho * rho)

    return coeff, d, radial


def char_fock_dyad(n1: int, n2: int, u):
    """Characteristic function ``chi_{|n1><n2|}(u) = <n2| D(u) |n1>``.

    Closed form ``sqrt(k!/j!) exp(-|u|^2/4) alpha(u)^(j-k) L_k^(j-k)(|u|^2/2)``
    for ``j = n2 >= k = n1`` and the conjugate-symmetric branch otherwise
    (convention of the displacement operator above).  ``u`` has shape
    ``(..., 2)``.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != 2:
        raise ValueError("char_fock_dyad expects single-mode points of shape (..., 2)")
    coeff, d, radial = fock_dyad_radial(n1, n2)
    rho = np.sqrt(np.sum(u * u, axis=-1))
    phi = np.arctan2(u[..., 1], u[..., 0])
    out = coeff * radial(rho) * np.exp(1j * d * phi)
    return out if np.ndim(out) else complex(out)


def char_gaussian_raw(mean, cov, u):
    """Characteristic function of a Gaussian state with mean ``t`` and covariance ``V``.

    ``chi(u) = exp(-1/4 (Omega u)^T V (Omega u) - i u^T Omega t)``.  The
    symplectic congruence on the quadratic form and the sign of the mean phase
    are both fixed by agreement with ``chi_{|x><x|}(u) = exp(-|u|^2/4 -
    i u^T Omega x)`` and with the Fock-basis oracle on squeezed states; for
    isotropic ``V`` the congruence is invisible.  ``u`` may carry leading
    batch axes.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    u = np.asarray(u, dtype=float)
    if cov.shape[-1] != u.shape[-1] or mean.shape[-1] != u.shape[-1]:
        raise ValueError(
            f"dimension mismatch: mean {mean.shape}, cov {cov.shape}, u {u.shape}"
        )
    ou = omega_apply(u)
    quad = np.einsum("...i,ij,...j->...", ou, cov, ou)
    phase = -symplectic_product(u, mean)
    out = np.exp(-0.25 * quad + 1j * phase)
    return out if np.ndim(out) else complex(out)


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------


@dataclass
class CharGrid:
    """Characteristic-function values at the phase-space points they were taken at.

    ``points`` has shape ``values.shape + (2m,)``: one ``[x | p]`` point per value.
    """

    points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.points.shape[:-1] != self.values.shape:
            raise ValueError(
                f"points {self.points.shape} do not match values {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(
                "CharGrid values must be finite: exp(|u|^2/4) overflows on too wide a grid"
            )
