"""Constructors for the test states: Gaussian states, cat qubits, harmonic chains.

State specs are small frozen dataclasses; every spec exposes ``modes`` and a
``char(u)`` evaluator for its exact characteristic function.  Fock-basis
density matrices live in :class:`FockMatrix` with multi-indices raveled
row-major (first mode slowest).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .phase_space import (
    char_coherent_dyad,
    char_gaussian_raw,
    omega_matrix,
    symplectic_product,
)

_PSD_TOL = 1e-10
_EIG_FLOOR = 1e-12


def multi_indices(truncation: int, modes: int) -> np.ndarray:
    """All Fock multi-indices in {0..M}^r, shape ((M+1)^r, r), row-major."""
    grids = np.meshgrid(*[np.arange(truncation + 1)] * modes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class FockMatrix:
    """Operator on ``modes`` bosonic modes truncated at photon number ``M``.

    ``entries[i, j]`` is ``<n_i| T |n_j>`` with multi-indices raveled as in
    :func:`multi_indices`.  Exact-state constructors produce Hermitian, PSD,
    nearly unit-trace matrices; shadow estimates are generally neither
    positive nor normalized.
    """

    modes: int
    truncation: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = (self.truncation + 1) ** self.modes
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {self.entries.shape} incompatible with "
                f"M={self.truncation}, modes={self.modes}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def char(self, u):
        """Characteristic function Tr[T D(u)] of a single-mode matrix."""
        if self.modes != 1:
            raise ValueError("char is implemented for single-mode matrices")
        from .phase_space import char_fock_dyad

        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1], dtype=complex)
        for j in range(self.dim):
            for k in range(self.dim):
                if self.entries[j, k] != 0:
                    out = out + self.entries[j, k] * char_fock_dyad(j, k, u)
        return out if np.ndim(out) else complex(out)


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianStateSpec:
    """Gaussian state with mean ``t`` and covariance ``V`` (vacuum has V = I).

    ``V`` must be symmetric to 1e-10 (``max |V - V^T| <= 1e-10``, absolute)
    and satisfy ``V + i Omega >= 0`` to tolerance 1e-10, that is ``V + i
    Omega + 1e-10 I`` positive semidefinite; see :func:`_is_quantum_covariance`.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat even-length vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean {mean.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        step = max(1, (1 << 16) // max(1, mean.size))  # rows per block of 2^16 values
        for r in range(0, mean.size, step):
            if np.abs(cov[r : r + step] - cov[:, r : r + step].T).max(initial=0.0) > 1e-10:
                raise ValueError("covariance matrix must be symmetric")
        if not _is_quantum_covariance(cov):
            raise ValueError(
                f"V + i Omega + {_PSD_TOL:g} I is not positive semidefinite; "
                "not a valid quantum covariance matrix"
            )
        cov = cov + cov.T  # 0.5 (cov + cov^T), the one 2m x 2m allocation
        cov *= 0.5
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    def char(self, u) -> np.ndarray:
        return char_gaussian_raw(self.mean, self.cov, u)

    def marginal(self, modes: list[int]) -> "GaussianStateSpec":
        """Reduced Gaussian state on distinct modes in 0..m-1 (order preserved)."""
        m = self.modes
        if any(not 0 <= i < m for i in modes) or len(set(modes)) != len(modes):
            raise ValueError(f"modes {list(modes)} must be distinct and in 0..{m - 1}")
        idx = np.concatenate([np.asarray(modes), np.asarray(modes) + m])
        return GaussianStateSpec(self.mean[idx], self.cov[np.ix_(idx, idx)])

    @classmethod
    def vacuum(cls, modes: int = 1) -> "GaussianStateSpec":
        return cls(np.zeros(2 * modes), np.eye(2 * modes))

    @classmethod
    def thermal(cls, nu: float, modes: int = 1) -> "GaussianStateSpec":
        """Thermal state with mean photon number ``nu`` per mode."""
        if nu < 0:
            raise ValueError("mean photon number must be non-negative")
        return cls(np.zeros(2 * modes), (2.0 * nu + 1.0) * np.eye(2 * modes))

    @classmethod
    def coherent(cls, alpha: complex) -> "GaussianStateSpec":
        """Single-mode coherent state with complex amplitude ``alpha``."""
        alpha = complex(alpha)
        mean = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
        return cls(mean, np.eye(2))

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Spectrum of |i Omega V|, one value per mode (>= 1 for valid states)."""
        omega = omega_matrix(self.modes)
        lam = np.linalg.eigvals(1j * omega @ self.cov)
        return np.sort(np.abs(lam.real))[::2]


def block_cholesky(a: np.ndarray, k: np.ndarray, b: np.ndarray):
    """Blocks ``L11 = chol(a)``, ``L21 = (L11^-1 k)^H``, ``L22 = chol(b - L21 L21^H)``.

    They factor ``[[a, k], [k^H, b]]`` for real m x m ``a``, ``b`` and a real
    or complex C-contiguous ``k`` (overwritten), or raise ``LinAlgError``
    unless it is positive definite.  Every intermediate is m x m.
    """
    l11 = np.linalg.cholesky(a)
    del a  # a temporary passed in is freed before the blocks that follow
    x = k.view(float)  # L11 is real: one pass solves the real and imaginary parts
    for i in range(0, len(x), 256):  # forward substitution, 256 rows at a time
        rows = slice(i, i + 256)
        x[rows] -= l11[rows, :i] @ x[:i]
        x[rows] = np.linalg.solve(l11[rows, rows], x[rows])
    s = np.empty_like(k)
    for j in range(0, len(s), 256):  # k^H k, conjugating one column block at a time
        np.matmul(k[:, j : j + 256].conj().T, k, out=s[j : j + 256])
    np.subtract(b, s, out=s)
    del b
    l22 = np.linalg.cholesky(s)
    return l11, np.conjugate(k, out=k).T, l22


def xxpp_block(cov: np.ndarray, i: int, j: int, diag=0.0) -> np.ndarray:
    """Block ``(i, j)`` of ``0.5 (cov + cov^T) + diag I`` on the xxpp grid of m x m blocks."""
    m = cov.shape[0] // 2
    rows, cols = slice(i * m, (i + 1) * m), slice(j * m, (j + 1) * m)
    return 0.5 * (cov[rows, cols] + cov[cols, rows].T) + diag * np.eye(m)


def _is_quantum_covariance(cov: np.ndarray) -> bool:
    """Whether ``V + i Omega + tau I >= 0`` for ``V = 0.5 (cov + cov^T)``, tau = 1e-10.

    :func:`block_cholesky` of ``A + tau I``, ``C + i I``, ``B + tau I`` for ``V
    = [[A, C], [C^T, B]]`` decides it (on the boundary itself, rounding does).
    """
    try:
        block_cholesky(
            xxpp_block(cov, 0, 0, _PSD_TOL),
            xxpp_block(cov, 0, 1, 1j),
            xxpp_block(cov, 1, 1, _PSD_TOL),
        )
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------

_CAT_LOGICALS = ("zero", "one", "plus", "minus")
_DEGENERATE_ALPHA = 1e-6


@dataclass(frozen=True)
class CatStateSpec:
    """Single-mode cat qubit built from the coherent pair ``|alpha>, |-alpha>``.

    ``alpha`` is the complex amplitude (a pair ``(a, b)`` is read as
    ``a + i b``); the corresponding phase-space center is
    ``sqrt(2) (Re alpha, Im alpha)``.  ``logical`` selects the even/odd cats
    ``plus``/``minus`` or the qubit basis states ``zero``/``one``.
    """

    alpha: complex
    logical: str = "zero"

    def __post_init__(self):
        alpha = self.alpha
        if isinstance(alpha, (tuple, list, np.ndarray)):
            alpha = complex(alpha[0], alpha[1])
        object.__setattr__(self, "alpha", complex(alpha))
        if self.logical not in _CAT_LOGICALS:
            raise ValueError(f"logical must be one of {_CAT_LOGICALS}")
        if self.logical in ("one", "minus") and abs(self.alpha) < _DEGENERATE_ALPHA:
            raise ValueError(
                f"cat state '{self.logical}' degenerates as alpha -> 0 "
                f"(|alpha| = {abs(self.alpha):.2e})"
            )

    @property
    def modes(self) -> int:
        return 1

    @property
    def norm_constants(self) -> tuple[float, float]:
        """(N_+, N_-) with N_pm = sqrt(2 (1 pm exp(-2|alpha|^2)))."""
        overlap = math.exp(-2.0 * abs(self.alpha) ** 2)
        return math.sqrt(2.0 * (1.0 + overlap)), math.sqrt(2.0 * (1.0 - overlap))

    @property
    def center(self) -> np.ndarray:
        """Phase-space point of the ``+alpha`` branch."""
        return np.sqrt(2.0) * np.array([self.alpha.real, self.alpha.imag])

    def coherent_weights(self) -> tuple[float, float]:
        """Amplitudes (w_+, w_-) of |psi> = w_+ |alpha> + w_- |-alpha>."""
        np_, nm = self.norm_constants
        if self.logical == "plus":
            return 1.0 / np_, 1.0 / np_
        if self.logical == "minus":
            return 1.0 / nm, -1.0 / nm
        s = 1.0 / math.sqrt(2.0)
        if self.logical == "zero":
            return s * (1.0 / np_ + 1.0 / nm), s * (1.0 / np_ - 1.0 / nm)
        return s * (1.0 / np_ - 1.0 / nm), s * (1.0 / np_ + 1.0 / nm)

    def char(self, u):
        return cat_char(self, u)


def cat_char(spec: CatStateSpec, u):
    """Characteristic function of a cat state.

    Expands ``|psi><psi|`` over the four coherent dyads of ``|alpha>`` and
    ``|-alpha>``; for the zero/one cats this reproduces the combination with
    weights ``(1/N_+^2 + 1/N_-^2)/2``, ``(1/N_+^2 - 1/N_-^2)/2`` and
    ``+-1/(N_+ N_-)``, and it satisfies ``cat_char(spec, 0) = 1`` exactly.
    """
    w_plus, w_minus = spec.coherent_weights()
    b = spec.center
    centers = [b, -b]
    weights = [w_plus, w_minus]
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1], dtype=complex)
    for wi, bi in zip(weights, centers):
        for wj, bj in zip(weights, centers):
            out = out + wi * np.conj(wj) * char_coherent_dyad(bi, bj, u)
    return out if np.ndim(out) else complex(out)


def coherent_overlap(x, y):
    """Overlap ``<x|y>`` of coherent states at phase-space points x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    phase = 0.5 * symplectic_product(x, y)
    return np.exp(1j * phase - 0.25 * np.sum((x - y) ** 2, axis=-1))


def cat_position_pdf(spec: CatStateSpec, x):
    """Coherent-overlap density ``|<x|psi>|^2`` of a cat state.

    ``x`` is a phase-space point (or array of them, shape ``(..., 2)``).  The
    density integrates to one against ``d^2x / (2 pi)``; the heterodyne
    outcome density is this value divided by ``2 pi``.  The rotated-quadrature
    (homodyne) density is obtained separately via ``fock_matrix_of`` +
    ``homodyne_pdf``.
    """
    w_plus, w_minus = spec.coherent_weights()
    b = spec.center
    amp = w_plus * coherent_overlap(x, b) + w_minus * coherent_overlap(x, -b)
    out = np.abs(amp) ** 2
    return out if np.ndim(out) else float(out)


def coherent_fock_coefficients(alpha: complex, truncation: int) -> np.ndarray:
    """Fock amplitudes ``<n|alpha>`` of a coherent state, ``n = 0..truncation``.

    Magnitudes are built in the log domain, so large ``n`` does not overflow.
    """
    if alpha == 0:
        coeffs = np.zeros(truncation + 1, dtype=complex)
        coeffs[0] = 1.0
        return coeffs
    n = np.arange(truncation + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(truncation + 1)])
    log_mag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * log_fact
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def cat_fock_coefficients(spec: CatStateSpec, truncation: int) -> np.ndarray:
    """Fock expansion coefficients of the cat state up to ``truncation``."""
    w_plus, w_minus = spec.coherent_weights()
    n = np.arange(truncation + 1)
    coh = coherent_fock_coefficients(spec.alpha, truncation)
    return w_plus * coh + w_minus * coh * (-1.0) ** n


# ---------------------------------------------------------------------------
# harmonic chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """Circulant chain of quadratic oscillators with coupling ``kappa``.

    ``h_XX`` has 1/2 on the diagonal and ``-kappa/4`` on the off-diagonals and
    corners; ``h_PP = I/2``.  With ``disorder`` set, ``h_XX`` is perturbed by
    ``Q^2/(2m)`` where ``Q`` is the symmetrized real part of an i.i.d.
    standard-normal matrix drawn with ``disorder_seed``.
    """

    m: int
    kappa: float
    disorder: bool = False
    disorder_seed: int = 1234

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chain needs at least one oscillator")
        if abs(self.kappa) > 1.0:
            raise ValueError("|kappa| must not exceed 1")

    @property
    def modes(self) -> int:
        return self.m

    def h_xx(self) -> np.ndarray:
        h = 0.5 * np.eye(self.m)
        if self.m > 1:
            off = -self.kappa / 4.0
            idx = np.arange(self.m - 1)
            h[idx, idx + 1] = off
            h[idx + 1, idx] = off
            h[0, self.m - 1] += off
            h[self.m - 1, 0] += off
        if self.disorder:
            rng = np.random.default_rng(self.disorder_seed)
            a = rng.standard_normal((self.m, self.m))
            q = 0.5 * (a + a.T)
            h = h + (q @ q) / (2.0 * self.m)
        return h


def chain_ground_state(spec: ChainSpec) -> GaussianStateSpec:
    """Gaussian ground state of the chain: mean 0, covariance diag(X, X^-1).

    The general ``X = h_XX^{-1/2} sqrt(sqrt(h_XX) h_PP sqrt(h_XX))
    h_XX^{-1/2}`` reduces to ``(2 h_XX)^{-1/2}`` at ``h_PP = I/2``, so ``X``
    and ``X^-1 = (2 h_XX)^{1/2}`` both come from one symmetric
    eigendecomposition of ``h_XX``.
    """
    lam, vec = np.linalg.eigh(spec.h_xx())
    if lam.min() < _EIG_FLOOR:
        raise ValueError(
            f"matrix not positive definite (min eigenvalue {lam.min():.3e}); "
            "kappa too close to a degenerate point"
        )
    root, m = np.sqrt(2.0 * lam), spec.m
    cov = np.zeros((2 * m, 2 * m))
    np.matmul(vec / root, vec.T, out=cov[:m, :m])
    np.matmul(vec * root, vec.T, out=cov[m:, m:])
    del vec  # freed before the state's check, which holds several m x m blocks
    return GaussianStateSpec(np.zeros(2 * m), cov)


# ---------------------------------------------------------------------------
# truncated Fock matrices
# ---------------------------------------------------------------------------


# the pure-Python recursion fills 2^16 amplitudes in under 0.5 s (m = 1 to 8)
_GAUSSIAN_FOCK_MAX_ENTRIES = 2**16


def _gaussian_fock(spec: GaussianStateSpec, truncation: int) -> FockMatrix:
    """Any m-mode Gaussian state by the multidimensional Hermite recursion.

    With ``W = [[I, iI], [I, -iI]]/sqrt 2``, ``Q = W (V/2) W^H + I/2``,
    ``beta = W t`` and ``X = [[0, I], [I, 0]]``, the amplitudes ``G(k) =
    <ket| rho |bra>``, ``k = (ket_1..ket_m, bra_1..bra_m)``, obey ``G(k + e_i)
    = (gamma_i G(k) + sum_j A_ij sqrt(k_j) G(k - e_j)) / sqrt(k_i + 1)`` with
    ``A = (X (I - Q^-1))*``, ``gamma = (beta^H Q^-1)*`` and ``G(0) =
    exp(-beta^H Q^-1 beta / 2) / sqrt(det Q)`` (Quesada et al. 2019,
    arXiv:1905.07011; Miatto & Quesada 2020, arXiv:2004.11002).
    """
    m, d = spec.modes, truncation + 1
    if d ** (2 * m) > _GAUSSIAN_FOCK_MAX_ENTRIES:
        raise ValueError(f"{d}^{2 * m} amplitudes exceed the limit {_GAUSSIAN_FOCK_MAX_ENTRIES}")
    w = np.kron([[1.0, 1j], [1.0, -1j]], np.eye(m)) / np.sqrt(2.0)
    q = w @ (0.5 * spec.cov) @ w.conj().T + 0.5 * np.eye(2 * m)
    q_inv = np.linalg.inv(q)
    beta = w @ spec.mean
    a = (np.roll(np.eye(2 * m), m, axis=0) @ (np.eye(2 * m) - q_inv)).conj().tolist()
    gamma = (beta.conj() @ q_inv).conj().tolist()
    g = [complex(np.exp(-0.5 * beta.conj() @ q_inv @ beta) / np.sqrt(np.linalg.det(q).real))]
    strides = [d ** (2 * m - 1 - i) for i in range(2 * m)]
    roots = [math.sqrt(n) for n in range(d)]
    for k in itertools.islice(itertools.product(range(d), repeat=2 * m), 1, None):
        i = max(j for j in range(2 * m) if k[j])  # step from k - e_i
        prev = len(g) - strides[i]
        val = gamma[i] * g[prev]
        for j, a_ij in enumerate(a[i]):
            kj = k[j] - (j == i)
            if kj:
                val += a_ij * roots[kj] * g[prev - strides[j]]
        g.append(val / roots[k[i]])
    rho = np.array(g).reshape(d**m, d**m)
    return FockMatrix(m, truncation, rho)


def fock_matrix_of(state, truncation: int) -> FockMatrix:
    """Exact truncated density matrix of a supported state.

    ``state`` is a :class:`CatStateSpec` or a :class:`GaussianStateSpec` of
    any mode count (vacuum, coherent, thermal, squeezed and correlated
    states, and marginals such as ``spec.marginal([i, j])``), all built by
    the one Hermite recursion of :func:`_gaussian_fock`; it refuses more than
    2^16 amplitudes ``(M+1)^(2m)``.
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    if isinstance(state, CatStateSpec):
        coeffs = cat_fock_coefficients(state, truncation)
        return FockMatrix(1, truncation, np.outer(coeffs, coeffs.conj()))
    if isinstance(state, GaussianStateSpec):
        return _gaussian_fock(state, truncation)
    raise ValueError(f"unsupported state kind: {type(state).__name__}")


def fock_moments(fock: FockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix implied by a single-mode Fock matrix.

    Uses the ladder-operator sums; the covariance follows the anticommutator
    convention in which the vacuum has V = I.
    """
    if fock.modes != 1:
        raise ValueError("fock_moments supports single-mode matrices")
    rho = fock.entries
    n = np.arange(fock.truncation + 1)
    tr = np.trace(rho).real
    a_mean = np.sum(np.sqrt(n[1:]) * np.diag(rho, k=-1))
    aa = np.sum(np.sqrt(n[2:] * (n[2:] - 1)) * np.diag(rho, k=-2))
    adaga = np.sum(n * np.diag(rho).real)
    tx = np.sqrt(2.0) * a_mean.real / tr
    tp = np.sqrt(2.0) * a_mean.imag / tr
    x2 = aa.real + adaga + 0.5 * tr
    p2 = -aa.real + adaga + 0.5 * tr
    xp = aa.imag
    v_xx = 2.0 * x2 / tr - 2.0 * tx * tx
    v_pp = 2.0 * p2 / tr - 2.0 * tp * tp
    v_xp = 2.0 * xp / tr - 2.0 * tx * tp
    return np.array([tx, tp]), np.array([[v_xx, v_xp], [v_xp, v_pp]])
