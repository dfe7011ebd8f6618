"""Constructors for the test states: Gaussian states, cat qubits, harmonic chains.

State specs are small frozen dataclasses.  A state exposes ``modes`` and,
for one mode or a Gaussian, ``char(u)``, its exact characteristic function;
a chain's ground state gives that of the modes its ``marginal`` names.
Fock-basis density matrices live in :class:`FockMatrix` with multi-indices
raveled row-major (first mode slowest).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .phase_space import (
    char_coherent_dyad,
    char_fock_dyad,
    char_gaussian_raw,
    omega_matrix,
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

    def char(self, u):
        """Characteristic function Tr[T D(u)] of a single-mode matrix."""
        if self.modes != 1:
            raise ValueError("char is implemented for single-mode matrices")
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1], dtype=complex)
        for j in range(self.dim):
            for k in range(self.dim):
                if self.entries[j, k] != 0:
                    out = out + self.entries[j, k] * char_fock_dyad(j, k, u)
        return out if np.ndim(out) else complex(out)


@dataclass(frozen=True, eq=False)
class FockKet:
    """Single-mode pure state ``c c^H``, held as its amplitudes ``c_n``, ``n <= M``.

    It stands in for its :class:`FockMatrix` where only the state's factor
    and moments are read, so the samplers never form the (dim, dim) matrix
    of a large cat; ``entries`` builds that matrix.
    """

    coeffs: np.ndarray
    modes = 1

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    @property
    def entries(self) -> np.ndarray:
        return np.outer(self.coeffs, self.coeffs.conj())


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
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a flat even-length vector of at least one mode")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean {mean.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        for rows in value_slices(mean.size, mean.size, SLICE_BUDGETS["covariance"]):
            if np.abs(cov[rows] - cov[:, rows].T).max(initial=0.0) > 1e-10:
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
        _check_modes(modes, m)
        idx = np.concatenate([np.asarray(modes), np.asarray(modes) + m])
        return GaussianStateSpec(self.mean[idx], self.cov[np.ix_(idx, idx)])

    def phase_space_draws(self, vacuum: float, n: int, rng) -> Iterator[np.ndarray]:
        """``n`` rows ``[x | p]`` from ``N(t, (V + vacuum I) / 2)``: Wigner 0, heterodyne 1.

        Yields them in ``"gaussian"`` blocks (:func:`value_slices`) of a
        multiple of 256 rows; a caller that drops each block before asking for
        the next holds one at a time.  The m x m blocks are factored by
        :func:`block_cholesky`, and a block's normals ``z`` become ``t + z
        L^T`` in place, 256 rows at a time; the normals are drawn in row
        order, so the rows do not depend on the block size.
        """
        m = self.modes

        def half(i, j, diag=0.0):  # block (i, j) of (V + diag I) / 2; V is symmetric
            return 0.5 * xxpp_block(self.cov, i, j, diag)

        l11, l21, l22 = block_cholesky(half(0, 0, vacuum), half(0, 1), half(1, 1, vacuum))
        for rows in value_slices(n, 2 * m, SLICE_BUDGETS["gaussian"], align=256):
            z = rng.standard_normal((rows.stop - rows.start, 2 * m))
            for s in range(0, len(z), 256):
                x, p = z[s : s + 256, :m], z[s : s + 256, m:]
                p[:] = x @ l21.T + p @ l22.T
                x[:] = x @ l11.T
            z += self.mean
            yield z
            del z  # freed before the next block, once the caller lets it go

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


def _check_modes(modes, m: int, name: str = "modes") -> None:
    """Refuse ``modes`` unless one or more, distinct and in ``0..m-1``; ``name`` labels them."""
    if not len(modes) or any(not 0 <= i < m for i in modes) or len(set(modes)) != len(modes):
        raise ValueError(
            f"{name} {modes} outside measured modes 0..{m - 1} or repeated: "
            "modes must be distinct"
        )


# Values per slice of each loop cut by `value_slices`, whatever N, m or D: a
# slice holds budget // per_item items, at most cap, rounded down to a multiple
# of align and at least align.  Only the cuts marked "bits" move output bits;
# the samplers draw their normals in row order, so theirs move none.
# The "rounds" cap and the "grid" budget hold a D = 4 shadow chunk to 0.25 MB
# and the two phase buffers of an 81-point grid (400 rounds) to 1 MB.
SLICE_BUDGETS = {
    "covariance": 1 << 16,  # GaussianStateSpec's symmetry check, rows of V, 2m a row
    "gaussian": 1 << 18,  # GaussianStateSpec draws, 2m a row, multiples of 256 rows
    "chain": 1 << 15,  # CirculantChainState draws and in-place FFTs, 4m a row
    "density": 1 << 17,  # bits (BLAS column blocks): density points, dim a point, align 16
    "proposals": 1 << 12,  # rejection probe and chunks (map, target, acceptance), one a proposal
    "turns": 1 << 15,  # node offsets of a table growth, t-rule nodes an offset, align 16
    "rounds": 1 << 16,  # bits (the averages' sums): shadow chunks, D^2 a round, cap 1024
    "rings": 1 << 12,  # radii of the P~_M pairing, 256 angles a radius
    "grid": 1 << 15,  # bits (the grid's sums): trial chi rounds, grid points a round, align 16
    "csv": 1 << 12,  # rows of a grid CSV formatted at a time, its columns a row
}


def value_slices(n: int, per_item: int, budget: int, align: int = 1, cap: int = 0) -> list[slice]:
    """Consecutive slices of ``range(n)``, cut by the rule above ``SLICE_BUDGETS``."""
    step = budget // max(1, per_item)
    step = max(align, min(step, cap or step) // align * align)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


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
        """Characteristic function of the cat state.

        Expands ``|psi><psi|`` over the four coherent dyads of ``|alpha>`` and
        ``|-alpha>``; for the zero/one cats this reproduces the combination with
        weights ``(1/N_+^2 + 1/N_-^2)/2``, ``(1/N_+^2 - 1/N_-^2)/2`` and
        ``+-1/(N_+ N_-)``, and it satisfies ``char(0) = 1`` exactly.
        """
        weights = self.coherent_weights()
        centers = [self.center, -self.center]
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1], dtype=complex)
        for wi, bi in zip(weights, centers):
            for wj, bj in zip(weights, centers):
                out = out + wi * np.conj(wj) * char_coherent_dyad(bi, bj, u)
        return out if np.ndim(out) else complex(out)


def coherent_fock_coefficients(alpha, truncation: int) -> np.ndarray:
    """Fock amplitudes ``<n|alpha>`` of coherent states, ``n = 0..truncation``.

    ``alpha`` is a complex amplitude or an array of them; the result has
    shape ``(truncation + 1,) + alpha.shape``.  Magnitudes ``exp(-|alpha|^2/2)
    |alpha|^n / sqrt(n!)`` are built in the log domain, so neither a large
    ``n`` nor a large ``|alpha|`` overflows or underflows where the amplitude
    itself is representable.
    """
    alpha = np.asarray(alpha, dtype=complex)
    n = np.arange(truncation + 1).reshape((-1,) + (1,) * alpha.ndim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(truncation + 1)]).reshape(n.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = n * np.log(np.abs(alpha))
    mag[0] = 0.0  # |alpha|^0 = 1, also at alpha = 0
    # in place: the peak is one float and one complex array of the result's
    # shape (the heterodyne density asks for slices of at most 2^17 values)
    mag += -0.5 * np.abs(alpha) ** 2
    mag -= 0.5 * log_fact
    out = 1j * n * np.angle(alpha)
    np.exp(out, out=out)
    out *= np.exp(mag, out=mag)
    return out


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

    def h_xx_row(self) -> np.ndarray:
        """First row of the circulant part of ``h_XX``; at m = 2 the two couplings add up."""
        row = np.zeros(self.m)
        row[0] = 0.5
        if self.m > 1:
            row[1] -= self.kappa / 4.0
            row[-1] -= self.kappa / 4.0
        return row

    def h_xx(self) -> np.ndarray:
        h = _circulant(self.h_xx_row(), range(self.m))
        if self.disorder:
            rng = np.random.default_rng(self.disorder_seed)
            a = rng.standard_normal((self.m, self.m))
            q = 0.5 * (a + a.T)
            h = h + (q @ q) / (2.0 * self.m)
        return h


def _circulant(row: np.ndarray, modes) -> np.ndarray:
    """Entries ``row[(j - i) mod m]``, i, j in ``modes``, of the circulant with first row ``row``."""
    modes = np.asarray(modes)
    return row[(modes[None, :] - modes[:, None]) % row.size]


def _check_spectrum(lam: np.ndarray) -> None:
    if lam.min() < _EIG_FLOOR:
        raise ValueError(
            f"matrix not positive definite (min eigenvalue {lam.min():.3e}); "
            "kappa too close to a degenerate point"
        )


@dataclass(frozen=True)
class CirculantChainState:
    """Ground state of a chain without disorder, held as the spectrum of ``h_XX``.

    ``h_XX`` is circulant, so ``X = (2 h_XX)^{-1/2}``, ``X^-1`` and every
    block of ``(V + v I)/2`` for ``V = diag(X, X^-1)`` are circulant too, each
    diagonalised by one FFT (Audenaert, Eisert, Plenio & Werner, PRA 66,
    042327 (2002)).  ``lam`` holds the m eigenvalues ``lam_k``, the FFT of
    :meth:`ChainSpec.h_xx_row`; nothing held or built is m x m.
    """

    lam: np.ndarray

    @property
    def modes(self) -> int:
        return self.lam.size

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """First rows of ``X`` and ``X^-1``: inverse FFTs of ``(2 lam_k)^{-1/2}`` and ``^{1/2}``."""
        root = np.sqrt(2.0 * self.lam)
        return np.fft.ifft(1.0 / root).real, np.fft.ifft(root).real

    def marginal(self, modes: list[int]) -> GaussianStateSpec:
        """Reduced state on distinct modes in 0..m-1, from entries of :meth:`rows`."""
        _check_modes(modes, self.modes)
        x_row, p_row = self.rows()
        zero = np.zeros((len(modes), len(modes)))
        cov = np.block([[_circulant(x_row, modes), zero], [zero, _circulant(p_row, modes)]])
        return GaussianStateSpec(np.zeros(2 * len(modes)), cov)

    def phase_space_draws(self, vacuum: float, n: int, rng) -> Iterator[np.ndarray]:
        """``n`` rows ``[x | p]`` from ``N(0, (V + vacuum I) / 2)``: Wigner 0, heterodyne 1.

        A block ``circ(c)`` with eigenvalues ``c_k`` is drawn exactly as ``Re
        FFT(sqrt(c_k / m) (z1 + i z2))`` for standard normal ``z1``, ``z2``.
        Each ``"chain"`` slice of rows (:func:`value_slices`) draws its normals
        once, shaped ``(rows, 4, m)``: row r's Re x, Im x, Re p and Im p.
        Each half is scaled and transformed in place in one preallocated
        complex sub-chunk, so nothing holds more than a slice.  The normals
        are drawn in row order, so the rows do not depend on the slice size.
        """
        m = self.modes
        root = np.sqrt(2.0 * self.lam)
        scales = [np.sqrt((c + vacuum) / (2.0 * m)) for c in (1.0 / root, root)]
        cuts = value_slices(n, 4 * m, SLICE_BUDGETS["chain"])
        chunk = np.empty((cuts[0].stop if cuts else 0, m), dtype=complex)
        for sl in cuts:
            z = rng.standard_normal((sl.stop - sl.start, 4, m))  # Re x, Im x, Re p, Im p
            c, out = chunk[: len(z)], np.empty((len(z), 2 * m))
            for half, scale in enumerate(scales):
                c.real[:], c.imag[:] = z[:, 2 * half], z[:, 2 * half + 1]
                c *= scale
                np.fft.fft(c, out=c)
                out[:, half * m : (half + 1) * m] = c.real
            del z  # before the rows are handed on
            yield out
            del out  # freed before the next rows, once the caller lets them go


def chain_state(spec: ChainSpec):
    """The chain's ground state: :class:`CirculantChainState` unless ``disorder`` is set.

    A disordered ``h_XX`` is not circulant, so it takes :func:`chain_ground_state`.
    """
    if spec.disorder:
        return chain_ground_state(spec)
    lam = np.fft.fft(spec.h_xx_row()).real
    _check_spectrum(lam)
    return CirculantChainState(lam)


def chain_ground_state(spec: ChainSpec) -> GaussianStateSpec:
    """Gaussian ground state of the chain: mean 0, covariance diag(X, X^-1).

    The general ``X = h_XX^{-1/2} sqrt(sqrt(h_XX) h_PP sqrt(h_XX))
    h_XX^{-1/2}`` reduces to ``(2 h_XX)^{-1/2}`` at ``h_PP = I/2``, so ``X``
    and ``X^-1 = (2 h_XX)^{1/2}`` both come from one symmetric
    eigendecomposition of ``h_XX``.  This dense path serves disordered
    chains and is the reference for :class:`CirculantChainState`.
    """
    lam, vec = np.linalg.eigh(spec.h_xx())
    _check_spectrum(lam)
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
        return FockMatrix(1, truncation, FockKet(cat_fock_coefficients(state, truncation)).entries)
    if isinstance(state, GaussianStateSpec):
        return _gaussian_fock(state, truncation)
    raise ValueError(f"unsupported state kind: {type(state).__name__}")


def fock_moments(fock: FockMatrix | FockKet) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix implied by a single-mode Fock matrix.

    Uses the ladder-operator sums over the matrix's diagonals ``rho[n + k,
    n]``, ``k = 0, 1, 2``; a :class:`FockKet` ``c`` gives the same products
    ``c[k:] conj(c[:-k])``.  The covariance follows the anticommutator
    convention in which the vacuum has V = I.
    """
    if fock.modes != 1:
        raise ValueError("fock_moments supports single-mode matrices")
    if isinstance(fock, FockKet):
        c = fock.coeffs
        diag = [c[k:] * c[: c.size - k].conj() for k in range(3)]
    else:
        diag = [np.diag(fock.entries, k=-k) for k in range(3)]
    n = np.arange(fock.truncation + 1)
    tr = np.sum(diag[0]).real
    a_mean = np.sum(np.sqrt(n[1:]) * diag[1])
    aa = np.sum(np.sqrt(n[2:] * (n[2:] - 1)) * diag[2])
    adaga = np.sum(n * diag[0].real)
    tx = np.sqrt(2.0) * a_mean.real / tr
    tp = np.sqrt(2.0) * a_mean.imag / tr
    x2 = aa.real + adaga + 0.5 * tr
    p2 = -aa.real + adaga + 0.5 * tr
    xp = aa.imag
    v_xx = 2.0 * x2 / tr - 2.0 * tx * tx
    v_pp = 2.0 * p2 / tr - 2.0 * tp * tp
    v_xp = 2.0 * xp / tr - 2.0 * tx * tp
    return np.array([tx, tp]), np.array([[v_xx, v_xp], [v_xp, v_pp]])
