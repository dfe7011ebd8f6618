"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the library code paths it is
used to check: dense tensor-grid quadrature, explicit factorial sums, and
direct Fock-series evaluations.  The reference estimators (adaptive-quadrature
and quasi-Monte-Carlo shadow entries, the coherent-overlap cat density, the
Fock-series homodyne density, the matrix Bernstein tail and the power-sum
entropy surrogate) live here too: no command reaches them, and the library
does not need scipy.  So do the references that only tests read: the Halton
box integrator, the truncated displacement matrix, the squeezed-homodyne
kernel ``f_mu_homodyne`` and the entropy continuity bound.
"""

import base64
import json
import math
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import erf, gammaln, j0, j1, jv, logsumexp, roots_genlaguerre

from cvshadow.measurement import (
    SampleBatch,
    _hermitian,
    _homodyne_density,
    fock_husimi,
    stream_rng,
)
from cvshadow.phase_space import (
    alpha_of,
    char_fock_dyad,
    dyad_poly,
    fock_dyad_radial,
    hermite_stack,
    symplectic_product,
)
from cvshadow.shadows import HOMODYNE_SHADOW_NORMALIZATION, WindowSpec, shadow_batch_entries
from cvshadow.states import CatStateSpec, FockMatrix, GaussianStateSpec, multi_indices


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


def fock_pairing_matrix(char, truncation: int, half: float, nodes: int, window):
    """Fock-basis matrix of an operator from its characteristic function, on a tensor grid.

    Entry ``(n1, n2)`` is the Plancherel pairing ``int conj(chi_{|n1><n2|}(u))
    window(u) char(u) d^2u / (2 pi)``, i.e. ``<n1| T |n2>`` for the operator
    ``T`` with characteristic function ``window * char``, over a
    Gauss-Legendre tensor grid with ``nodes`` points per axis on ``[-half,
    half]^2``; ``window`` maps points ``(..., 2)`` to real weights.  The
    Cartesian reference for :func:`cvshadow.shadows.project_PM_tilde`'s polar
    rule.
    """
    grid, weights = gauss_legendre_grid_2d(half, nodes)
    windowed = window(grid) * char(grid)
    dim = truncation + 1
    mat = np.zeros((dim, dim), dtype=complex)
    for n1 in range(dim):
        for n2 in range(n1, dim):
            mat[n1, n2] = plancherel_pairing(char_fock_dyad(n1, n2, grid), windowed, weights)
            mat[n2, n1] = np.conj(mat[n1, n2])
    return mat


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


# ---------------------------------------------------------------------------
# references that no command reads: the Halton box integrator, the truncated
# displacement matrix, the squeezed-homodyne kernel f_mu, the entropy
# continuity bound and the incomplete-Gamma form of delta0
# ---------------------------------------------------------------------------


def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` prime numbers."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def radical_inverse(indices, base: int) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).copy()
    out = np.zeros(idx.shape, dtype=float)
    denom = np.ones(idx.shape, dtype=float)
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def halton_points(dimension: int, count: int) -> np.ndarray:
    """Halton points with indices ``1 .. count``, shape ``(count, dimension)``.

    Axis ``j`` is the radical inverse in the ``j``-th prime; index 0, the
    all-zeros point, is skipped.
    """
    idx = np.arange(1, count + 1)
    return np.stack([radical_inverse(idx, b) for b in first_primes(dimension)], axis=-1)


@dataclass(frozen=True)
class BoxDomain:
    """Centered box ``prod_j [-l_j, l_j]`` with its affine map from [0,1]^d."""

    half_widths: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        hw = tuple(float(v) for v in np.atleast_1d(np.asarray(self.half_widths, dtype=float)))
        if not hw or any(v <= 0 for v in hw):
            raise ValueError("half widths must be positive")
        object.__setattr__(self, "half_widths", hw)

    @property
    def dimension(self) -> int:
        return len(self.half_widths)

    @property
    def volume(self) -> float:
        return float(np.prod([2.0 * l for l in self.half_widths]))

    def map_unit(self, t: np.ndarray) -> np.ndarray:
        """Affine map from the unit cube onto the box."""
        hw = np.asarray(self.half_widths)
        return (2.0 * np.asarray(t, dtype=float) - 1.0) * hw


def qmc_integrate(f, box: BoxDomain, budget: int):
    """Integral of ``f`` over the box from ``budget`` Halton points.

    ``f`` must accept an ``(n, d)`` array of points and return ``n`` values
    (real or complex); it is called once, on all ``budget`` points.
    """
    if budget < 16:
        raise ValueError("QMC budget below 16 points is meaningless")
    pts = box.map_unit(halton_points(box.dimension, budget))
    vals = np.asarray(f(pts))
    if vals.shape != (budget,):
        raise ValueError("integrand must return one value per point")
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValueError("integrand returned non-finite values")
    return box.volume * vals.mean()


def as_phase_point(u, modes: int | None = None) -> np.ndarray:
    """Validate and return ``u`` as a float array of even length."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size % 2 != 0:
        raise ValueError(f"expected a flat even-length vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("phase-space point has non-finite entries")
    if modes is not None and u.size != 2 * modes:
        raise ValueError(f"expected {2 * modes} coordinates, got {u.size}")
    return u


def displacement_oracle(u, m_osc: int) -> np.ndarray:
    """Matrix of ``D(u)`` in the truncated Fock basis ``{|0>,...,|m_osc>}``.

    Built from the normally-ordered split ``exp(-|u|^2/4) exp(alpha a^dag)
    exp(-conj(alpha) a)`` as a product of two triangular series.  Entry
    ``(j, k)`` approximates ``<j| D(u) |k>``; entries with ``j + k`` well below
    ``m_osc`` are exact because the triangular sums terminate.  Accuracy of
    the *product* structure (unitarity, Weyl composition) degrades gracefully
    once ``|u|^2`` becomes comparable with ``m_osc``.
    """
    u = as_phase_point(u, modes=1)
    if m_osc < 0:
        raise ValueError("m_osc must be non-negative")
    alpha = complex(alpha_of(u))
    dim = m_osc + 1
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    # exp(alpha a^dag): lower triangular, (j, k) = alpha^(j-k) sqrt(j!/k!)/(j-k)!
    jj, kk = np.meshgrid(n, n, indexing="ij")
    diff = jj - kk
    lower = diff >= 0
    with np.errstate(invalid="ignore"):
        log_mag = 0.5 * (log_fact[jj] - log_fact[kk]) - log_fact[np.abs(diff)]
    e_create = np.where(lower, np.exp(log_mag) * alpha ** np.where(lower, diff, 0), 0)
    # exp(-conj(alpha) a): upper triangular, (j, k) = (-conj)^{k-j} sqrt(k!/j!)/(k-j)!
    upper = diff <= 0
    log_mag_u = 0.5 * (log_fact[kk] - log_fact[jj]) - log_fact[np.abs(diff)]
    e_annih = np.where(
        upper, np.exp(log_mag_u) * (-np.conj(alpha)) ** np.where(upper, -diff, 0), 0
    )
    return np.exp(-0.25 * np.dot(u, u)) * (e_create @ e_annih)


# numpy's I0 forms exp(x) and overflows near 713, so above 700 the scaled I0
# takes the asymptotic series, whose eighth term there is about 1e-22.
_I0_SERIES_FROM = 700.0


def _i0e(x):
    """Exponentially scaled Bessel function ``exp(-|x|) I0(x)``.

    ``exp(-|x|) numpy.i0(|x|)`` up to ``|x| = 700``, and beyond it the
    asymptotic series ``(2 pi x)^(-1/2) sum_k ((2k - 1)!!)^2 / (k! (8x)^k)``
    of DLMF 10.40.1 to eight terms.
    """
    x = np.abs(np.asarray(x, dtype=float))
    near = np.minimum(x, _I0_SERIES_FROM)
    far = np.maximum(x, _I0_SERIES_FROM)
    term = total = np.ones_like(far)
    for k in range(1, 9):
        term = term * ((2 * k - 1) ** 2 / (8.0 * k)) / far
        total = total + term
    return np.where(
        x <= _I0_SERIES_FROM, np.exp(-near) * np.i0(near), total / np.sqrt(2.0 * np.pi * far)
    )


def f_mu_homodyne(rho, s: float):
    """Angular average of the squeezed-Gaussian damping at squeezing ``s``.

    ``f(u) = exp(-|u|^2 cosh(2s)/2) I0(|u|^2 sinh(2s)/2)`` as a function of
    the radius ``rho = |u|``, evaluated with the scaled Bessel function so it
    stays finite for any argument.  For each ``s`` it is a probability-type
    kernel: ``int |f| d^2x = 2 pi`` and ``int f^2 d^2x <= pi``.
    """
    rho = np.asarray(rho, dtype=float)
    z = 0.5 * rho * rho
    out = np.exp(-z * np.exp(-2.0 * s)) * _i0e(z * np.sinh(2.0 * s))
    return out if np.ndim(out) else float(out)


def binary_entropy(x: float) -> float:
    """Natural-log binary entropy h(x) = -x ln x - (1-x) ln(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy needs x in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def entropy_continuity_bound(gamma: float, r_energy: float) -> float:
    """Energy-constrained continuity bound ``h(g) + rE h(g / (rE))``.

    Valid for ``gamma <= rE / (1 + rE)`` where ``2 gamma`` bounds the trace
    distance between the two states and ``rE`` their local energy.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma > r_energy / (1.0 + r_energy):
        raise ValueError("gamma outside the validity range of the bound")
    return binary_entropy(gamma) + r_energy * binary_entropy(gamma / r_energy)


def _upper_gamma_q(shape: int, x: float) -> float:
    """Regularized upper gamma ``Q(shape, x) = e^-x sum_{p<shape} x^p / p!``, integer shape >= 1.

    Summed in the linear domain as running products of ratios to the largest
    term ``p* = min(shape - 1, floor(x))``, then scaled by that term once.
    """
    top = min(shape - 1, math.floor(x))
    total = term = 1.0
    for p in range(top, 0, -1):
        term *= p / x
        total += term
    term = 1.0
    for p in range(top + 1, shape):
        term *= x / p
        total += term
    return total * math.exp((top * math.log(x) if top else 0.0) - x - math.lgamma(top + 1.0))


def delta0_gamma_form(eta: float, truncation: int, alpha: float, modes: int) -> float | None:
    """``bounds.delta0`` with its tail factor as ``Q(2M+1, eta^2/2)``.

    ``None`` where that Gamma tail is at most 5e-300: summed in the linear
    domain, it has no relative accuracy left there.  Infinite beyond ``e^700``,
    as ``delta0`` is.
    """
    tail = _upper_gamma_q(2 * truncation + 1, 0.5 * eta * eta)
    if tail <= 5e-300:
        return None
    log_val = (
        2.0 * alpha * math.log(modes * truncation + 1.0)
        + modes * math.log(truncation + 1.0)
        + modes * truncation * math.log(3.0)
        + 0.5 * modes * math.log(tail)
    )
    return math.exp(log_val) if log_val < 700 else math.inf


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
            val = qmc_integrate(f, box, budget)
            worst = max(worst, abs(val - exact))
    return worst


def b64_floats(values) -> str:
    """Standard padded base64 of ``values`` as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def b64_values(text: str) -> np.ndarray:
    """The float64 values of one records field: the inverse of ``b64_floats``."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def reference_jsonl(batch) -> bytes:
    """``records.jsonl`` bytes of ``batch``, one ``json.dumps`` per round."""
    lines = []
    for i in range(batch.n):
        payload = {
            "protocol": batch.protocol,
            "rows": b64_floats(batch.outcomes[i]),
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
        return fock_husimi(rank_factors(state), x)
    raise ValueError(f"unsupported state kind: {type(state).__name__}")


def rank_factors(fock: FockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, u)`` with ``rho = sum_k lam_k u_k u_k^H``: every eigenpair of a Hermitian matrix.

    The form both outcome densities read, for any single-mode Hermitian
    matrix, a state or not; the samplers' own factors also drop the
    negligible pairs.
    """
    if fock.modes != 1:
        raise ValueError("the outcome densities are single mode")
    return np.linalg.eigh(fock.entries)


def diagonal_moments(fock: FockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a single-mode Fock matrix, from its diagonals.

    The ladder-operator sums over ``rho[n + k, n]``, ``k = 0, 1, 2``, read
    off the matrix; the covariance follows the anticommutator convention in
    which the vacuum has V = I.
    """
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


def bessel_orders(top: int, z: np.ndarray) -> list[np.ndarray]:
    """``J_0(z), ..., J_top(z)`` for ``z >= 0``.

    Orders 0 and 1 come from ``j0``/``j1``; higher orders from the forward
    recurrence ``J_{d+1} = (2d/z) J_d - J_{d-1}``, which is stable where
    ``z >= d + 1`` (DLMF 10.6); ``jv`` fills only the entries below that.
    """
    out = [j0(z), j1(z)]
    two_over_z = np.divide(2.0, z, out=np.zeros_like(z), where=z > 0)
    for d in range(1, top):
        nxt = out[d] * two_over_z
        nxt *= d
        nxt -= out[d - 1]
        small = z < d + 1
        nxt[small] = jv(d + 1, z[small])
        out.append(nxt)
    return out[: top + 1]


def heterodyne_transform(truncation: int, w):
    """Heterodyne profiles at any radii, straight from the windowed Bessel transform.

    ``profile_{d,k}(s) = coeff int rho dyad_poly(k, d, rho) xi(rho) J_d(rho s)
    d rho`` from one Gauss-Legendre rule on [0, eta] and one on [eta, R], 80/3
    nodes per unit of rho and at least 60 on either side, with Bessel orders
    from :func:`bessel_orders`.  The s-derivative uses ``J_0' = -J_1`` and
    ``J_d' = (J_{d-1} - J_{d+1}) / 2``.  ``transform(s)`` returns (values,
    slopes), each of shape (rows, len(s)), rows the entries (k + d, k),
    d-major.
    """
    rho, wts = [], []
    for lo, hi in ((0.0, w.eta), (w.eta, w.radius)):
        n = max(60, math.ceil(80.0 / 3.0 * (hi - lo)))
        x, wx = np.polynomial.legendre.leggauss(n)
        rho.append(lo + 0.5 * (hi - lo) * (x + 1.0))
        wts.append(0.5 * (hi - lo) * wx)
    rho, wts = np.concatenate(rho), np.concatenate(wts)
    wr = wts * rho * w.xi_radial(rho)
    rows = [[] for _ in range(truncation + 1)]
    for d in range(truncation + 1):
        for k in range(truncation + 1 - d):
            coeff, _, _ = fock_dyad_radial(k, k + d)
            rows[d].append(coeff * wr * dyad_poly(k, d, rho))
    rows = [np.array(rows_d) for rows_d in rows]

    def transform(s):
        bessel = bessel_orders(truncation + 1, np.outer(rho, s))
        vals, slopes = [], []
        for d, rows_d in enumerate(rows):
            vals.append(rows_d @ bessel[d])
            moment = rows_d * rho
            if d == 0:
                slopes.append(-(moment @ bessel[1]))
            else:
                slopes.append(0.5 * (moment @ bessel[d - 1] - moment @ bessel[d + 1]))
        return np.concatenate(vals), np.concatenate(slopes)

    return transform


def sigma_block_quad(truncation: int, kernel, upper: float, joins=()) -> np.ndarray:
    """Sigma block ``|c| int_0^upper rho kernel(rho) |dyad_poly(lo, d, rho)| d rho`` by ``quad``.

    Adaptive quadrature to relative 1e-11 of each upper-triangle entry, split
    at the kernel's ``joins`` and at ``sqrt(2 x)`` for the zeros ``x`` of
    ``L_lo^(d)`` from ``roots_genlaguerre``, and mirrored; ``kernel`` is
    called with Python floats.
    """
    dim = truncation + 1
    block = np.zeros((dim, dim))
    for lo in range(dim):
        for hi in range(lo, dim):
            coeff, d, _ = fock_dyad_radial(lo, hi)

            def integrand(rho, d=d, lo=lo):
                return rho * abs(dyad_poly(lo, d, rho)) * kernel(rho)

            zeros = np.sqrt(2.0 * roots_genlaguerre(lo, d)[0]) if lo else []
            kinks = [float(z) for z in zeros if z < upper] + list(joins) or None
            val, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-11, limit=400, points=kinks)
            block[lo, hi] = block[hi, lo] = abs(coeff) * val
    return block


def circulant_draws_whole_chunk(state, vacuum: float, n: int, rng) -> np.ndarray:
    """``CirculantChainState.phase_space_draws`` drawn whole, in one complex chunk.

    Every row's normals come from one ``rng.standard_normal((n, 4, m))``
    call, and each half is scaled and transformed in one (n, m) complex array.
    """
    m = state.modes
    root = np.sqrt(2.0 * state.lam)
    scales = [np.sqrt((c + vacuum) / (2.0 * m)) for c in (1.0 / root, root)]
    z, c, out = rng.standard_normal((n, 4, m)), np.empty((n, m), dtype=complex), np.empty((n, 2 * m))
    for half, scale in enumerate(scales):
        c.real[:], c.imag[:] = z[:, 2 * half], z[:, 2 * half + 1]
        c *= scale
        np.fft.fft(c, out=c)
        out[:, half * m : (half + 1) * m] = c.real
    return out


def whole_probe(state, protocol: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The rejection probe and its envelope bound as the samplers once formed them, whole.

    One meshgrid of the probe grid, the proposals on all of it, and the
    target on every point in one call.  Returns the points, their proposal
    densities and the bound.
    """
    import cvshadow.measurement as meas

    factors = meas._sampling_factors(state)
    if protocol == "homodyne":
        axes = np.linspace(-np.pi, np.pi, 129), np.linspace(-6.0, 6.0, 513)
        gt, gz = np.meshgrid(*axes, indexing="ij")
        rows = np.stack([gt.ravel(), gz.ravel()], -1)
        probe, density = meas._homodyne_proposals(factors)(rows)
        target = meas._homodyne_density(factors, probe[:, 0], probe[:, 1])
    else:
        gx, gy = np.meshgrid(*[np.linspace(-6.0, 6.0, 201)] * 2, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        probe, density = meas._heterodyne_proposals(factors)(grid)
        target = meas.fock_husimi(factors, probe)
    bound = meas._ENVELOPE_MARGIN * float(np.max(target / np.maximum(density, 1e-300)))
    return probe, density, bound


def whole_gaussian_batch(state, protocol: str, n: int, seed_path: str) -> SampleBatch:
    """A Gaussian batch drawn whole, as the samplers once drew it.

    One generator: homodyne takes all ``n m`` angles first, then every
    phase-space row (its blocks drawn back to back, as one call draws them).
    """
    rng, m = stream_rng(seed_path), state.modes
    if protocol == "homodyne":
        thetas = rng.uniform(-np.pi, np.pi, size=(n, m))
        x = np.concatenate(list(state.phase_space_draws(0.0, n, rng)))
        qs = np.cos(thetas) * x[:, :m] - np.sin(thetas) * x[:, m:]
        return SampleBatch(protocol, np.stack([thetas, qs], axis=-1), seed_path=seed_path)
    x = np.concatenate(list(state.phase_space_draws(1.0, n, rng)))
    return SampleBatch(protocol, x.reshape(n, 2, m).transpose(0, 2, 1), seed_path=seed_path)


def batch_rows(batch: SampleBatch, rows: slice) -> SampleBatch:
    """The rounds in the slice ``rows``, as a batch of the same stream."""
    return replace(batch, outcomes=batch.outcomes[rows])


def stacked_entries(batch: SampleBatch, subset, truncation: int, w=None) -> np.ndarray:
    """Every round's shadow matrix in one (N, dim, dim) array, from the chunks."""
    return np.concatenate(list(shadow_batch_entries(batch, subset, truncation, w)))


def traced_peak(fn, *args) -> float:
    """Peak traced allocation of ``fn(*args)`` in MB, its result dropped."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# reference estimators and densities
# ---------------------------------------------------------------------------


def homodyne_shadow_entry(
    n1: int, n2: int, theta: float, q: float, tol: float = 1e-8
) -> complex:
    """One matrix entry of the single-mode homodyne shadow at round (theta, q).

    Adaptive quadrature of the folded radial integral to relative tolerance
    ``tol``.  The integrand decays like ``t^(1+|n1-n2|) exp(-t^2/4)`` times
    an oscillation in ``t q``.
    """
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


def _as_multi_index(n, r: int) -> tuple[int, ...]:
    if np.isscalar(n):
        n = (int(n),)
    n = tuple(int(v) for v in np.atleast_1d(n))
    if len(n) != r:
        raise ValueError(f"multi-index {n} does not match {r} modes")
    return n


def window_at(w: WindowSpec, z):
    """Window value ``xi(|z|)`` at 2D point(s) ``z`` of shape (..., 2)."""
    z = np.asarray(z, dtype=float)
    return w.xi_radial(np.sqrt(np.sum(z * z, axis=-1)))


def windowed_dyad_char(n1, n2, u, w: WindowSpec):
    """Windowed Fock-dyad characteristic function ``chi_{|n1><n2|} prod xi``.

    ``n1``/``n2`` are multi-indices (scalars for one mode); ``u`` has shape
    ``(..., 2r)`` in xxpp ordering, so mode ``j`` is ``(u_j, u_{r+j})``.
    """
    u = np.asarray(u, dtype=float)
    r = u.shape[-1] // 2
    n1 = _as_multi_index(n1, r)
    n2 = _as_multi_index(n2, r)
    out = np.ones(u.shape[:-1], dtype=complex)
    for j in range(r):
        uj = np.stack([u[..., j], u[..., r + j]], axis=-1)
        out = out * char_fock_dyad(n1[j], n2[j], uj) * window_at(w, uj)
    return out if np.ndim(out) else complex(out)


def _het_entry_single(n1: int, n2: int, x: np.ndarray, w: WindowSpec, tol: float) -> complex:
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
    value = qmc_integrate(integrand, box, budget)
    return complex(value)


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
    :func:`homodyne_pdf`.
    """
    w_plus, w_minus = spec.coherent_weights()
    b = spec.center
    amp = w_plus * coherent_overlap(x, b) + w_minus * coherent_overlap(x, -b)
    out = np.abs(amp) ** 2
    return out if np.ndim(out) else float(out)


def homodyne_pdf(rho: FockMatrix, theta: float, q):
    """Rotated-quadrature density ``p(q | theta)`` of a truncated state.

    ``p(q|theta) = sum_{n1,n2} rho[n1,n2] exp(i (n1-n2) theta) psi_n1(q)
    psi_n2(q)``; the sign of the Fock-space rotation phase matches the
    sampler's convention (``U_theta = exp(i theta N)`` for the rotation
    ``R_theta``) and is pinned by the shadow unbiasedness tests.
    """
    if not _hermitian(rho.entries):
        raise ValueError("homodyne_pdf requires a Hermitian state matrix")
    scalar = np.ndim(q) == 0
    vals = _homodyne_density(rank_factors(rho), theta, np.atleast_1d(np.asarray(q, dtype=float)))
    return float(vals[0]) if scalar else vals


def bernstein_tail(
    n_samples: float, epsilon: float, sigma: float, r_bound: float, dim: float
) -> float:
    """Matrix Bernstein tail ``2 n e^(-N eps^2 / (2 Sigma^2 + 2 R eps / 3))``.

    Returned raw; values above 1 are vacuous but still meaningful as bounds.
    """
    if min(n_samples, epsilon, sigma, r_bound, dim) <= 0:
        raise ValueError("all bernstein_tail arguments must be positive")
    return 2.0 * dim * math.exp(
        -n_samples * epsilon**2 / (2.0 * sigma**2 + 2.0 * r_bound * epsilon / 3.0)
    )


def entropy_coefficients(d_p: int) -> tuple[np.ndarray, np.ndarray]:
    """Swap-expansion coefficients ``C_j`` in sign/log-magnitude form.

    Returns ``(signs, log_magnitudes)`` with ``C_j = signs[j] *
    exp(log_magnitudes[j])``; magnitudes reach ``(d_p - 2)!`` so only the log
    representation is generally safe.
    """
    if d_p < 2:
        raise ValueError("d_p must be at least 2")
    signs = np.array([(-1.0) ** j for j in range(d_p + 1)])
    log_mags = np.empty(d_p + 1)
    for j in range(d_p + 1):
        ks = np.arange(max(2, j), d_p + 1)
        log_terms = gammaln(ks - 1.0) - gammaln(ks - j + 1.0)
        log_mags[j] = float(logsumexp(log_terms))
    return signs, log_mags


def entropy_poly_from_power_sums(sigma, d_p: int) -> float:
    """``H^(d_p)`` via the power-sum expansion with the ``C_j`` coefficients.

    ``H = D - tr(sigma) - sum_j C_j tr(sigma^j) / j!`` with ``tr(sigma^0) =
    D``.  Exact-coefficient path, only sane for ``d_p`` small enough that the
    alternating sum does not cancel catastrophically (d_p <= ~18); used to
    cross-check :func:`cvshadow.entropy.entropy_poly`.
    """
    mat = sigma.entries if isinstance(sigma, FockMatrix) else np.asarray(sigma)
    dim = mat.shape[0]
    signs, log_mags = entropy_coefficients(d_p)
    coeffs = signs * np.exp(log_mags)
    power_sums = np.empty(d_p + 1, dtype=complex)
    power_sums[0] = dim
    power = np.eye(dim, dtype=complex)
    for j in range(1, d_p + 1):
        power = power @ mat
        power_sums[j] = np.trace(power)
    facts = np.exp(gammaln(np.arange(d_p + 1) + 1.0))
    series = float(np.real(np.sum(coeffs * power_sums / facts)))
    return dim - float(np.real(power_sums[1])) - series
