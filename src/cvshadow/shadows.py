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
cosine transform), which the batch builders exploit; the per-entry operations
use adaptive quadrature and serve as the reference path.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import i0e, jv

from .measurement import HETERODYNE, HOMODYNE, SampleBatch
from .phase_space import (
    fock_dyad_radial,
    fock_pairing_matrix,
    laguerre,
    mode_pair,
    symplectic_product,
)
from .states import FockMatrix, multi_indices

# Normalization of the homodyne per-mode entry relative to `int dy |y| ...`;
# fixed by the unbiasedness oracle and used verbatim in the concentration
# tests so that bound and estimator share one constant.
HOMODYNE_SHADOW_NORMALIZATION = 0.5


@dataclass(frozen=True)
class WindowSpec:
    """Radial cutoff ``xi_{eta,R}``: 1 inside ``eta``, 0 outside ``R``.

    The transition is a quintic smoothstep in the radius (C^2); the truncation
    bounds only use ``0 <= xi <= 1`` and the support property.
    """

    eta: float
    radius: float
    profile_order: int = 5

    def __post_init__(self):
        if not 0 < self.eta < self.radius:
            raise ValueError(f"need 0 < eta < R, got eta={self.eta}, R={self.radius}")
        if self.profile_order != 5:
            raise ValueError("only the quintic smoothstep profile is implemented")

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


@dataclass(frozen=True)
class QuadratureRule:
    """How to evaluate shadow-entry integrals."""

    kind: str = "adaptive-1d"  # adaptive-1d | tensor-grid | qmc
    budget: int = 2**14
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("adaptive-1d", "tensor-grid", "qmc"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")


# ---------------------------------------------------------------------------
# noise multiplier f_{mu,T} and pointwise shadow characteristic functions
# ---------------------------------------------------------------------------


def f_mu_homodyne(rho, s: float):
    """Angular average of the squeezed-Gaussian damping at squeezing ``s``.

    ``f(u) = exp(-|u|^2 cosh(2s)/2) I0(|u|^2 sinh(2s)/2)`` as a function of
    the radius ``rho = |u|``, evaluated with the scaled Bessel function so it
    stays finite for any argument.  For each ``s`` it is a probability-type
    kernel: ``int |f| d^2x = 2 pi`` and ``int f^2 d^2x <= pi``.
    """
    rho = np.asarray(rho, dtype=float)
    z = 0.5 * rho * rho
    out = np.exp(-z * np.exp(-2.0 * s)) * i0e(z * np.sinh(2.0 * s))
    return out if np.ndim(out) else float(out)


def shadow_char_eval(protocol: str, thetas, outcome, u, s: float | None = None):
    """Improper characteristic function of one round's shadow at point u.

    A round is given by its arrays: ``outcome`` of shape (m, 2) for
    heterodyne, with ``thetas`` unused; ``thetas`` and ``outcome`` of shape
    (m,) for homodyne.  Heterodyne rounds have the closed form
    ``exp(|u|^2/4 - i u^T Omega x)``.  Homodyne rounds require a finite
    squeezing ``s``; the idealized s -> inf homodyne shadow is a delta line
    and cannot be evaluated pointwise (use ``homodyne_shadow_entry`` instead).
    """
    u = np.asarray(u, dtype=float)
    outcome = np.asarray(outcome, dtype=float)
    if protocol == HETERODYNE:
        if outcome.ndim != 2 or outcome.shape[1] != 2:
            raise ValueError("heterodyne outcomes must have shape (modes, 2)")
    elif protocol == HOMODYNE:
        thetas = np.asarray(thetas, dtype=float)
        if outcome.ndim != 1 or thetas.shape != outcome.shape:
            raise ValueError("homodyne rounds need one angle per outcome")
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    m = outcome.shape[0]
    if u.shape[-1] != 2 * m:
        raise ValueError(f"u must have {2 * m} coordinates")
    if protocol == HETERODYNE:
        x_flat = np.concatenate([outcome[:, 0], outcome[:, 1]])
        out = np.exp(
            0.25 * np.sum(u * u, axis=-1) - 1j * symplectic_product(u, x_flat)
        )
        return out if np.ndim(out) else complex(out)
    if s is None or not np.isfinite(s):
        raise ValueError(
            "pointwise evaluation of the ideal homodyne shadow is "
            "distributional; pass a finite squeezing s or use "
            "homodyne_shadow_entry"
        )
    out = np.ones(u.shape[:-1], dtype=complex)
    for j in range(m):
        uj = mode_pair(u, j)
        theta = float(thetas[j])
        c, sn = np.cos(theta), np.sin(theta)
        rot_x = c * uj[..., 0] - sn * uj[..., 1]
        rot_p = sn * uj[..., 0] + c * uj[..., 1]
        squeezed = np.exp(-2.0 * s) * rot_x**2 + np.exp(2.0 * s) * rot_p**2
        rho_j = np.sqrt(np.sum(uj * uj, axis=-1))
        # counter-rotated outcome embedding: x_emb = R_{-theta} (q, 0)
        x_emb = outcome[j] * np.array([c, -sn])
        sym = uj[..., 0] * x_emb[1] - uj[..., 1] * x_emb[0]  # u^T Omega x_emb
        out = out * np.exp(-0.25 * squeezed - 1j * sym) / f_mu_homodyne(rho_j, s)
    return out if np.ndim(out) else complex(out)


# ---------------------------------------------------------------------------
# homodyne shadow entries
# ---------------------------------------------------------------------------


def homodyne_shadow_entry(
    n1: int, n2: int, theta: float, q: float, rule: QuadratureRule | None = None
) -> complex:
    """One matrix entry of the single-mode homodyne shadow at round (theta, q).

    Adaptive quadrature of the folded radial integral; relative tolerance from
    ``rule`` (default 1e-8).  The integrand decays like
    ``t^(1+|n1-n2|) exp(-t^2/4)`` times an oscillation in ``t q``.
    """
    rule = rule or QuadratureRule()
    if n1 > n2:
        return complex(np.conj(homodyne_shadow_entry(n2, n1, theta, q, rule)))
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
        epsrel=rule.tolerance,
        limit=400,
    )
    beta = 0.5 * np.pi - theta
    unit = 1j if d % 2 else 1.0
    return complex(HOMODYNE_SHADOW_NORMALIZATION * 2.0 * coeff * unit * np.exp(-1j * d * beta) * val)


@lru_cache(maxsize=8)
def _homodyne_node_table(truncation: int, nodes: int = 600):
    """Fixed Gauss-Legendre data for the batch homodyne entry evaluator.

    Returns (t, W) where W[d][k] are quadrature weights folded with the
    radial profile of the dyad (k, k + d); entries then only need cos/sin
    transforms against the shared nodes.
    """
    upper = 16.0 + 2.0 * np.sqrt(truncation + 1.0)
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * upper * (x + 1.0)
    wt = 0.5 * upper * w
    tables = {}
    for d in range(truncation + 1):
        for k in range(truncation + 1 - d):
            coeff, _, radial = fock_dyad_radial(k, k + d)
            tables[(d, k)] = coeff * wt * t * radial(t)
    return t, tables


def homodyne_entries_batch(
    thetas: np.ndarray, qs: np.ndarray, truncation: int, chunk: int = 20000
) -> np.ndarray:
    """All shadow entries for a batch of single-mode homodyne rounds.

    Returns a complex array of shape ``(N, M+1, M+1)``.  Agrees with
    ``homodyne_shadow_entry`` to quadrature accuracy (~1e-10) but shares the
    cosine/sine transforms across entries and rounds.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    qs = np.asarray(qs, dtype=float).reshape(-1)
    t, tables = _homodyne_node_table(truncation)
    n = thetas.size
    dim = truncation + 1
    out = np.empty((n, dim, dim), dtype=complex)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        cos_t = np.cos(np.outer(qs[sl], t))
        sin_t = np.sin(np.outer(qs[sl], t))
        beta = 0.5 * np.pi - thetas[sl]
        for d in range(dim):
            phase = np.exp(-1j * d * beta) * (1j if d % 2 else 1.0)
            trans = cos_t if d % 2 == 0 else sin_t
            for k in range(dim - d):
                vals = 2.0 * HOMODYNE_SHADOW_NORMALIZATION * phase * (
                    trans @ tables[(d, k)]
                )
                out[sl, k, k + d] = vals
                if d:
                    out[sl, k + d, k] = np.conj(vals)
    return out


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


def _het_poly(n1: int, n2: int):
    """(coeff, d, poly) for the heterodyne radial integrand of entry (n1, n2).

    Valid for d = n1 - n2 >= 0; poly(rho) is the dyad radial profile with the
    Gaussian exactly cancelled by exp(+rho^2/4).
    """
    d = n1 - n2
    if d < 0:
        raise ValueError("use conjugate symmetry for n1 < n2")
    coeff, _, _ = fock_dyad_radial(n2, n1)  # sqrt(n2!/n1!)

    def poly(rho):
        rho = np.asarray(rho, dtype=float)
        return (rho / np.sqrt(2.0)) ** d * laguerre(n2, d, 0.5 * rho * rho)

    return coeff, d, poly


def _het_entry_single(
    n1: int, n2: int, x: np.ndarray, w: WindowSpec, rule: QuadratureRule
) -> complex:
    if n1 < n2:
        return complex(np.conj(_het_entry_single(n2, n1, x, w, rule)))
    coeff, d, poly = _het_poly(n1, n2)
    s = float(np.hypot(x[0], x[1]))
    psi = math.atan2(x[0], x[1])

    def integrand(rho):
        return rho * poly(rho) * w.xi_radial(rho) * jv(d, rho * s)

    val, _ = quad(
        integrand, 0.0, w.radius, epsabs=1e-13, epsrel=rule.tolerance, limit=400
    )
    return complex(coeff * (1j**d) * np.exp(-1j * d * psi) * val)


def heterodyne_shadow_entry(n1, n2, x_a, w: WindowSpec, rule: QuadratureRule | None = None):
    """Entry ``(n1, n2)`` of the heterodyne shadow for outcomes ``x_a``.

    The 2r-dimensional windowed integral factorizes over modes (dyad, window
    and shadow kernel are all per-mode products), so it is evaluated as a
    product of per-mode disk integrals; each disk integral is reduced to an
    adaptive radial quadrature (the angular part is an exact Bessel
    transform).  With ``rule.kind == "qmc"`` the full-dimensional integral is
    instead estimated with the Halton integrator  (testing path; also the
    route for non-tensorizing experiments above r = 3).
    """
    rule = rule or QuadratureRule(tolerance=1e-7)
    x_a = np.asarray(x_a, dtype=float).reshape(-1, 2)
    r = x_a.shape[0]
    n1 = _as_multi_index(n1, r)
    n2 = _as_multi_index(n2, r)
    if rule.kind == "qmc":
        return _het_entry_qmc(n1, n2, x_a, w, rule)
    out = complex(1.0)
    for j in range(r):
        out *= _het_entry_single(n1[j], n2[j], x_a[j], w, rule)
    return out


def _het_entry_qmc(n1, n2, x_a, w: WindowSpec, rule: QuadratureRule) -> complex:
    from .qmc import BoxDomain, qmc_integrate

    r = x_a.shape[0]
    x_flat = np.concatenate([x_a[:, 0], x_a[:, 1]])

    def integrand(pts):
        # pts arrive as (..., 2r) in xxpp ordering
        chi = windowed_dyad_char(n2, n1, pts, w)
        grow = np.exp(0.25 * np.sum(pts * pts, axis=-1))
        phase = np.exp(1j * symplectic_product(pts, x_flat))
        return chi * grow * phase / (2.0 * np.pi) ** r

    box = BoxDomain([w.radius] * (2 * r))
    value, _ = qmc_integrate(integrand, box, rule.budget)
    return complex(value)


@lru_cache(maxsize=16)
def _heterodyne_spline_table(
    truncation: int, eta: float, radius: float, s_max: float, nodes: int = 400
):
    """Cubic splines of the radial Bessel integrals, per (d, k), over |x|."""
    w = WindowSpec(eta, radius)
    x, wts = np.polynomial.legendre.leggauss(nodes)
    rho = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * wts
    s_grid = np.linspace(0.0, s_max, 4097)
    xi_vals = w.xi_radial(rho)
    splines = {}
    for d in range(truncation + 1):
        bessel = jv(d, np.outer(rho, s_grid))
        for k in range(truncation + 1 - d):
            coeff, _, poly = _het_poly(k + d, k)
            weights = wr * rho * poly(rho) * xi_vals
            splines[(d, k)] = (coeff, CubicSpline(s_grid, weights @ bessel))
    return splines


def heterodyne_entries_batch(
    outcomes: np.ndarray, truncation: int, w: WindowSpec, s_cap: float | None = None
) -> np.ndarray:
    """All shadow entries for a batch of single-mode heterodyne rounds.

    ``outcomes`` has shape ``(N, 2)``; returns ``(N, M+1, M+1)`` complex.
    Radial integrals are tabulated once per (window, |x| range) and
    interpolated with cubic splines (absolute error ~1e-9).  ``s_cap`` pins
    the tabulation range; callers that split a batch into chunks must pass
    the whole-batch cap so every chunk shares one table.
    """
    outcomes = np.asarray(outcomes, dtype=float).reshape(-1, 2)
    s = np.hypot(outcomes[:, 0], outcomes[:, 1])
    if s_cap is None:
        s_cap = float(np.ceil(s.max() + 1.0)) if s.size else 1.0
    psi = np.arctan2(outcomes[:, 0], outcomes[:, 1])
    splines = _heterodyne_spline_table(truncation, w.eta, w.radius, s_cap)
    dim = truncation + 1
    out = np.empty((outcomes.shape[0], dim, dim), dtype=complex)
    for d in range(dim):
        phase = (1j**d) * np.exp(-1j * d * psi)
        for k in range(dim - d):
            coeff, spline = splines[(d, k)]
            vals = coeff * phase * spline(s)
            out[:, k + d, k] = vals
            if d:
                out[:, k, k + d] = np.conj(vals)
    return out


# ---------------------------------------------------------------------------
# batch entries and averaging
# ---------------------------------------------------------------------------


def _checked_subset(batch: SampleBatch, subset) -> tuple[int, ...]:
    subset = tuple(int(j) for j in np.atleast_1d(subset))
    if not subset or any(j < 0 or j >= batch.modes for j in subset):
        raise ValueError(
            f"subset {subset} outside measured modes 0..{batch.modes - 1}"
        )
    return subset


def batch_radius_cap(batch: SampleBatch, subset) -> float:
    """Tabulation range for heterodyne outcomes of a batch on a mode subset.

    Chunked evaluations must share this whole-batch value to stay
    bit-identical with the serial path.
    """
    outs = batch.outcomes[:, _checked_subset(batch, subset), :]
    s_all = np.hypot(outs[..., 0], outs[..., 1])
    return float(np.ceil(s_all.max() + 1.0)) if s_all.size else 1.0


def shadow_batch_entries(
    batch: SampleBatch,
    subset,
    truncation: int,
    w: WindowSpec | None = None,
    s_cap: float | None = None,
) -> np.ndarray:
    """Stacked Hermitian shadow matrices for every round of a batch.

    Returns shape ``(N, dim, dim)`` with ``dim = (M+1)^len(subset)``; rows
    follow the batch order, and per-mode matrices are tensored in the order
    of ``subset``.  Symmetrizing to the Hermitian part is a linear variance
    reduction (the expectation is Hermitian) and cannot bias.  A subset
    naming a mode the batch did not measure raises ``ValueError``.
    """
    subset = _checked_subset(batch, subset)
    n = batch.n
    per_mode = []
    if batch.protocol == HOMODYNE:
        for j in subset:
            per_mode.append(
                homodyne_entries_batch(batch.thetas[:, j], batch.outcomes[:, j], truncation)
            )
    else:
        w = w or default_window(truncation)
        if s_cap is None:
            s_cap = batch_radius_cap(batch, subset)
        for j in subset:
            per_mode.append(
                heterodyne_entries_batch(batch.outcomes[:, j], truncation, w, s_cap=s_cap)
            )
    mats = per_mode[0]
    for other in per_mode[1:]:
        mats = np.einsum("nij,nkl->nikjl", mats, other).reshape(
            n, mats.shape[1] * other.shape[1], -1
        )
    return 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))


def _pairwise_sum(arr: np.ndarray) -> np.ndarray:
    """Deterministic pairwise reduction along axis 0."""
    a = arr
    while a.shape[0] > 1:
        tail = a[-1:] if a.shape[0] % 2 else None
        a = a[0 : a.shape[0] - (a.shape[0] % 2) : 2] + a[1 :: 2]
        if tail is not None:
            a = np.concatenate([a, tail], axis=0)
    return a[0]


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


def average_entries(
    stacked: np.ndarray, subset, truncation: int, protocol: str
) -> ShadowAverage:
    """Mean and standard errors of stacked shadow matrices (axis 0 = sample).

    Rows are summed pairwise in the order given, so the same rows in the
    same order give the same bits; a permuted input may differ in the last
    digits.
    """
    n = stacked.shape[0]
    if n == 0:
        raise ValueError("cannot average an empty list of shadows")
    mean = _pairwise_sum(stacked) / n
    if n > 1:
        dev = stacked - mean
        var = _pairwise_sum(dev.real**2 + dev.imag**2) / (n - 1)
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


def project_PM_tilde(
    state,
    truncation: int,
    w: WindowSpec | None = None,
    rule: QuadratureRule | None = None,
) -> FockMatrix:
    """Window-smoothed projection ``P~_M(rho)`` of an exact state.

    Entries are the windowed Plancherel pairings ``Tr[Z~_{n2 n1} rho] =
    int conj(chi_{|n1><n2|} xi) chi_rho d^2u/(2 pi)`` per mode pair,
    evaluated on a Gauss-Legendre tensor grid covering the window support
    (the integrand vanishes outside |u| = R).  Single-mode states only;
    multimode product states follow by tensoring.
    """
    w = w or default_window(truncation)
    rule = rule or QuadratureRule(kind="tensor-grid", budget=240)
    if getattr(state, "modes", 1) != 1:
        raise ValueError("project_PM_tilde supports single-mode states")
    nodes = max(int(rule.budget), 64)
    mat = fock_pairing_matrix(state.char, truncation, w.radius, nodes, window=w.xi)
    return FockMatrix(1, truncation, mat)
