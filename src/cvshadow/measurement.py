"""Synthetic measurement outcomes: randomized homodyne and heterodyne sampling.

Protocol conventions (shared with :mod:`cvshadow.shadows`):

* Homodyne round: per mode ``j`` an angle ``theta_j ~ Uniform[-pi, pi)`` is
  drawn, the rotation ``R_theta`` is applied to the state (covariance
  ``V -> S V S^T``), and the position quadrature is measured, yielding one
  real outcome ``q_j``.  The measured observable on the original state is
  ``cos(theta) X - sin(theta) P``.
* Heterodyne round: the outcome is a full phase-space point with density
  ``<x|rho|x> / (2 pi)^m``; for a Gaussian state this is normal with mean
  ``t`` and covariance ``(V + I)/2``.

Samplers take an explicit ``numpy.random.Generator``; batches derive their
generator deterministically from a ``seed_path`` string, so identical paths
reproduce bit-identical batches.  There is no global RNG.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .phase_space import alpha_of, hermite_stack
from .states import (
    CatStateSpec,
    FockMatrix,
    GaussianStateSpec,
    cat_position_pdf,
    fock_matrix_of,
    fock_moments,
)

log = logging.getLogger(__name__)

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"

_ENVELOPE_INFLATION = 2.5
_CDF_GRID_POINTS = 4096


@dataclass
class SampleBatch:
    """N rounds of one protocol, drawn from one RNG stream, stored as arrays.

    ``outcomes`` has shape (N, m) for homodyne and (N, m, 2) for heterodyne;
    ``thetas`` has shape (N, m) for homodyne and is ``None`` for heterodyne.
    ``seed_path`` names the stream every round was drawn from.
    """

    protocol: str
    outcomes: np.ndarray
    thetas: np.ndarray | None = None
    seed_path: str = ""
    state_descriptor: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.protocol not in (HOMODYNE, HETERODYNE):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        self.outcomes = np.asarray(self.outcomes, dtype=float)
        if self.protocol == HOMODYNE:
            self.thetas = np.asarray(self.thetas, dtype=float)
            if self.outcomes.ndim != 2 or self.thetas.shape != self.outcomes.shape:
                raise ValueError(
                    "homodyne batches need outcomes and angles of one shape (N, modes)"
                )
        else:
            self.thetas = None
            if self.outcomes.ndim != 3 or self.outcomes.shape[2] != 2:
                raise ValueError("heterodyne outcomes must have shape (N, modes, 2)")
        if not np.all(np.isfinite(self.outcomes)):
            raise ValueError("outcomes must be finite")

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def modes(self) -> int:
        return self.outcomes.shape[1]

    def __getitem__(self, rows: slice) -> "SampleBatch":
        """The rounds in the slice ``rows``, as a batch of the same stream."""
        thetas = None if self.thetas is None else self.thetas[rows]
        return replace(self, outcomes=self.outcomes[rows], thetas=thetas)

    def to_jsonl(self, path) -> None:
        """One JSON line per round: protocol, thetas, outcome, seed_path."""
        with open(path, "w") as fh:
            for i in range(self.n):
                payload = {
                    "protocol": self.protocol,
                    "thetas": None if self.thetas is None else self.thetas[i].tolist(),
                    "outcome": self.outcomes[i].tolist(),
                    "seed_path": self.seed_path,
                }
                fh.write(json.dumps(payload, separators=(",", ":")))
                fh.write("\n")

    @classmethod
    def from_jsonl(cls, path, state_descriptor: dict | None = None) -> "SampleBatch":
        """Parse a file written by ``to_jsonl``.

        Every line must name the protocol and ``seed_path`` of line 1: a batch
        is one protocol drawn from one RNG stream.
        """
        with open(path) as fh:
            lines = [(k, line) for k, line in enumerate(fh, 1) if line.strip()]
        if not lines:
            raise ValueError(f"{path}: no records")
        protocol, seed_path, _, outcome = _fields(path, *lines[0])
        shape = np.shape(outcome)
        outcomes = np.empty((len(lines),) + shape)
        thetas = np.empty(outcomes.shape) if protocol == HOMODYNE else None
        for i, (k, line) in enumerate(lines):
            line_protocol, line_seed_path, line_thetas, outcome = _fields(path, k, line)
            if line_protocol != protocol or line_seed_path != seed_path:
                raise ValueError(
                    f"{path}: line {k} has protocol {line_protocol!r} and "
                    f"seed_path {line_seed_path!r}; line {lines[0][0]} has "
                    f"{protocol!r} and {seed_path!r} (a batch file holds one "
                    "protocol drawn from one RNG stream)"
                )
            outcomes[i] = _row(outcome, shape, path, k)
            if thetas is not None:
                thetas[i] = _row(line_thetas, shape, path, k)
        return cls(protocol, outcomes, thetas, seed_path, state_descriptor)


def _fields(path, line: int, text: str) -> tuple:
    """(protocol, seed_path, thetas, outcome) of one JSONL record line."""
    payload = json.loads(text)
    try:
        return (
            payload["protocol"],
            payload.get("seed_path", ""),
            payload.get("thetas"),
            payload["outcome"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: line {line} is not a record ({exc!r})") from None


def _row(values, shape: tuple, path, line: int) -> np.ndarray:
    row = np.asarray(values, dtype=float)
    if row.shape != shape:
        raise ValueError(f"{path}: line {line} has shape {row.shape}, expected {shape}")
    return row


def stream_rng(seed_path: str) -> np.random.Generator:
    """Deterministic generator for a named RNG stream.

    Disjoint stream identifiers give statistically independent streams; the
    mapping is platform-independent (SHA-256 of the path seeds the generator).
    """
    digest = hashlib.sha256(seed_path.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


# ---------------------------------------------------------------------------
# outcome densities
# ---------------------------------------------------------------------------


def _fock_gd(fock: FockMatrix, q: np.ndarray) -> np.ndarray:
    """Rows g_d(q) = sum_n rho[n+d, n] psi_{n+d}(q) psi_n(q) for d = 0..M."""
    m = fock.truncation
    psi = hermite_stack(m, q)
    rho = fock.entries
    g = np.zeros((m + 1, q.size), dtype=complex)
    for d in range(m + 1):
        diag = np.diag(rho, k=-d)  # rho[n+d, n], n = 0..m-d
        if np.any(diag != 0):
            g[d] = np.einsum("n,nq,nq->q", diag, psi[d:], psi[: m + 1 - d])
    return g


def homodyne_pdf(rho: FockMatrix, theta: float, q):
    """Rotated-quadrature density ``p(q | theta)`` of a truncated state.

    ``p(q|theta) = sum_{n1,n2} rho[n1,n2] exp(i (n1-n2) theta) psi_n1(q)
    psi_n2(q)``; the sign of the Fock-space rotation phase matches the
    convention above (``U_theta = exp(i theta N)`` for the rotation
    ``R_theta``) and is pinned by the shadow unbiasedness tests.
    """
    if not np.allclose(rho.entries, rho.entries.conj().T, atol=1e-8):
        raise ValueError("homodyne_pdf requires a Hermitian state matrix")
    scalar = np.ndim(q) == 0
    q = np.atleast_1d(np.asarray(q, dtype=float))
    g = _fock_gd(rho, q)
    d = np.arange(rho.truncation + 1)
    coeff = np.where(d == 0, 1.0, 2.0) * np.exp(1j * d * theta)
    vals = np.real(coeff @ g)
    return float(vals[0]) if scalar else vals


def heterodyne_covariance(spec: GaussianStateSpec) -> np.ndarray:
    """Covariance ``(V + I)/2`` of heterodyne outcomes of a Gaussian state."""
    return 0.5 * (spec.cov + np.eye(spec.cov.shape[0]))


def fock_husimi(fock: FockMatrix, x) -> np.ndarray:
    """Heterodyne outcome density ``<x|rho|x> / (2 pi)`` of a truncated state."""
    if fock.modes != 1:
        raise ValueError("fock_husimi supports single-mode matrices")
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 2)
    alpha = alpha_of(flat)
    dim = fock.truncation + 1
    # c[:, n] = <n|x> without the overall Gaussian, built multiplicatively to
    # stay finite for large |alpha|.
    c = np.empty((flat.shape[0], dim), dtype=complex)
    c[:, 0] = np.exp(-0.25 * np.sum(flat * flat, axis=-1))
    for n in range(1, dim):
        c[:, n] = c[:, n - 1] * alpha / np.sqrt(n)
    vals = np.einsum("in,nm,im->i", c.conj(), fock.entries, c).real / (2.0 * np.pi)
    out = np.maximum(vals, 0.0).reshape(x.shape[:-1])
    return out if np.ndim(out) else float(out)


def heterodyne_pdf(state, x):
    """Normalized heterodyne outcome density of ``state`` at point(s) ``x``.

    Gaussian states use the closed form ``N(t, (V+I)/2)``; cat states use the
    coherent-overlap density; truncated Fock matrices use the Husimi form.
    """
    if isinstance(state, GaussianStateSpec):
        x = np.asarray(x, dtype=float)
        sigma = heterodyne_covariance(state)
        dim = sigma.shape[0]
        chol = np.linalg.cholesky(sigma)
        diff = x - state.mean
        z = np.linalg.solve(chol, diff.reshape(-1, dim).T)
        quad = np.sum(z * z, axis=0)
        norm = (2.0 * np.pi) ** (dim / 2.0) * np.prod(np.diag(chol))
        out = (np.exp(-0.5 * quad) / norm).reshape(x.shape[:-1])
        return out if np.ndim(out) else float(out)
    if isinstance(state, CatStateSpec):
        return cat_position_pdf(state, x) / (2.0 * np.pi)
    if isinstance(state, FockMatrix):
        return fock_husimi(state, x)
    raise ValueError(f"unsupported state kind: {type(state).__name__}")


# ---------------------------------------------------------------------------
# homodyne sampling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _cat_sampling_fock(spec: CatStateSpec) -> FockMatrix:
    trunc = int(np.ceil(abs(spec.alpha) ** 2 + 6.0 * abs(spec.alpha) + 10))
    return fock_matrix_of(spec, trunc)


def _as_fock(state) -> FockMatrix:
    return _cat_sampling_fock(state) if isinstance(state, CatStateSpec) else state


def _rotated_position_stats(
    spec: GaussianStateSpec, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of the measured quadratures, per round.

    ``thetas`` has shape (n, m); returns means (n, m) and covariances
    (n, m, m) of the joint law of the m simultaneously measured rotated
    quadratures (the position block of ``S V S^T`` halved).
    """
    m = spec.modes
    c, s = np.cos(thetas), np.sin(thetas)
    v_xx = spec.cov[:m, :m]
    v_xp = spec.cov[:m, m:]
    v_pp = spec.cov[m:, m:]
    cov = (
        np.einsum("ni,ij,nj->nij", c, v_xx, c)
        - np.einsum("ni,ij,nj->nij", c, v_xp, s)
        - np.einsum("ni,ij,nj->nij", s, v_xp.T, c)
        + np.einsum("ni,ij,nj->nij", s, v_pp, s)
    )
    mean = c * spec.mean[:m] - s * spec.mean[m:]
    return mean, 0.5 * cov


def _invert_cdf_monotone(
    qgrid: np.ndarray, pdf: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Vectorized monotone-cubic (PCHIP-style) inverse-CDF sampling.

    ``pdf`` has one row per sample; each row is inverted at its own uniform
    ``u``.  The inverse CDF is interpolated with a monotone cubic Hermite
    whose exact slopes ``dq/dc = 1/pdf`` are clamped per Fritsch-Carlson.
    Works in unnormalized CDF units to avoid full-array divisions.  ``pdf``
    must be non-negative.
    """
    dq = float(qgrid[1] - qgrid[0])
    cdf = np.empty_like(pdf)
    cdf[:, 0] = 0.0
    np.cumsum(0.5 * (pdf[:, 1:] + pdf[:, :-1]) * dq, axis=1, out=cdf[:, 1:])
    total = cdf[:, -1]
    if np.any(total <= 0):
        raise ValueError("density vanished on the whole sampling grid")
    target = np.clip(u, 1e-15, 1.0 - 1e-15) * total
    # rows of cdf are non-decreasing, so this count is searchsorted(cdf[i], target[i])
    k = np.clip((cdf < target[:, None]).sum(axis=1), 1, cdf.shape[1] - 1)
    rows = np.arange(pdf.shape[0])
    c0, c1 = cdf[rows, k - 1], cdf[rows, k]
    q0, q1 = qgrid[k - 1], qgrid[k]
    h = c1 - c0
    flat = h <= 1e-300
    h = np.where(flat, 1.0, h)
    secant = (q1 - q0) / h
    with np.errstate(divide="ignore"):
        m0 = np.minimum(1.0 / np.maximum(pdf[rows, k - 1], 1e-300), 3.0 * secant)
        m1 = np.minimum(1.0 / np.maximum(pdf[rows, k], 1e-300), 3.0 * secant)
    t = np.clip((target - c0) / h, 0.0, 1.0)
    t2, t3 = t * t, t * t * t
    val = (
        (2 * t3 - 3 * t2 + 1) * q0
        + (t3 - 2 * t2 + t) * h * m0
        + (-2 * t3 + 3 * t2) * q1
        + (t3 - t2) * h * m1
    )
    return np.where(flat, 0.5 * (q0 + q1), val)


def _sample_fock_homodyne(
    fock: FockMatrix, n: int, rng: np.random.Generator, chunk: int = 8192
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (thetas, q) for n rounds on a single-mode truncated state."""
    m_osc = fock.truncation
    q_max = np.sqrt(2.0 * (2.0 * m_osc + 1.0)) + 5.0
    qgrid = np.linspace(-q_max, q_max, _CDF_GRID_POINTS)
    g = _fock_gd(fock, qgrid)
    d = np.arange(m_osc + 1)
    weight = np.where(d == 0, 1.0, 2.0)
    # realified product: Re((w e^{i d theta}) @ g) as one real matmul
    g_stack = np.concatenate([g.real, -g.imag], axis=0)
    thetas = rng.uniform(-np.pi, np.pi, size=n)
    qs = np.empty(n)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        angles = np.outer(thetas[sl], d)
        phases = np.concatenate(
            [weight * np.cos(angles), weight * np.sin(angles)], axis=1
        )
        pdf = phases @ g_stack
        np.maximum(pdf, 0.0, out=pdf)
        qs[sl] = _invert_cdf_monotone(qgrid, pdf, rng.random(pdf.shape[0]))
    return thetas[:, None], qs[:, None]


def sample_homodyne_batch(state, n: int, seed_path: str) -> SampleBatch:
    """Draw ``n`` randomized homodyne rounds as a deterministic batch.

    Gaussian states take the exact-normal path (correlated modes handled
    jointly); cat states and truncated Fock matrices go through the gridded
    inverse-CDF of :func:`homodyne_pdf`.
    """
    rng = stream_rng(seed_path)
    if isinstance(state, GaussianStateSpec):
        m = state.modes
        thetas = rng.uniform(-np.pi, np.pi, size=(n, m))
        mean, cov = _rotated_position_stats(state, thetas)
        if m == 1:
            std = np.sqrt(cov[:, 0, 0])
            qs = mean[:, 0:1] + (std * rng.standard_normal(n))[:, None]
        else:
            chol = np.linalg.cholesky(cov)
            z = rng.standard_normal((n, m))
            qs = mean + np.einsum("nij,nj->ni", chol, z)
    elif isinstance(state, (CatStateSpec, FockMatrix)):
        fock = _as_fock(state)
        if fock.modes != 1:
            raise ValueError("Fock-path homodyne sampling is single mode")
        thetas, qs = _sample_fock_homodyne(fock, n, rng)
    else:
        raise ValueError(f"unsupported state kind: {type(state).__name__}")
    return SampleBatch(HOMODYNE, qs, thetas, seed_path, describe_state(state))


# ---------------------------------------------------------------------------
# heterodyne sampling
# ---------------------------------------------------------------------------


def _gaussian_heterodyne_draws(
    spec: GaussianStateSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    sigma = heterodyne_covariance(spec)
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((n, sigma.shape[0]))
    flat = spec.mean + z @ chol.T
    m = spec.modes
    return np.stack([flat[:, :m], flat[:, m:]], axis=-1)


def _rejection_heterodyne_draws(
    fock: FockMatrix,
    n: int,
    rng: np.random.Generator,
    c_env: float = _ENVELOPE_INFLATION,
) -> tuple[np.ndarray, float]:
    """Exact rejection sampler for single-mode non-Gaussian states.

    The proposal is a Gaussian with the state's heterodyne moments inflated
    by ``c_env``; the dominating constant is calibrated on a probe grid with
    a safety margin and re-checked at every proposal.  A proposal with
    ``pdf > envelope`` aborts: clipping would silently bias the sampler.
    """
    t_fit, v_fit = fock_moments(fock)
    sigma = c_env * 0.5 * (v_fit + np.eye(2))
    chol = np.linalg.cholesky(sigma)
    det = np.linalg.det(sigma)

    def envelope(pts):
        diff = pts - t_fit
        z = np.linalg.solve(chol, diff.T)
        return np.exp(-0.5 * np.sum(z * z, axis=0)) / (2.0 * np.pi * np.sqrt(det))

    span = 6.0 * np.sqrt(np.diag(sigma))
    axes = [np.linspace(t_fit[i] - span[i], t_fit[i] + span[i], 201) for i in range(2)]
    gx, gy = np.meshgrid(*axes, indexing="ij")
    probe = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    ratio = fock_husimi(fock, probe) / np.maximum(envelope(probe), 1e-300)
    bound = 1.2 * float(ratio.max())

    out = np.empty((n, 2))
    filled = 0
    proposed = 0
    while filled < n:
        want = max(int(1.5 * (n - filled) * bound) + 16, 64)
        z = rng.standard_normal((want, 2))
        pts = t_fit + z @ chol.T
        u = rng.random(want)
        target = fock_husimi(fock, pts)
        env = envelope(pts)
        if np.any(target > bound * env * (1.0 + 1e-9)):
            worst = int(np.argmax(target - bound * env))
            raise RuntimeError(
                "rejection envelope violated at "
                f"x={pts[worst]}, pdf={target[worst]:.3e}, "
                f"envelope={bound * env[worst]:.3e}; increase c_env"
            )
        accept = u * bound * env < target
        proposed += want
        take = pts[accept][: n - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    acceptance = n / proposed if proposed else 1.0
    log.info("heterodyne rejection acceptance: %.3f (c_env=%.2f)", acceptance, c_env)
    return out[:, None, :], acceptance


def sample_heterodyne_batch(
    state, n: int, seed_path: str, c_env: float = _ENVELOPE_INFLATION
) -> SampleBatch:
    """Draw ``n`` heterodyne rounds as a deterministic batch.

    Gaussian states are sampled exactly; cat states and truncated Fock
    matrices use exact rejection sampling with a Gaussian envelope.
    """
    rng = stream_rng(seed_path)
    meta: dict = {}
    if isinstance(state, GaussianStateSpec):
        pts = _gaussian_heterodyne_draws(state, n, rng)
    else:
        fock = _as_fock(state)
        if fock.modes != 1:
            raise ValueError("rejection heterodyne sampling is single mode")
        pts, acceptance = _rejection_heterodyne_draws(fock, n, rng, c_env=c_env)
        meta["acceptance"] = acceptance
    return SampleBatch(HETERODYNE, pts, None, seed_path, describe_state(state), meta)


def describe_state(state) -> dict:
    """JSON-friendly descriptor of a state spec, for batch provenance."""
    if isinstance(state, GaussianStateSpec):
        return {"kind": "gaussian", "modes": state.modes}
    if isinstance(state, CatStateSpec):
        return {
            "kind": "cat",
            "logical": state.logical,
            "alpha": [state.alpha.real, state.alpha.imag],
        }
    if isinstance(state, FockMatrix):
        return {"kind": "fock", "truncation": state.truncation}
    return {"kind": type(state).__name__}
