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
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .phase_space import alpha_of, hermite_stack
from .states import (
    CatStateSpec,
    FockMatrix,
    GaussianStateSpec,
    block_cholesky,
    fock_matrix_of,
    fock_moments,
    xxpp_block,
)

log = logging.getLogger(__name__)

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"

# Degrees of freedom of the Student-t rejection proposal: its polynomial tail
# dominates the Gaussian-decaying tail of every truncated state.
_PROPOSAL_DOF = 4.0
_ENVELOPE_MARGIN = 1.2
_REJECTION_CHUNK = 32768
# Values per block of rows that ``SampleBatch.to_jsonl`` turns into Python floats.
_JSONL_BLOCK_VALUES = 1 << 16


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
        if self.thetas is not None and not np.all(np.isfinite(self.thetas)):
            raise ValueError("angles must be finite")

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
        """One JSON line per round: protocol, thetas, outcome, seed_path.

        The bytes are those of ``json.dumps(payload, separators=(",", ":"))``
        per round: one ``%`` template per batch fills in ``repr`` of every
        value, which is how ``json`` writes a finite float.
        """
        m = self.modes
        if self.thetas is None:
            thetas = "null"
            outcome = ",".join(["[%r,%r]"] * m)
            columns = [self.outcomes.reshape(self.n, 2 * m)]
        else:
            thetas = "[" + ",".join(["%r"] * m) + "]"
            outcome = ",".join(["%r"] * m)
            columns = [self.thetas, self.outcomes]
        protocol = json.dumps(self.protocol)
        seed_path = json.dumps(self.seed_path).replace("%", "%%")
        template = (
            f'{{"protocol":{protocol},"thetas":{thetas},'
            f'"outcome":[{outcome}],"seed_path":{seed_path}}}\n'
        )
        block = max(1, _JSONL_BLOCK_VALUES // max(1, 2 * m))
        with open(path, "w") as fh:
            for start in range(0, self.n, block):
                rows = np.concatenate([c[start : start + block] for c in columns], axis=1)
                fh.write("".join([template % tuple(row) for row in rows.tolist()]))

    @classmethod
    def from_jsonl(cls, path) -> "SampleBatch":
        """Parse a file written by ``to_jsonl``.

        Every line must name the protocol and ``seed_path`` of line 1: a batch
        is one protocol drawn from one RNG stream.
        """
        with open(path) as fh:
            n = sum(1 for line in fh if line.strip())
            if not n:
                raise ValueError(f"{path}: no records")
            fh.seek(0)  # then parse one line at a time
            for i, (k, line) in enumerate((k, t) for k, t in enumerate(fh, 1) if t.strip()):
                line_protocol, line_seed_path, line_thetas, outcome = _fields(path, k, line)
                if not i:
                    first, protocol, seed_path = k, line_protocol, line_seed_path
                    shape = np.shape(outcome)
                    outcomes = np.empty((n,) + shape)
                    thetas = np.empty(outcomes.shape) if protocol == HOMODYNE else None
                if line_protocol != protocol or line_seed_path != seed_path:
                    raise ValueError(
                        f"{path}: line {k} has protocol {line_protocol!r} and "
                        f"seed_path {line_seed_path!r}; line {first} has "
                        f"{protocol!r} and {seed_path!r} (a batch file holds one "
                        "protocol drawn from one RNG stream)"
                    )
                outcomes[i] = _row(outcome, shape, path, k)
                if thetas is not None:
                    thetas[i] = _row(line_thetas, shape, path, k)
        return cls(protocol, outcomes, thetas, seed_path)


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


def _hermitian(rho: np.ndarray) -> bool:
    """Whether ``max |rho - rho^H| <= 1e-8``, an absolute tolerance."""
    return float(np.abs(rho - rho.conj().T).max(initial=0.0)) <= 1e-8


def _factors(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, u)`` with ``rho = sum_k lam_k u_k u_k^H``, from one ``eigh``.

    Eigenpairs with ``|lam| <= dim eps max|lam|`` are dropped; the rest keep
    their sign, so the factors hold for any Hermitian matrix, not only states.
    A pure state (a cat, or Fock ``|n>``) keeps one pair.
    """
    lam, u = np.linalg.eigh(rho)
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.abs(lam).max(initial=0.0)
    return lam[keep], u[:, keep]


def _expectation(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``<v|rho|v> = sum_k lam_k |u_k^H v|^2`` for every column ``v`` of ``kets``."""
    lam, u = _factors(rho)
    amps = u.conj().T @ kets
    return lam @ (amps.real**2 + amps.imag**2)


def _homodyne_density(fock: FockMatrix, thetas, q: np.ndarray) -> np.ndarray:
    """``p(q_i | theta_i)`` of a single-mode truncated state, one angle per point.

    ``p(q|theta) = <v|rho|v>`` with ``v_n = exp(-i n theta) psi_n(q)``;
    ``q`` is 1-D and ``thetas`` broadcasts to it.  Each factor's amplitude
    ``sum_n conj(u_n) psi_n(q) z^n``, ``z = exp(-i theta)``, is one Horner
    pass over the rows of :func:`hermite_stack`: O(dim) per point and factor.
    """
    lam, u = _factors(fock.entries)
    coeffs = u.conj()[:, :, None]
    psi = hermite_stack(fock.truncation, q)
    z = np.exp(-1j * np.broadcast_to(thetas, q.shape))
    amps = coeffs[-1] * psi[-1]
    for n in range(fock.truncation - 1, -1, -1):
        amps *= z
        amps += coeffs[n] * psi[n]
    return lam @ (amps.real**2 + amps.imag**2)


def homodyne_pdf(rho: FockMatrix, theta: float, q):
    """Rotated-quadrature density ``p(q | theta)`` of a truncated state.

    ``p(q|theta) = sum_{n1,n2} rho[n1,n2] exp(i (n1-n2) theta) psi_n1(q)
    psi_n2(q)``; the sign of the Fock-space rotation phase matches the
    convention above (``U_theta = exp(i theta N)`` for the rotation
    ``R_theta``) and is pinned by the shadow unbiasedness tests.
    """
    if not _hermitian(rho.entries):
        raise ValueError("homodyne_pdf requires a Hermitian state matrix")
    scalar = np.ndim(q) == 0
    vals = _homodyne_density(rho, theta, np.atleast_1d(np.asarray(q, dtype=float)))
    return float(vals[0]) if scalar else vals


def fock_husimi(fock: FockMatrix, x) -> np.ndarray:
    """Heterodyne outcome density ``<x|rho|x> / (2 pi)`` of a truncated state.

    Signed, like :func:`homodyne_pdf`: for a Hermitian matrix that is not a
    state it may read below zero.
    """
    if fock.modes != 1:
        raise ValueError("fock_husimi supports single-mode matrices")
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 2)
    alpha = alpha_of(flat)
    dim = fock.truncation + 1
    # c[n] = <n|x> without the overall Gaussian, built multiplicatively to
    # stay finite for large |alpha|.
    c = np.empty((dim, flat.shape[0]), dtype=complex)
    c[0] = np.exp(-0.25 * np.sum(flat * flat, axis=-1))
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    out = (_expectation(fock.entries, c) / (2.0 * np.pi)).reshape(x.shape[:-1])
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _gaussian_draws(state: GaussianStateSpec, vacuum: float, n: int, rng) -> np.ndarray:
    """``n`` rows ``[x | p]`` from ``N(t, (V + vacuum I) / 2)``: Wigner 0, heterodyne 1.

    The m x m blocks are factored by :func:`block_cholesky`, and the normals
    ``z`` become ``t + z L^T`` in place, 256 rows at a time.
    """
    m = state.modes

    def half(i, j, diag=0.0):  # block (i, j) of (V + diag I) / 2; V is symmetric
        return 0.5 * xxpp_block(state.cov, i, j, diag)

    l11, l21, l22 = block_cholesky(half(0, 0, vacuum), half(0, 1), half(1, 1, vacuum))
    z = rng.standard_normal((n, 2 * m))
    for r in range(0, n, 256):
        x, p = z[r : r + 256, :m], z[r : r + 256, m:]
        p[:] = x @ l21.T + p @ l22.T
        x[:] = x @ l11.T
    z += state.mean
    return z


@lru_cache(maxsize=16)
def _cat_sampling_fock(spec: CatStateSpec) -> FockMatrix:
    trunc = int(np.ceil(abs(spec.alpha) ** 2 + 6.0 * abs(spec.alpha) + 10))
    return fock_matrix_of(spec, trunc)


def _sampling_fock(state) -> FockMatrix:
    """The single-mode truncated state a non-Gaussian sampler draws from.

    Raises ``ValueError`` unless it is Hermitian (to an absolute 1e-8),
    positive semidefinite (to -1e-10) and of positive trace: the samplers
    never clip a density.
    """
    if isinstance(state, CatStateSpec):
        return _cat_sampling_fock(state)
    if not isinstance(state, FockMatrix):
        raise ValueError(f"unsupported state kind: {type(state).__name__}")
    if state.modes != 1:
        raise ValueError("non-Gaussian sampling is single mode")
    rho = state.entries
    if not _hermitian(rho):
        raise ValueError("cannot sample a non-Hermitian state matrix")
    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -1e-10 or np.trace(rho).real <= 0:
        raise ValueError(
            f"cannot sample a matrix that is not a state (minimum eigenvalue "
            f"{lowest:.3e}, trace {np.trace(rho).real:.3e})"
        )
    return state


def _rejection_draws(
    target,
    draw,
    probe: np.ndarray,
    probe_density: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, dict]:
    """Exact rejection sampling of ``n`` points from the density ``target``.

    ``draw(rng, size)`` returns ``size`` proposal points as rows and their
    proposal density; ``probe_density`` is the proposal density at the
    ``probe`` points.  The dominating constant is ``_ENVELOPE_MARGIN`` times
    the largest ratio ``target / proposal`` on the probe, re-checked at every
    proposal: a proposal above the bound aborts, since clipping would
    silently bias the sampler.  The first chunk holds ``_REJECTION_CHUNK``
    proposals; each later one is sized for the points still missing at the
    acceptance so far, ``ceil(1.1 remaining / acceptance)``, clamped to
    ``[1024, _REJECTION_CHUNK]``.  Memory does not grow with ``n``, and the
    samples stay exact: a chunk's size depends only on the counts of earlier
    chunks, never on their points.  Returns the points and
    ``{"acceptance", "proposals"}``, the acceptance being accepted /
    proposed over every chunk drawn.
    """
    ratio = target(probe) / np.maximum(probe_density, 1e-300)
    bound = _ENVELOPE_MARGIN * float(ratio.max())
    out = np.empty((n, probe.shape[1]))
    filled = accepted = proposed = 0
    size = _REJECTION_CHUNK
    while filled < n:
        if accepted:
            wanted = math.ceil(1.1 * (n - filled) * proposed / accepted)
            size = min(_REJECTION_CHUNK, max(1024, wanted))
        pts, proposal = draw(rng, size)
        u = rng.random(size)
        density = target(pts)
        ceiling = bound * proposal
        if np.any(density > ceiling * (1.0 + 1e-9)):
            worst = int(np.argmax(density - ceiling))
            raise RuntimeError(
                f"rejection envelope violated at {pts[worst]}: density "
                f"{density[worst]:.3e} > envelope {ceiling[worst]:.3e}"
            )
        keep = pts[u * ceiling < density]
        proposed += size
        accepted += keep.shape[0]
        take = keep[: n - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    log.info("rejection sampling accepted %d of %d proposals", accepted, proposed)
    acceptance = accepted / proposed if proposed else None
    return out, {"acceptance": acceptance, "proposals": proposed}


def _t_draws(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """``size`` rows of the standard ``dim``-dimensional Student t.

    ``nu = _PROPOSAL_DOF`` degrees of freedom: ``normal / sqrt(chisquare(nu) / nu)``,
    one chi-square per row.
    """
    z = rng.standard_normal((size, dim))
    return z / np.sqrt(rng.chisquare(_PROPOSAL_DOF, (size, 1)) / _PROPOSAL_DOF)


def _t_density(z: np.ndarray, scale) -> np.ndarray:
    """Density of the point ``loc + A z`` under the proposal, ``scale = |det A|``.

    ``c (1 + |z|^2 / nu)^(-(nu + d) / 2) / scale`` for the rows ``z`` of
    dimension ``d``, ``c = Gamma((nu + d) / 2) / (Gamma(nu / 2) (nu pi)^(d / 2))``.
    """
    nu, d = _PROPOSAL_DOF, z.shape[-1]
    c = math.exp(math.lgamma(0.5 * (nu + d)) - math.lgamma(0.5 * nu))
    c /= (nu * math.pi) ** (0.5 * d)
    return c * (1.0 + np.sum(z * z, axis=-1) / nu) ** (-0.5 * (nu + d)) / scale


def _homodyne_proposals(fock: FockMatrix):
    """Map ``(thetas, z) -> (points, density)`` of the homodyne proposal.

    ``q = mean + std z`` with the state's rotated-quadrature mean and std at
    each angle, the variance floored at the vacuum's; ``z`` holds rows of
    :func:`_t_draws` with ``dim = 1``.  The uniform angle density cancels.
    """
    t_fit, v_fit = fock_moments(fock)

    def proposals(thetas, z):
        c, s = np.cos(thetas), np.sin(thetas)
        var = c * c * v_fit[0, 0] - 2.0 * c * s * v_fit[0, 1] + s * s * v_fit[1, 1]
        std = np.sqrt(0.5 * np.maximum(var, 1.0))
        mean = c * t_fit[0] - s * t_fit[1]
        return np.stack([thetas, mean + std * z[:, 0]], axis=-1), _t_density(z, std)

    return proposals


def _rejection_homodyne_draws(
    fock: FockMatrix, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Draw (thetas, q) for n rounds on a single-mode truncated state.

    Proposal: ``theta`` uniform, then ``q`` from :func:`_homodyne_proposals`,
    a Student t located and scaled by the state's rotated quadrature.
    """
    proposals = _homodyne_proposals(fock)

    def draw(rng, size):
        thetas = rng.uniform(-np.pi, np.pi, size)
        return proposals(thetas, _t_draws(rng, size, 1))

    def target(pts):
        return _homodyne_density(fock, pts[:, 0], pts[:, 1])

    grid_theta, grid_z = np.linspace(-np.pi, np.pi, 129), np.linspace(-6.0, 6.0, 513)
    probe, probe_density = proposals(
        np.repeat(grid_theta, grid_z.size), np.tile(grid_z, grid_theta.size)[:, None]
    )
    pts, meta = _rejection_draws(target, draw, probe, probe_density, n, rng)
    return pts[:, :1], pts[:, 1:], meta


def sample_homodyne_batch(state, n: int, seed_path: str) -> SampleBatch:
    """Draw ``n`` randomized homodyne rounds as a deterministic batch.

    Gaussian states are sampled exactly, all modes jointly: a phase-space
    point from the Wigner density ``N(t, V/2)``, then ``q_j = cos(theta_j)
    x_j - sin(theta_j) p_j``.  Cat states and truncated Fock matrices use
    exact rejection sampling of :func:`homodyne_pdf`; ``meta`` then holds its
    acceptance and proposal count.
    """
    rng = stream_rng(seed_path)
    meta: dict = {}
    if isinstance(state, GaussianStateSpec):
        m = state.modes
        thetas = rng.uniform(-np.pi, np.pi, size=(n, m))
        x = _gaussian_draws(state, 0.0, n, rng)
        qs = np.cos(thetas) * x[:, :m] - np.sin(thetas) * x[:, m:]
    else:
        thetas, qs, meta = _rejection_homodyne_draws(_sampling_fock(state), n, rng)
    return SampleBatch(HOMODYNE, qs, thetas, seed_path, meta)


def _heterodyne_proposals(fock: FockMatrix):
    """Map ``z -> (points, density)`` of the heterodyne proposal.

    ``x = t + L z`` with ``L L^T = (V + I)/2`` from the state's moments;
    ``z`` holds rows of :func:`_t_draws` with ``dim = 2``.
    """
    t_fit, v_fit = fock_moments(fock)
    chol = np.linalg.cholesky(0.5 * (v_fit + np.eye(2)))
    det = float(np.prod(np.diag(chol)))

    def proposals(z):
        return t_fit + z @ chol.T, _t_density(z, det)

    return proposals


def _rejection_heterodyne_draws(
    fock: FockMatrix, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Draw n heterodyne outcomes of a single-mode truncated state.

    Proposal: :func:`_heterodyne_proposals`, a 2-D Student t located and
    scaled by the state's heterodyne moments.
    """
    proposals = _heterodyne_proposals(fock)

    def draw(rng, size):
        return proposals(_t_draws(rng, size, 2))

    def target(pts):
        return fock_husimi(fock, pts)

    axis = np.linspace(-6.0, 6.0, 201)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    probe, probe_density = proposals(np.stack([gx.ravel(), gy.ravel()], axis=-1))
    pts, meta = _rejection_draws(target, draw, probe, probe_density, n, rng)
    return pts[:, None, :], meta


def sample_heterodyne_batch(state, n: int, seed_path: str) -> SampleBatch:
    """Draw ``n`` heterodyne rounds as a deterministic batch.

    Gaussian states are sampled exactly from ``N(t, (V+I)/2)``; cat states
    and truncated Fock matrices use exact rejection sampling with a Student-t
    envelope, and ``meta`` then holds its acceptance and proposal count.
    """
    rng = stream_rng(seed_path)
    meta: dict = {}
    if isinstance(state, GaussianStateSpec):
        flat = _gaussian_draws(state, 1.0, n, rng)
        m = state.modes
        pts = np.stack([flat[:, :m], flat[:, m:]], axis=-1)
    else:
        pts, meta = _rejection_heterodyne_draws(_sampling_fock(state), n, rng)
    return SampleBatch(HETERODYNE, pts, None, seed_path, meta)

