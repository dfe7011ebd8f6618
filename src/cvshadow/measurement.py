"""Synthetic measurement outcomes: randomized homodyne and heterodyne sampling.

Protocol conventions (shared with :mod:`cvshadow.shadows`):

* Homodyne round: per mode ``j`` an angle ``theta_j ~ Uniform[-pi, pi)`` is
  drawn, the rotation ``R_theta`` is applied to the state (covariance
  ``V -> S V S^T``), and the position quadrature is measured, yielding one
  real outcome ``q_j``.  The measured observable on the original state is
  ``cos(theta) X - sin(theta) P``.  The mode's row is ``(theta_j, q_j)``.
* Heterodyne round: the outcome is a full phase-space point with density
  ``<x|rho|x> / (2 pi)^m``; for a Gaussian state this is normal with mean
  ``t`` and covariance ``(V + I)/2``.  The mode's row is ``(x_j, p_j)``.

Either way a batch of N rounds on m modes is one (N, m, 2) array of rows.

Samplers take an explicit ``numpy.random.Generator``; batches derive their
generator deterministically from a ``seed_path`` string, so identical paths
reproduce bit-identical batches.  There is no global RNG.
"""

from __future__ import annotations

import base64
import copy
import ctypes
import hashlib
import json
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .phase_space import alpha_of, hermite_stack
from .states import (
    SLICE_BUDGETS,
    CatStateSpec,
    FockMatrix,
    _check_modes,
    cat_fock_coefficients,
    coherent_fock_coefficients,
    value_slices,
)

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"

# Degrees of freedom of the Student-t rejection proposal: its polynomial tail
# dominates the Gaussian-decaying tail of every truncated state.
_PROPOSAL_DOF = 4.0
_ENVELOPE_MARGIN = 1.2


@dataclass
class SampleBatch:
    """N rounds of one protocol, drawn from one RNG stream, stored as arrays.

    ``outcomes`` has shape (N, m, 2): each mode's homodyne ``(theta, q)`` or
    heterodyne ``(x, p)``.  ``seed_path`` names the stream every round was
    drawn from; it and ``meta`` are keyword-only.
    """

    protocol: str
    outcomes: np.ndarray
    seed_path: str = field(default="", kw_only=True)
    meta: dict = field(default_factory=dict, kw_only=True)

    def __post_init__(self):
        if self.protocol not in (HOMODYNE, HETERODYNE):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        self.outcomes = np.asarray(self.outcomes, dtype=float)
        if self.outcomes.ndim != 3 or self.outcomes.shape[2] != 2:
            raise ValueError(f"{self.protocol} outcomes must have shape (N, modes, 2)")
        if not np.all(np.isfinite(self.outcomes)):
            raise ValueError("outcomes must be finite")

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def modes(self) -> int:
        return self.outcomes.shape[1]

    def to_jsonl(self, fh, digest=None) -> None:
        """Append one JSON line per round to the open text handle ``fh``.

        A line's bytes are those of ``json.dumps(payload, separators=(",",
        ":"))`` for the keys protocol, rows and seed_path.  ``rows`` is the
        padded standard base64 of the round's (m, 2) little-endian float64
        rows in row-major order (homodyne theta0, q0, theta1, q1, ...;
        heterodyne x0, p0, x1, p1, ...), so a reader gets back the bits that
        were drawn.  Every line is ASCII, and its bytes are fed to ``digest``
        (a ``hashlib`` object) as it is written, when one is given.
        """
        head = f'{{"protocol":{json.dumps(self.protocol)},"rows":"'
        tail = f'","seed_path":{json.dumps(self.seed_path)}}}\n'
        rows = np.ascontiguousarray(self.outcomes, "<f8")
        lines = (f"{head}{base64.b64encode(row).decode()}{tail}" for row in rows)
        if digest is not None:
            lines = _fed(lines, digest)
        fh.writelines(lines)

    @classmethod
    def from_jsonl(cls, path, modes=None, *, digest=None) -> "SampleBatch":
        """Parse a file written by ``to_jsonl``, keeping the columns of ``modes``.

        ``modes`` are distinct measured modes (default: all of them), so a
        reader of a few modes of a long chain never holds the (N, m) batch.
        Every line is checked, whichever columns are kept: it must name the
        protocol and ``seed_path`` of the first record (a batch is one
        protocol drawn from one RNG stream) and hold base64 float64 rows,
        finite and as many values as the first record's.  One pass counts the
        records, so the kept columns are filled in place by the next; that
        pass also feeds every byte of the file to ``digest`` (a ``hashlib``
        object), when one is given.
        """
        protocol, seed_path, m = jsonl_header(path)
        cols = list(range(m) if modes is None else modes)
        _check_modes(cols, m)
        n = 0
        with open(path, "rb") as fh:
            for line in fh:
                n += not line.isspace()
                if digest is not None:
                    digest.update(line)
        outcomes = np.empty((n, len(cols), 2))
        with open(path, "rb") as fh:
            kept = ((k, line) for k, line in enumerate(fh, 1) if not line.isspace())
            for i, (k, line) in enumerate(kept):
                line_protocol, line_seed_path, rows = _fields(path, k, line)
                if line_protocol != protocol or line_seed_path != seed_path:
                    raise ValueError(
                        f"{path}: line {k} has protocol {line_protocol!r} and "
                        f"seed_path {line_seed_path!r}; the first record has "
                        f"{protocol!r} and {seed_path!r} (a batch file holds one "
                        "protocol drawn from one RNG stream)"
                    )
                outcomes[i] = _row(rows, 2 * m, path, k).reshape(m, 2)[cols]
        return cls(protocol, outcomes, seed_path=seed_path)


def _fed(lines: Iterator[str], digest) -> Iterator[str]:
    """``lines`` as they are, each one's ASCII bytes fed to ``digest`` first."""
    for line in lines:
        digest.update(line.encode("ascii"))
        yield line


def jsonl_header(path) -> tuple[str, str, int]:
    """``(protocol, seed_path, modes)`` of a records file, from its first record.

    Reading stops at the first record line; ``modes >= 1`` is half the count
    of its row values.
    """
    with open(path, "rb") as fh:
        for first, line in enumerate(fh, 1):
            if not line.isspace():
                break
        else:
            raise ValueError(f"{path}: no records")
    protocol, seed_path, rows = _fields(path, first, line)
    if protocol not in (HOMODYNE, HETERODYNE):
        raise ValueError(f"{path}: line {first} has unknown protocol {protocol!r}")
    size = _values(rows, path, first).size
    if size == 0 or size % 2:
        raise ValueError(
            f"{path}: line {first} has row value count {size}, not two values "
            "for each of one or more modes"
        )
    return protocol, seed_path, size // 2


def _fields(path, line: int, raw: bytes) -> tuple:
    """(protocol, seed_path, rows) of one JSONL record line, read as bytes."""
    try:
        payload = json.loads(raw.decode("utf-8"))
        return payload["protocol"], payload.get("seed_path", ""), payload["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: line {line} is not a record ({exc!r})") from None


def _values(text, path, line: int) -> np.ndarray:
    """The float64 values of one base64 field of a record line."""
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # not a string, not ASCII, or not base64
        data = None
    if data is None or len(data) % 8:
        raise ValueError(f"{path}: line {line} holds numbers that are not base64 float64")
    return np.frombuffer(data, "<f8")


def _row(text, size: int, path, line: int) -> np.ndarray:
    row = _values(text, path, line)
    if row.size != size:
        raise ValueError(
            f"{path}: line {line} has value count {row.size}, expected "
            f"{size} as on the first record"
        )
    if not np.isfinite(row).all():
        raise ValueError(f"{path}: line {line} holds a value that is not finite")
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


@cache
def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or ``None``.

    Looked up through numpy's core extension module, which links that
    library; ``None`` where numpy was built against another BLAS.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, put


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    A threaded zgemm splits its sums by thread, so the last bits of a profile
    table (and with it a shadow average) or of a heterodyne density would
    depend on ``OPENBLAS_NUM_THREADS``.  A no-op where
    :func:`_openblas_threads` finds no OpenBLAS.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _homodyne_density(factors, theta, q: np.ndarray) -> np.ndarray:
    """``p(q_i | theta_i)`` of the single-mode state ``factors``, one angle per point.

    ``factors`` are ``(lam, u)`` with ``rho = sum_k lam_k u_k u_k^H``,
    truncated at ``len(u) - 1`` photons.  ``p(q|theta) = <v|rho|v>`` with
    ``v_n = exp(-i n theta) psi_n(q)``; ``q`` is 1-D and ``theta``
    broadcasts to it.  Each factor's amplitude ``sum_n conj(u_n) psi_n(q)
    z^n``, ``z = exp(-i theta)``, is one Horner pass over the rows of
    :func:`hermite_stack`: O(dim) per point and factor, in the ``"density"``
    slices of :func:`~cvshadow.states.value_slices`.
    """
    lam, u = factors
    trunc = len(u) - 1
    coeffs = u.conj()[:, :, None]
    theta = np.broadcast_to(theta, q.shape)
    out = np.empty(q.shape)
    for sl in value_slices(q.size, len(u), SLICE_BUDGETS["density"], align=16):
        psi = hermite_stack(trunc, q[sl])
        z = np.exp(-1j * theta[sl])
        amps = coeffs[-1] * psi[-1]
        for n in range(trunc - 1, -1, -1):
            amps *= z
            amps += coeffs[n] * psi[n]
        out[sl] = lam @ (amps.real**2 + amps.imag**2)
    return out


def fock_husimi(factors, x) -> np.ndarray:
    """Heterodyne outcome density ``<x|rho|x> / (2 pi)`` of the single-mode ``factors``.

    ``<x|rho|x> = sum_k lam_k |u_k^H v|^2`` over the factors ``(lam, u)``
    of ``rho``, truncated at ``len(u) - 1`` photons, for the coherent-state
    amplitudes ``v = <n|x>`` of
    :func:`~cvshadow.states.coherent_fock_coefficients` at ``alpha(x)``,
    in the ``"density"`` slices of :func:`~cvshadow.states.value_slices`, on
    one BLAS thread, so that the bits follow neither the thread count nor the
    slices.  Signed, like :func:`_homodyne_density`: for a Hermitian matrix
    that is not a state it may read below zero.
    """
    x = np.asarray(x, dtype=float)
    lam, u = factors
    u_h = u.conj().T
    points = x.reshape(-1, 2)
    out = np.empty(len(points))
    for sl in value_slices(len(points), len(u), SLICE_BUDGETS["density"], align=16):
        with _one_blas_thread():
            amps = u_h @ coherent_fock_coefficients(alpha_of(points[sl]), len(u) - 1)
            out[sl] = lam @ (amps.real**2 + amps.imag**2)
    out = (out / (2.0 * np.pi)).reshape(x.shape[:-1])
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sampling_factors(state) -> tuple[np.ndarray, np.ndarray]:
    """The state a non-Gaussian sampler draws from, as ``(lam, u)``.

    ``rho = sum_k lam_k u_k u_k^H``.  A cat is its one factor, weight 1 and
    its truncated amplitudes ``c``, so no (dim, dim) matrix is formed and no
    ``eigh`` run.  A matrix must be single mode, Hermitian (to an absolute
    1e-8), positive semidefinite (to -1e-10) and of positive trace, or
    ``ValueError`` is raised: the samplers never clip a density.  Its one
    ``eigh`` gives the check its smallest eigenvalue and the factors their
    pairs; pairs with ``|lam| <= dim eps max|lam|`` are dropped.
    """
    if isinstance(state, CatStateSpec):
        trunc = int(np.ceil(abs(state.alpha) ** 2 + 6.0 * abs(state.alpha) + 10))
        return np.ones(1), cat_fock_coefficients(state, trunc)[:, None]
    if not isinstance(state, FockMatrix):
        raise ValueError(f"unsupported state kind: {type(state).__name__}")
    if state.modes != 1:
        raise ValueError("non-Gaussian sampling is single mode")
    rho = state.entries
    if not _hermitian(rho):
        raise ValueError("cannot sample a non-Hermitian state matrix")
    lam, u = np.linalg.eigh(rho)
    if lam[0] < -1e-10 or np.trace(rho).real <= 0:
        raise ValueError(
            f"cannot sample a matrix that is not a state (minimum eigenvalue "
            f"{lam[0]:.3e}, trace {np.trace(rho).real:.3e})"
        )
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.abs(lam).max()
    return lam[keep], u[:, keep]


def _rejection_draws(
    target, proposals, draw, bound: float, n: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, dict]]:
    """Exact rejection sampling of ``n`` points from the density ``target``.

    ``draw(rng, size)`` returns the random inputs of ``size`` proposals as
    rows of two values, and ``proposals(rows)`` maps rows of them to
    proposal points (rows of two values) and their proposal density.  The
    dominating constant ``bound`` (:func:`_envelope_bound`) is re-checked at
    every proposal: a proposal above it aborts, since clipping would
    silently bias the sampler.  Every chunk is ``SLICE_BUDGETS["proposals"]``
    proposals: their inputs, then their uniforms ``u``, are drawn whole, and
    the proposal map, the target, the envelope check and the acceptance run
    on the whole chunk.  No chunk's size depends on ``n``, so these points
    are the first ``n`` of any longer run on the same stream.  Yields each
    chunk's accepted points, cut to the points still missing, as rows with
    ``{}``, skipping a chunk that accepts none; the last chunk's points come
    with ``{"acceptance", "proposals"}``, the acceptance being accepted /
    proposed over every chunk drawn.  Memory does not grow with ``n``.
    """
    size = SLICE_BUDGETS["proposals"]
    filled = accepted = proposed = 0
    while filled < n:
        rows = draw(rng, size)
        u = rng.random(size)
        pts, ceiling = proposals(rows)
        density = target(pts)
        ceiling *= bound
        if np.any(density > ceiling * (1.0 + 1e-9)):
            worst = int(np.argmax(density - ceiling))
            raise RuntimeError(
                f"rejection envelope violated at {pts[worst]}: density "
                f"{density[worst]:.3e} > envelope {ceiling[worst]:.3e}"
            )
        hits = pts[u * ceiling < density]
        proposed += size
        accepted += len(hits)
        take = hits[: n - filled]
        filled += len(take)
        if filled == n:
            yield take, {"acceptance": accepted / proposed, "proposals": proposed}
        elif len(take):
            yield take, {}


def _envelope_bound(target, proposals, a: np.ndarray, b: np.ndarray) -> float:
    """``_ENVELOPE_MARGIN`` times the largest ``target / proposal`` on the probe grid.

    The probe is the a-major ``a x b`` grid of proposal inputs, row ``k``
    that of ``np.meshgrid(a, b, indexing="ij")``, which ``proposals`` maps
    to points and their proposal density.  Each ``"proposals"`` slice of the
    grid is formed, evaluated and reduced to its largest ratio in one pass,
    so no array holds the whole probe; a max, so the bound has the bits of
    the whole grid's.
    """
    largest = -np.inf
    for sl in value_slices(a.size * b.size, 1, SLICE_BUDGETS["proposals"]):
        k = np.arange(sl.start, sl.stop)
        points, density = proposals(np.stack([a[k // b.size], b[k % b.size]], axis=-1))
        largest = np.maximum(largest, np.max(target(points) / np.maximum(density, 1e-300)))
    return _ENVELOPE_MARGIN * float(largest)


def _t_draws(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """``size`` rows of the standard ``dim``-dimensional Student t.

    ``nu = _PROPOSAL_DOF`` degrees of freedom: ``normal / sqrt(chisquare(nu) / nu)``,
    one chi-square per row, divided in place.
    """
    z = rng.standard_normal((size, dim))
    scale = rng.chisquare(_PROPOSAL_DOF, (size, 1))
    scale /= _PROPOSAL_DOF
    z /= np.sqrt(scale, out=scale)
    return z


def _t_density(z: np.ndarray, scale) -> np.ndarray:
    """Density of the point ``loc + A z`` under the proposal, ``scale = |det A|``.

    ``c (1 + |z|^2 / nu)^(-(nu + d) / 2) / scale`` for the rows ``z`` of
    dimension ``d``, ``c = Gamma((nu + d) / 2) / (Gamma(nu / 2) (nu pi)^(d / 2))``.
    """
    nu, d = _PROPOSAL_DOF, z.shape[-1]
    c = math.exp(math.lgamma(0.5 * (nu + d)) - math.lgamma(0.5 * nu))
    c /= (nu * math.pi) ** (0.5 * d)
    return c * (1.0 + np.sum(z * z, axis=-1) / nu) ** (-0.5 * (nu + d)) / scale


def _moments(lam: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the single-mode state ``sum_k lam_k u_k u_k^H``.

    Uses the ladder-operator sums over the diagonals ``rho[n + k, n] =
    (u[n + k] * conj(u[n])) @ lam``, ``k = 0, 1, 2``.  The covariance
    follows the anticommutator convention in which the vacuum has V = I.
    """
    diag = [(u[k:] * u[: len(u) - k].conj()) @ lam for k in range(3)]
    n = np.arange(len(u))
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


def _homodyne_proposals(factors):
    """Map rows ``(theta, z) -> (points, density)`` of the homodyne proposal.

    ``q = mean + std z`` with the state's rotated-quadrature mean and std at
    each angle, the variance floored at the vacuum's; ``z`` is a draw of
    :func:`_t_draws` with ``dim = 1``.  The uniform angle density cancels.
    """
    t_fit, v_fit = _moments(*factors)

    def proposals(rows):
        theta, z = rows[:, 0], rows[:, 1:]
        c, s = np.cos(theta), np.sin(theta)
        var = c * c * v_fit[0, 0] - 2.0 * c * s * v_fit[0, 1] + s * s * v_fit[1, 1]
        std = np.sqrt(0.5 * np.maximum(var, 1.0))
        mean = c * t_fit[0] - s * t_fit[1]
        return np.stack([theta, mean + std * z[:, 0]], axis=-1), _t_density(z, std)

    return proposals


def _heterodyne_proposals(factors):
    """Map rows ``z -> (points, density)`` of the heterodyne proposal.

    ``x = t + L z`` with ``L L^T = (V + I)/2`` from the state's moments;
    ``z`` holds rows of :func:`_t_draws` with ``dim = 2``.
    """
    t_fit, v_fit = _moments(*factors)
    chol = np.linalg.cholesky(0.5 * (v_fit + np.eye(2)))
    det = float(np.prod(np.diag(chol)))

    def proposals(z):
        return t_fit + z @ chol.T, _t_density(z, det)

    return proposals


def _rejection_rows(
    factors, protocol: str, n: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, dict]]:
    """Draw rows for ``n`` rounds of ``protocol`` on the single-mode state ``factors``.

    Homodyne rows are ``(theta, q)``: ``theta`` uniform, then ``q`` from
    :func:`_homodyne_proposals`, probed on a 129 x 513 grid of angles and
    ``z``.  Heterodyne rows are ``(x, p)`` from :func:`_heterodyne_proposals`,
    probed on a 201 x 201 grid of ``z`` (either probe by :func:`_envelope_bound`).
    Either proposal is a Student t located and scaled by the state's moments;
    the rows come chunk by chunk, as :func:`_rejection_draws` yields them.
    """
    if protocol == HOMODYNE:
        proposals = _homodyne_proposals(factors)

        def draw(rng, size):  # rows (theta, z)
            rows = np.empty((size, 2))
            rows[:, 0] = rng.uniform(-np.pi, np.pi, size)
            rows[:, 1:] = _t_draws(rng, size, 1)
            return rows

        def target(pts):
            return _homodyne_density(factors, pts[:, 0], pts[:, 1])

        probe = np.linspace(-np.pi, np.pi, 129), np.linspace(-6.0, 6.0, 513)
    else:
        proposals = _heterodyne_proposals(factors)

        def draw(rng, size):  # rows z
            return _t_draws(rng, size, 2)

        def target(pts):
            return fock_husimi(factors, pts)

        probe = (np.linspace(-6.0, 6.0, 201),) * 2
    bound = _envelope_bound(target, proposals, *probe)
    return _rejection_draws(target, proposals, draw, bound, n, rng)


def sample_homodyne_batch(state, n: int, seed_path: str) -> SampleBatch:
    """Draw ``n`` randomized homodyne rounds as a deterministic batch.

    Gaussian states are sampled exactly, all modes jointly: a phase-space
    point from the Wigner density ``N(t, V/2)`` (the state's
    ``phase_space_draws``), then ``q_j = cos(theta_j) x_j - sin(theta_j)
    p_j``.  Cat states and truncated Fock matrices use exact rejection
    sampling of :func:`_homodyne_density`; ``meta`` then holds its acceptance
    and proposal count.  The rounds are those of :func:`sample_blocks`.
    """
    return _whole_batch(sample_blocks(state, HOMODYNE, n, seed_path), n)


def sample_heterodyne_batch(state, n: int, seed_path: str) -> SampleBatch:
    """Draw ``n`` heterodyne rounds as a deterministic batch.

    Gaussian states are sampled exactly from ``N(t, (V+I)/2)`` (the state's
    ``phase_space_draws``); cat states and truncated Fock matrices use exact
    rejection sampling with a Student-t envelope, and ``meta`` then holds its
    acceptance and proposal count.  The rounds are those of
    :func:`sample_blocks`.
    """
    return _whole_batch(sample_blocks(state, HETERODYNE, n, seed_path), n)


def sample_blocks(state, protocol: str, n: int, seed_path: str) -> Iterator[SampleBatch]:
    """``n`` rounds of ``protocol`` on ``state``, as consecutive batches of one stream.

    A Gaussian state yields one batch per row block of its
    ``phase_space_draws``, so no batch holds more than one slice budget.
    Homodyne angles are the stream's first ``n m`` uniforms (one 64-bit draw
    each) and the normals follow them, so they come from a copy of the
    generator moved on by ``n m`` draws.  A cat state or truncated Fock
    matrix is drawn by rejection and yields one batch per 4096-proposal
    chunk that accepts a point, its rows those of :func:`_rejection_rows`,
    so its ``n`` rounds are the first ``n`` of any longer batch on the same
    ``seed_path``; the last batch's ``meta`` holds the acceptance and
    proposal count.  However the blocks fall, the rounds are the same bits,
    and a caller that drops each batch before asking for the next holds one
    block at a time.
    """
    rng = stream_rng(seed_path)
    if not hasattr(state, "phase_space_draws"):
        for pts, meta in _rejection_rows(_sampling_factors(state), protocol, n, rng):
            yield SampleBatch(protocol, pts[:, None, :], seed_path=seed_path, meta=meta)
            del pts  # before the next chunk is drawn
        return
    m = state.modes
    if protocol != HOMODYNE:
        for x in state.phase_space_draws(1.0, n, rng):
            # rows [x | p] viewed as (rows, m, 2), not copied
            rows = x.reshape(len(x), 2, m).transpose(0, 2, 1)
            yield SampleBatch(protocol, rows, seed_path=seed_path)
            del x, rows  # before the next block is drawn
        return
    normals = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(n * m))
    for x in state.phase_space_draws(0.0, n, normals):
        thetas = rng.uniform(-np.pi, np.pi, size=(len(x), m))
        qs = np.cos(thetas) * x[:, :m] - np.sin(thetas) * x[:, m:]
        yield SampleBatch(HOMODYNE, np.stack([thetas, qs], axis=-1), seed_path=seed_path)
        del x, thetas, qs  # before the next block is drawn


def _whole_batch(blocks: Iterator[SampleBatch], n: int) -> SampleBatch:
    """The ``n`` rounds of ``blocks`` as one batch, each block dropped before the next is drawn."""
    block = next(blocks, None)
    if block is None:  # no block is drawn for n = 0
        raise ValueError("a batch needs at least one round")
    outcomes, start = np.empty((n,) + block.outcomes.shape[1:]), 0
    while block is not None:
        outcomes[start : start + block.n] = block.outcomes
        start += block.n
        protocol, seed_path, meta = block.protocol, block.seed_path, block.meta
        del block  # before the next block is drawn
        block = next(blocks, None)
    return SampleBatch(protocol, outcomes, seed_path=seed_path, meta=meta)
