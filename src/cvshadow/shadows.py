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
cosine transform), so entry ``(k + d, k)`` is ``phase_d(angle) *
profile_{d,k}(r)``: homodyne ``r = |q|`` with the pattern function of homodyne
tomography, heterodyne ``r = |x|`` with a windowed Bessel transform.

The batch path reads profiles from one table per (protocol, M, window): value
and r-derivative at nodes ``j * step`` (``PROFILE_STEPS``), computed in blocks
of 512 nodes with fixed array shapes and stored node-major, and cubic Hermite
interpolation between the two nodes that bracket r.  Both protocols' nodes
are cosine/sine transforms on a fixed Gauss-Legendre rule in t (found by
Newton's method, :func:`_gauss_legendre`), each block one matrix product by
angle addition against the in-block offsets (:meth:`_ProfileTable.cover`).
Homodyne rows are the pattern functions' integrands on a 600-node rule;
heterodyne rows are the Radon projections of the windowed dyads, on a rule
split at the window's inner radius eta (:func:`_heterodyne_rule`), so no
Bessel function is evaluated.  The table grows by whole blocks up to
``PROFILE_MAX_RADIUS``, and a round's entries depend on that round alone.
The phases ``c_d z^d`` of a round come from one complex ``z`` by repeated
multiplication.  The exact target ``P~_M(rho)`` pairs in polar coordinates on
the heterodyne radial rule, one FFT over angles per radius
(:func:`project_PM_tilde`).
"""

from __future__ import annotations

import json
import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .measurement import HETERODYNE, HOMODYNE, SampleBatch, _one_blas_thread
from .phase_space import dyad_poly, fock_dyad_radial
from .states import SLICE_BUDGETS, FockMatrix, _check_modes, multi_indices, value_slices

# Normalization of the homodyne per-mode entry relative to `int dy |y| ...`,
# fixed by the unbiasedness oracle; `bounds.sigma_homodyne` reads it, so the
# bound and the estimator share one constant.
HOMODYNE_SHADOW_NORMALIZATION = 0.5


@dataclass(frozen=True)
class WindowSpec:
    """Radial cutoff ``xi_{eta,R}``: 1 inside ``eta``, 0 outside ``R``.

    The transition is a quintic smoothstep in the radius (C^2); the truncation
    bounds only use ``0 <= xi <= 1`` and the support property.
    """

    eta: float
    radius: float

    def __post_init__(self):
        if not 0 < self.eta < self.radius:
            raise ValueError(f"need 0 < eta < R, got eta={self.eta}, R={self.radius}")

    def xi_radial(self, rho):
        """Window profile as a function of the radius |z|."""
        rho = np.asarray(rho, dtype=float)
        t = np.clip((self.radius - rho) / (self.radius - self.eta), 0.0, 1.0)
        out = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        return out if np.ndim(out) else float(out)


def default_window(truncation: int) -> WindowSpec:
    """Default window (eta, R) = (max(6, sqrt(2) M + 1), eta + 2).

    Satisfies the precondition ``eta^2 >= 2 M^2`` of the truncation bounds.
    """
    eta = max(6.0, math.sqrt(2.0) * truncation + 1.0)
    return WindowSpec(eta, eta + 2.0)


# ---------------------------------------------------------------------------
# profile tables and batch entries
# ---------------------------------------------------------------------------

# Node spacing per protocol (powers of two, so r / step is exact), nodes per
# block, and the largest outcome radius a table grows to.  Cubic Hermite
# interpolation errs by O(step^4) times the fourth r-derivative.  The
# heterodyne profiles are transforms of projections supported on t <= R, so
# they oscillate at frequencies up to the window radius R: at step 1/512 the
# M = 3 table is 2.5e-7 from its rule (profile scale 9.5e3); step 1/2048
# brings that to about 1e-9.  Homodyne profiles decay like exp(-t^2/4) in the
# conjugate variable and are within 1e-10 at 1/512.
PROFILE_STEPS = {HOMODYNE: 1.0 / 512, HETERODYNE: 1.0 / 2048}
_BLOCK_NODES = 512
PROFILE_MAX_RADIUS = 64.0
_CHUNK_ROUNDS = 1024  # most rounds per "rounds" slice (D <= 8): the averages' bits follow D, not N

_PROFILE_TABLES: dict = {}


def _dyads(truncation: int) -> list[tuple[int, int]]:
    """Table rows: the lower-triangle entries (k + d, k), d-major."""
    return [(d, k) for d in range(truncation + 1) for k in range(truncation + 1 - d)]


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` for ``|x| < 1`` by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, n):
        nxt = x * cur
        nxt *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        nxt -= prev
        prev, cur = cur, nxt
    return cur, n * (prev - x * cur) / (1.0 - x * x)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], for even ``n``.

    Newton's method on ``P_n`` from Tricomi's asymptotic nodes
    ``(1 - (n - 1) / (8 n^3)) cos(pi (4k - 1) / (4n + 2))``, until a step
    moves no node by 1e-11 (three steps at n = 600); the weights are
    ``2 / ((1 - x^2) P_n'(x)^2)``.  The positive half is computed and
    mirrored, so the rule is exactly symmetric.  It costs O(n^2)
    single-threaded flops, where ``numpy.polynomial.legendre.leggauss``
    solves a dense n x n eigenproblem in threaded LAPACK.  An odd ``n``, whose
    rule has a node at 0 that the mirror lacks, raises ``ValueError``.
    """
    if n < 2 or n % 2:
        raise ValueError(f"Gauss-Legendre rule needs an even node count >= 2, got {n}")
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(10):
        p, dp = _legendre_and_slope(n, x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() < 1e-11:
            break
    _, dp = _legendre_and_slope(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _homodyne_rows(truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rows of the homodyne pattern functions, from a fixed 600-node rule.

    ``profile_{d,k}(r) = coeff int t radial(t) osc_d(t r) dt`` with cos for
    even and sin for odd d.
    """
    upper = 16.0 + 2.0 * np.sqrt(truncation + 1.0)
    x, wts = _gauss_legendre(600)
    t = 0.5 * upper * (x + 1.0)
    wt = 0.5 * upper * wts
    rows = []
    for d, k in _dyads(truncation):
        coeff, _, radial = fock_dyad_radial(k, k + d)
        rows.append(coeff * wt * t * radial(t))
    return t, np.array(rows)


# Gauss-Legendre t-nodes per unit length of the heterodyne projection rule,
# and the fewest on either side of eta (160 on [0, 6] and 60 on [6, 8] for
# the default window at M <= 3), each count rounded up to even.  n nodes on
# length L integrate cos(s t) accurately while s L < 2 n with a margin, so the
# density covers every s up to PROFILE_MAX_RADIUS as eta grows with M.  Each
# projection P_d(t) takes _HET_V_NODES in v on either side of eta.
_HET_NODES_PER_RHO = 80.0 / 3.0
_HET_MIN_NODES = 60
_HET_V_NODES = 40


def _heterodyne_rule(w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, R], split at eta, whose weights carry a factor 1/pi.

    The heterodyne table's t-rule and :func:`project_PM_tilde`'s radial rule.
    """
    t, wt = [], []
    for lo, hi in ((0.0, w.eta), (w.eta, w.radius)):
        n = max(_HET_MIN_NODES, math.ceil(_HET_NODES_PER_RHO * (hi - lo)))
        x, wx = _gauss_legendre(n + n % 2)
        t.append(lo + 0.5 * (hi - lo) * (x + 1.0))
        wt.append(0.5 * (hi - lo) / math.pi * wx)
    return np.concatenate(t), np.concatenate(wt)


def _heterodyne_rows(truncation: int, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rows of the windowed Bessel transforms, from their Radon projections.

    ``profile_{d,k}(s) = coeff int rho g(rho) J_d(rho s) d rho`` with ``g =
    dyad_poly(k, d, .) xi``.  By Cormack's projection theorem (J. Appl.
    Phys. 34, 2722 (1963)) it equals ``((-1)^floor(d/2) / pi) int_0^R P_d(t)
    osc_d(s t) dt``, cos for even and sin for odd d, with the projection
    ``P_d(t) = 2 int_0^sqrt(R^2 - t^2) g(rho) T_d(t / rho) dv`` at ``rho =
    sqrt(t^2 + v^2)`` and ``T_d(t / rho) = cos(d atan2(v, t))``.  The t-rule
    is :func:`_heterodyne_rule`, split at eta, and so is each v-rule, at
    ``sqrt(eta^2 - t^2)``.
    """
    t, wt = _heterodyne_rule(w)
    x, wx = _gauss_legendre(_HET_V_NODES)
    x, wx = 0.5 * (x + 1.0), 0.5 * wx
    inner = np.sqrt(np.maximum(w.eta * w.eta - t * t, 0.0))[:, None]
    length = np.sqrt(w.radius * w.radius - t * t)[:, None] - inner
    v = np.concatenate([inner * x, inner + length * x], axis=1)
    rho = np.hypot(t[:, None], v)
    angle = np.arctan2(v, t[:, None])
    wv = np.concatenate([inner * wx, length * wx], axis=1) * (2.0 * w.xi_radial(rho))
    rows = []
    for d, k in _dyads(truncation):
        coeff, _, _ = fock_dyad_radial(k, k + d)
        proj = np.sum(wv * dyad_poly(k, d, rho) * np.cos(d * angle), axis=1)
        rows.append((-1.0) ** (d // 2) * coeff * wt * proj)
    return t, np.array(rows)


class _ProfileTable:
    """Values and r-derivatives of every profile_{d,k} at r_j = j * step.

    Row ``i`` holds the weights ``w_i(t)`` of ``sum_t w_i(t) osc_i(t r)``,
    sin for the ``odd`` rows and cos otherwise; the r-derivative has one more
    factor t.  Stored node-major, (nodes, rows), so one radius reads whole rows.
    """

    def __init__(self, t: np.ndarray, rows: np.ndarray, odd: np.ndarray, step: float):
        self._t = t
        # every value and slope is the real part of its sum over t of w
        # exp(i t r): a sin row's value is Im, its weights turned by -i, and
        # a cos row's slope is -Im, its weights turned by +i
        turn = np.where(odd, -1j, 1.0)[:, None]
        self._weights = np.concatenate([rows * turn, rows * t * (1j * turn)])
        self.step = step
        self.values = self.slopes = np.empty((0, len(rows)))

    def cover(self, r_max: float) -> None:
        """Grow by whole blocks until nodes bracket ``r_max``.

        By angle addition, ``exp(i t (b + j step)) = exp(i t b) exp(i t j
        step)`` at block start ``b``.  The second factor is evaluated once
        per growth, one ``"turns"`` slice of offsets ``j`` at a time
        (:func:`~cvshadow.states.value_slices`): the slice's phases ``t j
        step`` are written into the imaginary part of one complex buffer,
        which every slice reuses, and their cosines and sines taken in
        place, so no float array of phases sits beside it.  The first
        factor, one row of t-values per block, is evaluated once per growth
        too.  Each block's weights are shifted by it into one buffer, for
        that block alone, and each (slice, block) pair is one matrix
        product, written straight into the grown table.  That
        table replaces the cached one only once it is full, so a failure
        leaves the table as it was.  ``j * step`` and ``b + j * step`` are
        exact, since ``step`` is a power of two.  Raises ``ValueError`` above
        ``PROFILE_MAX_RADIUS``, before building any block.
        """
        if r_max > PROFILE_MAX_RADIUS:
            raise ValueError(
                f"outcome radius {r_max:.6g} exceeds the profile-table limit "
                f"{PROFILE_MAX_RADIUS}"
            )
        have = self.values.shape[0]
        starts = np.arange(have, int(r_max / self.step) + 2, _BLOCK_NODES)
        if not starts.size:
            return
        rows = self.values.shape[1]
        values = np.empty((have + starts.size * _BLOCK_NODES, rows))
        slopes = np.empty_like(values)
        values[:have], slopes[:have] = self.values, self.slopes
        shifts = np.exp(1j * np.multiply.outer(self.step * starts, self._t))
        subs = value_slices(_BLOCK_NODES, self._t.size, SLICE_BUDGETS["turns"], align=16)
        buffer = np.empty((subs[0].stop, self._t.size), dtype=complex)
        shifted = np.empty_like(self._weights)
        for sub in subs:
            turns = buffer[: sub.stop - sub.start]
            np.multiply.outer(self.step * np.arange(sub.start, sub.stop), self._t, out=turns.imag)
            np.cos(turns.imag, out=turns.real)
            np.sin(turns.imag, out=turns.imag)
            with _one_blas_thread():
                for b, shift in zip(starts, shifts):
                    # sums over t of w exp(i t r) and w t exp(i t r) at the sub-block's nodes r
                    sums = turns @ np.multiply(self._weights, shift, out=shifted).T
                    nodes = slice(b + sub.start, b + sub.stop)
                    values[nodes], slopes[nodes] = sums.real[:, :rows], sums.real[:, rows:]
        self.values, self.slopes = values, slopes

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolation of every profile at radii ``r``: (rows, N).

        The result is the transpose of an (N, rows) array.  The caller covers
        the radii first (:meth:`cover`); a radius whose bracketing nodes are
        not built raises ``ValueError``, it is never clipped.
        """
        pos = r / self.step
        i = pos.astype(np.int64)
        u = (pos - i)[:, None]
        one_u = 1.0 - u
        v, s = self.values, self.slopes
        try:
            upper = v.take(i + 1, axis=0)  # the nodes above r, and so every node read
        except IndexError:
            raise ValueError(
                f"a radius lies beyond the {len(v)} table nodes built; cover it first"
            ) from None
        out = v.take(i, axis=0) * ((1.0 + 2.0 * u) * one_u * one_u)
        out += upper * (u * u * (3.0 - 2.0 * u))
        out += (one_u * s.take(i, axis=0) - u * s.take(i + 1, axis=0)) * (
            self.step * u * one_u
        )
        return out.T


def _profile_table(protocol: str, truncation: int, w: WindowSpec | None):
    key = (protocol, truncation, w)
    if key not in _PROFILE_TABLES:
        if protocol == HOMODYNE:
            t, rows = _homodyne_rows(truncation)
        else:
            t, rows = _heterodyne_rows(truncation, w)
        odd = np.array([d % 2 == 1 for d, _ in _dyads(truncation)])
        _PROFILE_TABLES[key] = _ProfileTable(t, rows, odd, PROFILE_STEPS[protocol])
    return _PROFILE_TABLES[key]


def _radii(protocol: str, outcomes: np.ndarray) -> np.ndarray:
    """Radius of each single-mode row: ``|q|`` of ``(theta, q)``, or ``|x|`` of ``(x, p)``."""
    if protocol == HOMODYNE:
        return np.abs(outcomes[:, 1])
    return np.hypot(outcomes[:, 0], outcomes[:, 1])


def _mode_entries(
    protocol: str, outcomes: np.ndarray, truncation: int, table: _ProfileTable
) -> np.ndarray:
    """Shadow matrices of K single-mode outcomes, shape (K, M+1, M+1).

    ``outcomes`` holds K rows, homodyne ``(theta, q)`` or heterodyne ``(x,
    p)``.  Entry ``(k + d, k)`` is ``c_d z^d profile_{d,k}(r)`` and entry
    ``(k, k + d)`` its conjugate, with one complex ``z`` per outcome:
    homodyne ``z = sign(q) exp(i beta)``, ``beta = pi/2 - theta`` and ``c_d =
    2 norm (-i)^(d mod 2)``; heterodyne ``z = exp(-i psi)``, ``psi = atan2(x,
    p)`` and ``c_d = i^d``.
    """
    dim = truncation + 1
    if protocol == HOMODYNE:
        sign = np.where(outcomes[:, 1] < 0, -1.0, 1.0)
        z = sign * np.exp(1j * (0.5 * np.pi - outcomes[:, 0]))
        scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION
        coeffs = [scale * (-1j if d % 2 else 1.0) for d in range(dim)]
    else:
        z = np.exp(-1j * np.arctan2(outcomes[:, 0], outcomes[:, 1]))
        coeffs = [1j**d for d in range(dim)]
    phases, power = [], np.ones_like(z)
    for d in range(dim):
        phases.append(coeffs[d] * power)
        power = power * z
    profiles = table(_radii(protocol, outcomes))
    out = np.empty((z.size, dim, dim), dtype=complex)
    for row, (d, k) in enumerate(_dyads(truncation)):
        np.multiply(phases[d], profiles[row], out=out[:, k + d, k])
        if d:
            np.conjugate(out[:, k + d, k], out=out[:, k, k + d])
    return out


def shadow_batch_entries(
    batch: SampleBatch, subset, truncation: int, w: WindowSpec | None = None
) -> Iterator[np.ndarray]:
    """Hermitian shadow matrices of a batch's rounds, one chunk of rounds at a time.

    Returns an iterator over arrays of shape ``(n, dim, dim)`` with ``dim =
    (M+1)^len(subset)``, one per ``"rounds"`` slice of the batch
    (:func:`~cvshadow.states.value_slices`): at most 1024 rounds and 2^16
    matrix entries, so no array is sized by N or grows with dim beyond one
    round's matrix.  The profile table is grown once, to the largest
    outcome radius found over the same slices, so that scan holds no
    N-sized array either.  Per-mode matrices are tensored in the order of
    ``subset``.  A chunk's outcomes on the subset take one
    :func:`_mode_entries` call, and each round's matrices fold into their
    Kronecker product.  Each row depends only on its own round, so any
    split of the batch into chunks gives the same bits.  Each per-mode
    matrix is filled with entry ``(k, k + d)`` the conjugate of ``(k + d,
    k)``, so it and every Kronecker product of such matrices is exactly
    Hermitian.  A subset naming a mode the batch did not measure, or an
    outcome radius above ``PROFILE_MAX_RADIUS`` anywhere in the batch,
    raises ``ValueError`` at the call, before any entry is built.
    Heterodyne batches use ``w`` (default window for M).
    """
    subset = tuple(int(j) for j in np.atleast_1d(subset))
    _check_modes(subset, batch.modes, "subset")
    protocol, cols, r, dim = batch.protocol, list(subset), len(subset), truncation + 1
    w = (w or default_window(truncation)) if protocol == HETERODYNE else None
    table = _profile_table(protocol, truncation, w)
    cuts = value_slices(batch.n, dim ** (2 * r), SLICE_BUDGETS["rounds"], cap=_CHUNK_ROUNDS)
    outcomes = batch.outcomes
    radii = (_radii(protocol, outcomes[c, j]).max() for c in cuts for j in cols)
    table.cover(max(radii, default=0.0))

    def chunk(rounds: slice) -> np.ndarray:
        flat = outcomes[rounds, cols].reshape(-1, 2)
        blocks = _mode_entries(protocol, flat, truncation, table)
        blocks = blocks.reshape(-1, r, dim, dim)
        n, mats = len(blocks), blocks[:, 0]
        for i in range(1, r):
            mats = np.einsum("nij,nkl->nikjl", mats, blocks[:, i]).reshape(
                n, mats.shape[1] * dim, -1
            )
        return mats

    return map(chunk, cuts)


_AVERAGE_ARRAYS = ("entries_re", "entries_im", "stderr")


@dataclass
class ShadowAverage:
    """Empirical average of shadow matrices with entrywise standard errors."""

    subset: tuple[int, ...]
    truncation: int
    protocol: str
    mean: np.ndarray
    stderr: np.ndarray
    count: int

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
        payload["checksum"] = json_sha256(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "ShadowAverage":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: not a shadow-average file ({exc})") from None
        stored = payload.pop("checksum", None) if isinstance(payload, dict) else None
        if stored != json_sha256(payload):
            raise ValueError(f"integrity check failed for shadow-average file {path}")
        missing = sorted({"M", "A", "protocol", "count", *_AVERAGE_ARRAYS} - payload.keys())
        if missing:
            raise ValueError(f"{path}: a shadow-average file needs the keys {missing}")
        m, subset = payload["M"], payload["A"]
        if type(m) is not int or m < 0 or type(subset) is not list:
            raise ValueError(f"{path}: M must be an integer >= 0 and A a list of modes")
        modes = subset and all(type(j) is int and j >= 0 for j in subset)  # a bool is no mode
        if not modes or len(set(subset)) < len(subset):
            raise ValueError(f"{path}: A must be a non-empty list of distinct integers >= 0")
        dim = (m + 1) ** len(subset)
        try:
            re, im, stderr = (np.asarray(payload[key], dtype=float) for key in _AVERAGE_ARRAYS)
        except (ValueError, TypeError):
            raise ValueError(
                f"{path}: entries_re, entries_im and stderr must be lists of numbers"
            ) from None
        if not re.shape == im.shape == stderr.shape == (dim * dim,):
            raise ValueError(
                f"{path}: entries_re, entries_im and stderr must each hold "
                f"((M+1)^|A|)^2 = {dim * dim} values"
            )
        return cls(
            subset=tuple(subset),
            truncation=m,
            protocol=payload["protocol"],
            mean=(re + 1j * im).reshape(dim, dim),
            stderr=stderr.reshape(dim, dim),
            count=payload["count"],
        )


def json_sha256(payload: dict) -> str:
    """SHA-256 of canonical JSON: sorted keys, no whitespace."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def average_entries(chunks, subset, truncation: int, protocol: str) -> ShadowAverage:
    """Mean and standard errors of shadow matrices, in one pass over chunks of rounds.

    ``chunks`` yields (n, dim, dim) arrays in round order, as
    :func:`shadow_batch_entries` returns them; an (N, dim, dim) array is read
    in the same ``"rounds"`` slices (at most 1024 rounds and 2^16 matrix
    entries, so 0.25 MB at D = 4).  Each chunk's sum and squared
    deviations merge into the running ones by the pairwise update of Chan,
    Golub & LeVeque (1979).  The deviations are written into one buffer,
    held across chunks, and squared in place; each chunk is dropped before
    the next is built.  So no temporary is larger than one chunk, no
    chunk-sized one is allocated per chunk, and the same rows in the same
    chunks give the same bits at any N.
    """
    if isinstance(chunks, np.ndarray):
        dim = chunks.shape[-1]
        cuts = value_slices(len(chunks), dim * dim, SLICE_BUDGETS["rounds"], cap=_CHUNK_ROUNDS)
        chunks = [chunks[rounds] for rounds in cuts]
    n, total, squares, buf = 0, 0.0, 0.0, None
    for rows in chunks:
        k = len(rows)
        chunk_sum = rows.sum(axis=0)
        if buf is None or len(buf) < k:
            buf = np.empty(rows.shape, dtype=complex)
        dev = np.subtract(rows, chunk_sum / k, out=buf[:k])
        del rows  # before the next chunk is built
        sq = np.square(dev.real, out=dev.real)
        sq += np.square(dev.imag, out=dev.imag)
        squares = squares + sq.sum(axis=0)
        if n:  # the shift between the two means, weighted n k / (n + k)
            shift = chunk_sum / k - total / n
            squares += (shift.real**2 + shift.imag**2) * (n * k / (n + k))
        total = total + chunk_sum
        n += k
    if n == 0:
        raise ValueError("cannot average an empty list of shadows")
    mean = total / n
    stderr = np.sqrt(squares / (n - 1) / n) if n > 1 else np.zeros_like(mean, dtype=float)
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


# Equispaced angles per radius of the P~_M pairing (K = 64 left 1.3e-4 at M = 6).
_PM_TILDE_ANGLES = 256


def project_PM_tilde(state, truncation: int, w: WindowSpec | None = None) -> FockMatrix:
    """Window-smoothed projection ``P~_M(rho)`` of an exact single-mode state.

    Entry ``(n1, n2)``, ``n1 <= n2``, is the pairing ``int conj(chi_{|n1><n2|})
    xi chi_rho d^2u / (2 pi)``; with ``chi_{|n1><n2|} = coeff radial(rho)
    exp(i d phi)``, ``d = n2 - n1``, its angular integral is Fourier
    coefficient d of ``chi_rho`` on a circle.  Radii are
    :func:`_heterodyne_rule`'s, and one FFT over ``_PM_TILDE_ANGLES`` = 256
    angles per radius gives every d; ``chi_rho`` and the FFT run on the
    ``"rings"`` slices of radii (:func:`~cvshadow.states.value_slices`), so
    only the (radii, d) coefficients are held for the whole rule.  Against 3x
    the radial nodes and 2048 angles no entry moved by more than 3.9e-15 (M
    <= 31; coherent alpha up to 8, cats up to 5, squeezing e^{+-2}).
    Entries with n1 > n2 are the conjugates, and the diagonal keeps only its
    real part, so the result is exactly Hermitian.  Multimode states raise
    ``ValueError`` (product states follow by tensoring), and so does ``M >=
    128``, whose d the angles would alias.
    """
    w = w or default_window(truncation)
    if getattr(state, "modes", 1) != 1:
        raise ValueError("project_PM_tilde supports single-mode states")
    if 2 * truncation >= _PM_TILDE_ANGLES:
        raise ValueError(f"truncation {truncation} needs more than {_PM_TILDE_ANGLES} angles")
    rho, wt = _heterodyne_rule(w)
    phi = 2.0 * np.pi / _PM_TILDE_ANGLES * np.arange(_PM_TILDE_ANGLES)
    circle = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    weight = np.pi * wt * rho * w.xi_radial(rho) / _PM_TILDE_ANGLES
    dim = truncation + 1
    coeffs = np.empty((rho.size, dim), dtype=complex)
    for radii in value_slices(rho.size, _PM_TILDE_ANGLES, SLICE_BUDGETS["rings"]):
        coeffs[radii] = np.fft.fft(state.char(rho[radii, None, None] * circle), axis=1)[:, :dim]
    coeffs *= weight[:, None]
    mat = np.empty((dim, dim), dtype=complex)
    for n1 in range(dim):
        for n2 in range(n1, dim):
            coeff, d, radial = fock_dyad_radial(n1, n2)
            mat[n1, n2] = coeff * (radial(rho) @ coeffs[:, d])
            mat[n2, n1] = np.conj(mat[n1, n2])
        mat[n1, n1] = mat[n1, n1].real
    return FockMatrix(1, truncation, mat)
