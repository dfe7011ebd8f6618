"""Analytic truncation, concentration, and sample-size bounds.

Everything here is pure arithmetic on the bound formulas: the double
truncation error ``delta_0``, Sobolev-weighted trace norms, the almost-sure
shadow norms ``Sigma`` (homodyne) and ``Sigma~`` (heterodyne), and the
sample-size calculators that the matrix Bernstein inequality gives for both
protocols.
Quantities that explode combinatorially (``3^{mM}``, ``(M+1)^{2r}``) are
composed in the log domain and only exponentiated at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phase_space import dyad_poly, fock_dyad_radial
from .shadows import HOMODYNE_SHADOW_NORMALIZATION, WindowSpec, _gauss_legendre
from .states import multi_indices


@dataclass(frozen=True)
class MomentProfile:
    """Moment data of the unknown state entering the sample-size bounds.

    ``e_n = max_{|A|<=r} tr(rho_A H_r^n)`` and similarly ``e_alpha`` for the
    target norm order; both are >= 1 since ``H = I + N >= I``.
    """

    n: float
    alpha: float
    e_n: float
    e_alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < self.n:
            raise ValueError(f"need 0 <= alpha < n, got alpha={self.alpha}, n={self.n}")
        if self.e_n < 1.0 or self.e_alpha < 1.0:
            raise ValueError("moment bounds must be >= 1 (H >= I)")


@dataclass
class BoundReport:
    """Outcome of a sample-size calculation; ``reason`` says why one is infeasible."""

    m_chosen: int
    n_required: float
    delta0_value: float
    sigma_value: float
    inputs: dict = field(default_factory=dict)
    feasible: bool = True
    log10_n_required: float | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        """The report as strict JSON values: ``None`` for every non-finite number."""
        out = {
            "M": self.m_chosen,
            "N": self.n_required,
            "delta0": self.delta0_value,
            "sigma": self.sigma_value,
            "feasible": self.feasible,
            "log10_N": self.log10_n_required,
            "inputs": self.inputs,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return _finite_or_none(out)


def _finite_or_none(value):
    """``value`` with each non-finite float, also inside dicts, replaced by ``None``."""
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _log_tail_sum(eta: float, truncation: int) -> float:
    """log sum_{p=0}^{2M} (eta^2/2)^p / p!, a log-sum-exp shifted by its largest term."""
    if eta == 0.0:
        return 0.0
    log_x = math.log(eta * eta / 2.0)
    terms = [p * log_x - math.lgamma(p + 1.0) for p in range(2 * truncation + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(v - top) for v in terms))


def delta0(eta: float, truncation: int, alpha: float, modes: int) -> float:
    """Double-truncation error bound combining Fock cutoff and windowing.

    ``delta_0 = (mM+1)^(2a) (M+1)^m 3^(mM) e^(-m eta^2/4)
    (sum_{p<=2M} eta^(2p)/(2^p p!))^(m/2)``, evaluated in the log domain.  The
    tail factor equals the regularized incomplete Gamma function
    ``Gamma(2M+1, eta^2/2)/(2M)!``, the tests' reference form.
    """
    if eta < 0 or truncation < 0 or modes < 0:
        raise ValueError("delta0 arguments must be non-negative")
    m, big_m = modes, truncation
    log_val = (
        2.0 * alpha * math.log(m * big_m + 1.0)
        + m * math.log(big_m + 1.0)
        + m * big_m * math.log(3.0)
        - 0.25 * m * eta * eta
        + 0.5 * m * _log_tail_sum(eta, big_m)
    )
    return math.exp(log_val) if log_val < 700 else math.inf


def truncation_error_bound(
    e_n: float, truncation: int, alpha: float, n: float, base_offset: int = 2
) -> float:
    """Fock-truncation bound ``2 (M + 2)^(-(n - alpha)/2) E``.

    ``base_offset=2`` is the proved constant; the looser ``(1 + M)`` variant
    that appears in the summary statement is available via ``base_offset=1``.
    """
    if alpha >= n:
        raise ValueError("need alpha < n")
    if base_offset not in (1, 2):
        raise ValueError("base_offset must be 1 or 2")
    return 2.0 * (truncation + base_offset) ** (-(n - alpha) / 2.0) * e_n


# The largest truncation either calculator takes: at M = 64 the 64-node rule
# of :func:`_sigma_block` agrees with a 128-node rule to 1.3e-11 relative
# (homodyne, checked by a test) and 9.3e-15 (default window).
_TRUNCATION_CAP = 64
# The largest (M+1)^r whose dense Kronecker power :func:`_weighted_opnorm`
# forms: at (M+1)^r = 2025 (M = 44, r = 2) ``sigma_homodyne`` took 1.9 s and
# 130 MB peak RSS on a 2-core host, and the SVD grows as the cube.
_DENSE_LIMIT = 2000


def _refusal(truncation: float, r: int) -> str | None:
    """Why a calculator refuses truncation ``M`` at ``r`` modes, or ``None``."""
    if truncation > _TRUNCATION_CAP:
        return f"M = {truncation} exceeds the truncation cap {_TRUNCATION_CAP}"
    if r * math.log(truncation + 1.0) > math.log(_DENSE_LIMIT):
        return f"(M+1)^r = {truncation + 1}^{r} exceeds the dense limit {_DENSE_LIMIT}"
    return None


def _infeasible(reason: str, **inputs) -> BoundReport:
    """Report of a refused calculation: no M, and N, delta0 and Sigma infinite."""
    return BoundReport(-1, math.inf, math.inf, math.inf, inputs, feasible=False, reason=reason)


def _weighted_opnorm(block: np.ndarray, r: int, truncation: int, alpha: float) -> float:
    """Operator norm of the r-fold tensor power with Sobolev weights."""
    mat = block
    for _ in range(r - 1):
        mat = np.kron(mat, block)
    if alpha:
        w = (1.0 + multi_indices(truncation, r).sum(axis=1)) ** (alpha / 2.0)
        mat = w[:, None] * mat * w[None, :]
    return float(np.linalg.norm(mat, ord=2))


def _laguerre_zeros(n: int, a: float) -> np.ndarray:
    """Zeros of ``L_n^(a)``, ascending, as eigenvalues of its Jacobi matrix.

    The monic recurrence of the generalized Laguerre polynomials gives the
    symmetric tridiagonal matrix with diagonal ``2k + a + 1`` (k < n) and
    off-diagonal ``sqrt(k (k + a))`` (0 < k < n), whose eigenvalues are the
    zeros (Golub & Welsch 1969).
    """
    k = np.arange(1, n)
    jacobi = np.diag(2.0 * np.arange(n) + a + 1.0) + np.diag(np.sqrt(k * (k + a)), -1)
    return np.linalg.eigvalsh(jacobi)


def _sigma_block(truncation: int, kernel, upper: float, joins=()) -> np.ndarray:
    """Per-mode block ``|c| int_0^upper rho kernel(rho) |dyad_poly(lo, d, rho)| d rho``.

    ``c`` and ``d = hi - lo`` are those of :func:`fock_dyad_radial`, so the
    block bounds every shadow whose entry ``(lo, hi)`` is a polar integral
    of ``c dyad_poly(lo, d, rho)`` against a radial weight ``kernel`` (a
    function of radius arrays) times factors of modulus at most one.
    ``[0, upper]`` is split at the kernel's ``joins`` and at ``sqrt(2 x)``
    for the zeros ``x`` of ``L_lo^(d)``, where ``|dyad_poly|`` has kinks;
    each smooth piece is integrated with one fixed 64-node Gauss-Legendre
    rule, all pieces of an entry as one array.  The upper triangle is
    integrated and mirrored.
    """
    x, wts = _gauss_legendre(64)
    dim = truncation + 1
    block = np.zeros((dim, dim))
    for lo in range(dim):
        for hi in range(lo, dim):
            coeff, d, _ = fock_dyad_radial(lo, hi)
            kinks = np.sqrt(2.0 * _laguerre_zeros(lo, d))
            edges = np.unique(np.concatenate([[0.0, upper], kinks[kinks < upper], joins]))
            half = 0.5 * np.diff(edges)[:, None]
            rho = edges[:-1, None] + half * (x + 1.0)
            integrand = rho * kernel(rho) * np.abs(dyad_poly(lo, d, rho))
            block[lo, hi] = block[hi, lo] = abs(coeff) * float(np.sum(half * wts * integrand))
    return block


def sigma_homodyne(truncation: int, r: int, alpha: float) -> float:
    """Almost-sure norm bound ``Sigma_r^(alpha)(M)`` of homodyne shadows.

    Per-mode entries are ``2 norm |c| int_0^40 t e^(-t^2/4) |dyad_poly(lo,
    d, t)| dt`` with ``norm = HOMODYNE_SHADOW_NORMALIZATION``, by
    :func:`_sigma_block`'s fixed rule: by the triangle inequality each
    bounds the modulus of that shadow entry at every angle and outcome,
    normalization included.  ``M = 0`` gives 2.
    """
    scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION

    def kernel(t):
        return scale * np.exp(-0.25 * t * t)

    return _weighted_opnorm(_sigma_block(truncation, kernel, 40.0), r, truncation, alpha)


def sigma_heterodyne(truncation: int, r: int, alpha: float, w: WindowSpec) -> float:
    """Windowed norm bound ``Sigma~_r^(alpha)(M, R)`` of heterodyne shadows.

    Per-mode entries are ``int_{|u|<=R} |chi~_{n2 n1}(u)| e^(|u|^2/4)
    d^2u/(2 pi)``; the dyad Gaussian cancels the growing exponential exactly,
    leaving the windowed radial integral ``|c| int_0^R rho xi(rho)
    |dyad_poly(lo, d, rho)| d rho``, by :func:`_sigma_block`'s fixed rule
    with ``xi``'s join at ``eta``.
    """
    block = _sigma_block(truncation, w.xi_radial, w.radius, (w.eta,))
    return _weighted_opnorm(block, r, truncation, alpha)


def _log_required_n(
    truncation: int,
    r: int,
    log_epsilon: float,
    delta: float,
    sigma: float,
    additive: float,
    modes: int,
    n_obs: int | None,
) -> float:
    """log N of the Bernstein-driven sample size, shared by both protocols.

    ``N = (M+1)^(2r)/(3 eps^2) {24 Sigma^2 + 4 (Sigma + additive) eps}
    log(2 [m (M+1)]^r / delta)`` with ``m^r`` replaced by ``n_obs`` for the
    fixed-observable variant.  The accuracy enters as ``log eps``, so an
    ``eps`` below the smallest float (the entropy plan's ``eps'``) still
    gives a finite log N.
    """
    log_dim = 2.0 * r * math.log(truncation + 1.0)
    brace = 24.0 * sigma * sigma + 4.0 * (sigma + additive) * math.exp(log_epsilon)
    if n_obs is None:
        log_union = math.log(2.0) + r * math.log(modes * (truncation + 1.0)) - math.log(delta)
    else:
        log_union = (
            math.log(2.0)
            + math.log(n_obs)
            + r * math.log(truncation + 1.0)
            - math.log(delta)
        )
    return (
        log_dim
        - math.log(3.0)
        - 2.0 * log_epsilon
        + math.log(brace)
        + math.log(log_union)
    )


def _check_inputs(epsilon: float, delta: float, r: int, modes: int) -> None:
    """Refuse eps outside (0, 1], delta outside (0, 1) and r outside 1..modes."""
    if not 0 < epsilon <= 1 or not 0 < delta < 1:
        raise ValueError("epsilon must lie in (0, 1] and delta in (0, 1)")
    if not 1 <= r <= modes:  # an r-local observable acts on r distinct modes
        raise ValueError(f"need 1 <= r <= modes, got r={r}, modes={modes}")


def _report(m_chosen: int, log_n: float, delta0_value: float, sigma: float, **inputs):
    """Report of a Bernstein ``log N``; ``N`` is infinite beyond ``e^700``."""
    return BoundReport(
        m_chosen=m_chosen,
        n_required=math.ceil(math.exp(log_n)) if log_n < 700 else math.inf,
        delta0_value=delta0_value,
        sigma_value=sigma,
        inputs=inputs,
        log10_n_required=log_n / math.log(10.0),
    )


def required_samples_homodyne(
    profile: MomentProfile,
    r: int,
    epsilon: float,
    delta: float,
    modes: int,
    n_observables: int | None = None,
) -> BoundReport:
    """Sample size of the homodyne protocol at accuracy eps, confidence 1-delta.

    ``M = ceil((4 E_n / eps)^(2/(n - alpha)))``; ``N`` follows from the matrix
    Bernstein inequality with the almost-sure bound ``Sigma_r^(alpha)(M)``.
    The report is flagged infeasible, before any Sigma block is built, when
    that M breaks the truncation cap or ``(M+1)^r`` the dense limit.
    """
    _check_inputs(epsilon, delta, r, modes)
    try:
        m_chosen = math.ceil((4.0 * profile.e_n / epsilon) ** (2.0 / (profile.n - profile.alpha)))
    except OverflowError:
        m_chosen = math.inf
    reason = _refusal(m_chosen, r)
    if reason:
        return _infeasible(
            f"the homodyne truncation ceil((4 E_n / eps)^(2/(n - alpha))): {reason}",
            protocol="homodyne", r=r, epsilon=epsilon, delta=delta, m=modes,
            cap=_TRUNCATION_CAP,
        )
    sigma = sigma_homodyne(m_chosen, r, profile.alpha)
    log_n = _log_required_n(
        m_chosen, r, math.log(epsilon), delta, sigma, profile.e_alpha, modes, n_observables
    )
    return _report(
        m_chosen, log_n, 0.0, sigma, protocol="homodyne", r=r, epsilon=epsilon,
        delta=delta, m=modes, L=n_observables, profile=vars(profile),
    )


# Window inner radii eta scanned by the heterodyne sample-size calculator.
_ETA_POINTS = 64


def heterodyne_truncation_choice(
    profile: MomentProfile, eta: float, epsilon: float, r: int
) -> int | None:
    """Smallest M <= 64 with ``eta^2 > 2 M^2`` and truncation + window error <= eps/2."""
    for m_try in range(_TRUNCATION_CAP + 1):
        if eta * eta <= 2.0 * m_try * m_try:
            return None
        bound = truncation_error_bound(
            profile.e_n, m_try, profile.alpha, profile.n, base_offset=1
        ) + delta0(eta, m_try, profile.alpha / 2.0, r)
        if bound <= epsilon / 2.0:
            return m_try
    return None


def required_samples_heterodyne(
    profile: MomentProfile,
    r: int,
    epsilon: float,
    delta: float,
    modes: int,
    radius: float,
    n_observables: int | None = None,
) -> BoundReport:
    """Sample size of the heterodyne protocol, minimized over the window radius.

    For each eta on a logarithmic grid of 64 values below the outer window
    radius ``radius``, the smallest feasible truncation is selected (the
    bound statement uses the ``(1+M)`` truncation base); N is then the
    Bernstein expression with the windowed norm ``Sigma~`` and the scan
    returns the minimizing (eta, M, N).  An eta whose M has ``(M+1)^r``
    above the dense limit is skipped before its Sigma block is built.  The
    report is flagged infeasible when no truncation up to 64 meets the eps/2
    budget within the dense limit at any eta.
    """
    _check_inputs(epsilon, delta, r, modes)
    if not radius > 0:
        raise ValueError(f"window radius must be positive, got {radius}")
    etas = np.geomspace(1e-2, 0.99 * radius, _ETA_POINTS)
    best: BoundReport | None = None
    dense = 0
    for eta in etas:
        m_try = heterodyne_truncation_choice(profile, float(eta), epsilon, r)
        if m_try is None:
            continue
        if _refusal(m_try, r):
            dense += 1
            continue
        window = WindowSpec(float(eta), radius)
        sigma = sigma_heterodyne(m_try, r, profile.alpha, window)
        d0 = delta0(float(eta), m_try, profile.alpha / 2.0, r)
        log_n = _log_required_n(
            m_try, r, math.log(epsilon), delta, sigma, profile.e_alpha + d0, modes,
            n_observables,
        )
        report = _report(
            m_try, log_n, d0, sigma, protocol="heterodyne", r=r, epsilon=epsilon,
            delta=delta, m=modes, L=n_observables, eta=float(eta), R=radius,
            profile=vars(profile),
        )
        if best is None or report.n_required < best.n_required:
            best = report
    if best is None:
        reason = (
            f"no truncation M <= {_TRUNCATION_CAP} meets the eps/2 "
            f"truncation-plus-window budget at any of the {_ETA_POINTS} eta values"
        )
        if dense:
            reason += (
                f" within the dense limit (M+1)^r <= {_DENSE_LIMIT}; at {dense} of "
                "them the M that meets it exceeds that limit"
            )
        return _infeasible(
            reason, protocol="heterodyne", r=r, epsilon=epsilon, delta=delta, m=modes,
            R=radius, cap=_TRUNCATION_CAP,
        )
    return best
