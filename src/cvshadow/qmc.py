"""Quasi-Monte-Carlo integration on boxes with Halton low-discrepancy points.

The error model follows the Koksma-Hlawka-type bound ``TV(f) C log(k)^d / k``
with the unknown constant taken as 1; the reported estimate is a heuristic
diagnostic, never a correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
    """Integrate ``f`` over the box with ``budget`` Halton points.

    ``f`` must accept an ``(n, d)`` array of points and return ``n`` values
    (real or complex).  Returns ``(value, error_model)`` where the error
    model is ``TV_est log(k)^d / k`` with unit constant -- a heuristic scale,
    not a rigorous bound.
    """
    if budget < 16:
        raise ValueError("QMC budget below 16 points is meaningless")
    pts = box.map_unit(halton_points(box.dimension, budget))
    vals = np.asarray(f(pts))
    if vals.shape != (budget,):
        raise ValueError("integrand must return one value per point")
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValueError("integrand returned non-finite values")
    value = box.volume * vals.mean()
    d = box.dimension
    if d <= 3:
        tv = tv_estimate(f, box, grid=max(8, int(round(2e5 ** (1.0 / d)))))
        err = tv * math.log(budget) ** d / budget
    else:
        err = float("nan")
    return value, err


def tv_estimate(f, box: BoxDomain, grid: int = 128) -> float:
    """Total variation ``int |grad f|`` by central differences on a tensor grid.

    For complex integrands the real and imaginary variations are summed.
    ``f`` takes an (n, d) array as in :func:`qmc_integrate`.
    """
    d = box.dimension
    axes = [np.linspace(-l, l, grid) for l in box.half_widths]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(f(pts)).reshape([grid] * d)

    def tv_of(real_vals):
        grads = np.gradient(real_vals, *axes, edge_order=2)
        if d == 1:
            mag = np.abs(grads)
        else:
            mag = np.sqrt(sum(g * g for g in grads))
        for axis, ax_pts in enumerate(axes):
            mag = np.trapezoid(mag, x=ax_pts, axis=0)
        return float(mag)

    total = tv_of(vals.real)
    if np.iscomplexobj(vals) and np.any(vals.imag):
        total += tv_of(vals.imag)
    return total
