"""Quasi-Monte-Carlo integration on boxes with Halton low-discrepancy points."""

from __future__ import annotations

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
