"""Halton sequences and quasi-Monte-Carlo integration."""

import math

import numpy as np
import pytest

from conftest import (
    BoxDomain,
    first_primes,
    gaussian_family_error,
    halton_points,
    qmc_integrate,
    radical_inverse,
)


class TestHalton:
    def test_base2_prefix(self):
        vals = halton_points(1, 4)[:, 0]
        assert vals == pytest.approx([0.5, 0.25, 0.75, 0.125])

    def test_base3_first(self):
        assert halton_points(2, 1)[0, 1] == pytest.approx(1.0 / 3.0)

    def test_default_bases_are_primes(self):
        assert halton_points(4, 1)[0] == pytest.approx([1 / 2, 1 / 3, 1 / 5, 1 / 7])
        assert first_primes(6) == (2, 3, 5, 7, 11, 13)

    def test_points_distinct(self):
        pts = halton_points(2, 10_000)
        assert len(np.unique(pts[:, 0])) == 10_000

    def test_radical_inverse_vectorized(self):
        assert np.allclose(radical_inverse([1, 2, 3], 2), [0.5, 0.25, 0.75])

    def test_discrepancy_proxy_decreases(self):
        # empirical box-count discrepancy over anchored boxes shrinks with k
        rng = np.random.default_rng(0)
        corners = rng.random((64, 2))

        def proxy(k):
            pts = halton_points(2, k)
            return max(
                abs(np.mean(np.all(pts < c, axis=1)) - c[0] * c[1]) for c in corners
            )

        values = [proxy(k) for k in (256, 1024, 4096, 16384)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestQmcIntegrate:
    def test_constant_exact(self):
        box = BoxDomain([1.0, 1.0])
        val = qmc_integrate(lambda p: np.ones(p.shape[0]), box, 64)
        assert val == pytest.approx(4.0)

    def test_gaussian_2d(self):
        box = BoxDomain([6.0, 6.0])
        val = qmc_integrate(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), box, 2**16)
        assert val == pytest.approx(2.0 * math.pi, abs=1e-3)

    def test_integrand_called_once_on_budget_points(self):
        calls = []

        def f(p):
            calls.append(p.shape)
            return np.ones(p.shape[0])

        assert qmc_integrate(f, BoxDomain([1.0, 2.0]), 1000) == pytest.approx(8.0)
        assert calls == [(1000, 2)]

    def test_error_decay_scan(self):
        # max error over a family of Gaussians (references include the exact
        # box truncation); pointwise errors at single budgets wobble with the
        # base-2 resonances, the family envelope decays cleanly
        errors = {k: gaussian_family_error(k) for k in (2**10, 2**12, 2**14, 2**16)}
        for k in (2**10, 2**12, 2**14):
            assert errors[4 * k] <= errors[k] / 2.0

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            qmc_integrate(lambda p: np.ones(p.shape[0]), BoxDomain([1.0]), 4)

    def test_nonfinite_rejected(self):
        box = BoxDomain([1.0])

        def bad(p):
            out = np.ones(p.shape[0])
            out[0] = np.inf
            return out

        with pytest.raises(ValueError):
            qmc_integrate(bad, box, 64)

    def test_agrees_with_adaptive_on_shadow_integrand(self):
        # heterodyne shadow-entry integrand, r = 1, n1 = n2 = 0
        from cvshadow.shadows import default_window
        from conftest import heterodyne_shadow_entry, heterodyne_shadow_entry_qmc

        w = default_window(0)
        x = np.array([0.7, -0.3])
        ref = heterodyne_shadow_entry(0, 0, x, w)
        qmc_val = heterodyne_shadow_entry_qmc(0, 0, x, w, budget=2**18)
        # 1e-4 at the scale of the entry (the integrand reaches ~R^2/2)
        assert abs(qmc_val - ref) < 1e-4 * (1.0 + abs(ref))

