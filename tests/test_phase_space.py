"""Conventions, special functions, and characteristic-function evaluators."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvshadow.phase_space import (
    CharGrid,
    char_coherent_dyad,
    char_fock_dyad,
    char_gaussian_raw,
    hermite_stack,
    laguerre,
    omega_apply,
    omega_matrix,
    symplectic_product,
)
from conftest import displacement_oracle, hermite_wavefunction, plancherel_pairing


def laguerre_exact(k, j, x):
    """Explicit factorial sum of L_k^(j), in exact rational arithmetic."""
    total = Fraction(0)
    xq = Fraction(x)
    for el in range(k + 1):
        num = Fraction(math.factorial(k + j), math.factorial(k - el) * math.factorial(j + el))
        total += num * (-xq) ** el / math.factorial(el)
    return float(total)


class TestSymplectic:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_omega_identities(self, m):
        omega = omega_matrix(m)
        assert np.allclose(omega @ omega, -np.eye(2 * m))
        assert np.allclose(omega.T @ omega, np.eye(2 * m))

    def test_omega_apply_matches_dense(self):
        u = np.arange(1.0, 7.0)
        assert np.allclose(omega_apply(u), omega_matrix(3) @ u)

    def test_symplectic_product(self):
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert symplectic_product(u, v) == pytest.approx(1.0)


class TestLaguerre:
    def test_constant(self):
        assert laguerre(0, 5, 3.7) == pytest.approx(1.0)

    def test_linear(self):
        # symbolic expansion: L_1^(0)(x) = 1 - x
        assert laguerre(1, 0, 2.0) == pytest.approx(-1.0)

    def test_quadratic(self):
        # expansion 3 - 3x + x^2/2 at x = 1
        assert laguerre(2, 1, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("k,j", [(0, 0), (3, 2), (7, 0), (5, 5), (10, 3)])
    def test_against_exact_sum(self, k, j):
        for x in (-2.5, 0.0, 0.3, 1.7, 9.0):
            assert laguerre(k, j, x) == pytest.approx(laguerre_exact(k, j, x), rel=1e-12)

    def test_vectorized(self):
        x = np.linspace(-1, 4, 7)
        vals = laguerre(4, 2, x)
        assert np.allclose(vals, [laguerre(4, 2, xi) for xi in x])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)

    def test_stable_at_large_order(self):
        # the raw factorial sum loses all digits around k ~ 20; the recurrence
        # must stay bounded by the known envelope |L_k(x)| <= exp(x/2) on x >= 0
        val = laguerre(60, 0, 10.0)
        assert abs(val) <= math.exp(5.0)


class TestHermite:
    def test_ground_state(self):
        assert hermite_wavefunction(0, 0.0) == pytest.approx(np.pi ** -0.25)

    def test_odd_parity(self):
        assert hermite_wavefunction(1, 0.0) == pytest.approx(0.0, abs=1e-300)

    def test_explicit_n3(self):
        # psi_3(q) = (8 q^3 - 12 q) exp(-q^2/2) / sqrt(2^3 3! sqrt(pi))
        q = 1.25
        h3 = 8 * q**3 - 12 * q
        expected = h3 * math.exp(-0.5 * q * q) / math.sqrt(48.0 * math.sqrt(math.pi))
        assert hermite_wavefunction(3, q) == pytest.approx(expected, rel=1e-12)

    def test_normalization_by_quadrature(self):
        val, _ = quad(lambda q: hermite_wavefunction(3, q) ** 2, -12, 12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hermite_wavefunction(201, 0.0)

    def test_rows_unchanged_where_the_start_is_normal(self):
        # pi^(-1/4) exp(-q^2/2) is a normal float up to |q| = 37.6: the plain
        # recurrence, bit for bit
        q = np.linspace(-37.6, 37.6, 4001)
        psi_prev, psi = np.zeros_like(q), np.pi ** (-0.25) * np.exp(-0.5 * q * q)
        rows = [psi]
        for n in range(300):
            psi_prev, psi = psi, q * np.sqrt(2.0 / (n + 1)) * psi - np.sqrt(
                n / (n + 1.0)
            ) * psi_prev
            rows.append(psi)
        assert np.array_equal(hermite_stack(300, q), np.array(rows))

    @pytest.mark.parametrize("q", [-41.0, 38.0, 38.7, 39.0, 40.5])
    def test_far_rows_do_not_underflow(self, q):
        # the recurrence in 50-digit decimals, where exp(-q^2/2) is representable
        with localcontext() as ctx:
            ctx.prec = 50
            x = Decimal(q)
            prev, cur = Decimal(0), Decimal(math.pi) ** Decimal(-0.25) * (-x * x / 2).exp()
            exact = [cur]
            for n in range(900):
                prev, cur = cur, x * (Decimal(2) / (n + 1)).sqrt() * cur - (
                    Decimal(n) / (n + 1)
                ).sqrt() * prev
                exact.append(cur)
        exact = np.array([float(v) for v in exact])
        rows = hermite_stack(900, np.array([q, 0.0]))[:, 0]
        top = np.abs(exact).max()
        assert top > 0.1  # rows near n = q^2/2 are of order one
        assert np.abs(rows - exact).max() <= 1e-12 * top


class TestCoherentDyad:
    def test_vacuum_trace(self):
        assert char_coherent_dyad(np.zeros(2), np.zeros(2), np.zeros(2)) == pytest.approx(1.0)

    def test_projector_trace(self):
        x = np.array([1.0, 0.0])
        assert char_coherent_dyad(x, x, np.zeros(2)) == pytest.approx(1.0)

    def test_displaced_vacuum_form(self):
        x = np.array([1.0, 0.0])
        u = np.array([0.4, -0.2])
        expected = np.exp(-0.25 * np.dot(u, u) - 1j * symplectic_product(u, x))
        assert char_coherent_dyad(x, x, u) == pytest.approx(expected)

    def test_opposite_centers(self):
        # chi_{|-x><x|}(u) = exp(-|u - 2x|^2 / 4)
        x = np.array([0.7, -0.3])
        u = np.array([0.2, 0.9])
        val = char_coherent_dyad(-x, x, u)
        assert val == pytest.approx(np.exp(-0.25 * np.sum((u - 2 * x) ** 2)))

    def test_multimode_product(self):
        x = np.array([0.5, -0.2, 0.1, 0.3])
        u = np.array([0.2, 0.4, -0.1, 0.6])
        per_mode = char_coherent_dyad(
            x[[0, 2]], x[[0, 2]], u[[0, 2]]
        ) * char_coherent_dyad(x[[1, 3]], x[[1, 3]], u[[1, 3]])
        assert char_coherent_dyad(x, x, u) == pytest.approx(per_mode)


class TestFockDyad:
    def test_vacuum_value(self):
        u = np.array([0.8, 0.6])
        assert char_fock_dyad(0, 0, u) == pytest.approx(np.exp(-0.25))

    def test_trace(self):
        assert char_fock_dyad(0, 0, np.zeros(2)) == pytest.approx(1.0)

    def test_against_oracle_single(self):
        u = np.array([1.0, 0.0])
        oracle = displacement_oracle(u, 40)
        assert char_fock_dyad(0, 1, u) == pytest.approx(oracle[1, 0], abs=1e-10)

    def test_against_oracle_grid(self):
        axis = np.linspace(-3, 3, 9)
        for ux in axis[::2]:
            for up in axis[::2]:
                u = np.array([ux, up])
                oracle = displacement_oracle(u, 60)
                for n1 in range(7):
                    for n2 in range(7):
                        assert char_fock_dyad(n1, n2, u) == pytest.approx(
                            oracle[n2, n1], abs=1e-9
                        )

    @given(
        n1=st.integers(0, 8),
        n2=st.integers(0, 8),
        ux=st.floats(-4, 4),
        up=st.floats(-4, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_bounded_and_conjugate_symmetric(self, n1, n2, ux, up):
        u = np.array([ux, up])
        val = char_fock_dyad(n1, n2, u)
        assert abs(val) <= 1.0 + 1e-12
        assert char_fock_dyad(n2, n1, -u) == pytest.approx(np.conj(val), abs=1e-12)

    def test_diagonal_trace_is_one(self):
        for n in range(6):
            assert char_fock_dyad(n, n, np.zeros(2)) == pytest.approx(1.0)

    def test_plancherel_orthonormality(self, dyad_grid):
        _, weights, dyad = dyad_grid
        for n1 in range(4):
            for n2 in range(4):
                for n3 in range(4):
                    for n4 in range(4):
                        val = plancherel_pairing(dyad(n1, n2), dyad(n3, n4), weights)
                        expected = 1.0 if (n1 == n3 and n2 == n4) else 0.0
                        assert val == pytest.approx(expected, abs=1e-6)


class TestDisplacementOracle:
    def test_identity_at_zero(self):
        assert np.allclose(displacement_oracle(np.zeros(2), 12), np.eye(13))

    def test_vacuum_entry(self):
        d = displacement_oracle(np.array([1.0, 0.0]), 40)
        assert d[0, 0] == pytest.approx(np.exp(-0.25))

    def test_weyl_composition(self):
        # D(u) D(v) = exp(-i/2 u^T Omega v) D(u+v); sign follows from the
        # Weyl relation D(x+y) = exp(i/2 x^T Omega y) D(x) D(y)
        u, v = np.array([0.6, -0.1]), np.array([-0.3, 0.4])
        du = displacement_oracle(u, 60)
        dv = displacement_oracle(v, 60)
        duv = displacement_oracle(u + v, 60)
        phase = np.exp(-0.5j * symplectic_product(u, v))
        assert np.allclose((du @ dv)[:10, :10], phase * duv[:10, :10], atol=1e-8)

    def test_unitary_block(self):
        d = displacement_oracle(np.array([1.2, -0.9]), 40)
        block = (d.conj().T @ d)[:20, :20]
        assert np.allclose(block, np.eye(20), atol=1e-8)


class TestCharGaussian:
    def test_vacuum(self):
        val = char_gaussian_raw(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        assert val == pytest.approx(np.exp(-0.5))

    def test_coherent_matches_dyad(self):
        x0 = np.array([0.4, -1.1])
        for u in (np.array([0.3, 0.2]), np.array([-1.0, 0.5])):
            assert char_gaussian_raw(x0, np.eye(2), u) == pytest.approx(
                char_coherent_dyad(x0, x0, u)
            )

    def test_thermal_matches_fock_series(self):
        nu = 0.5
        u = np.array([1.0, 0.0])
        m_osc = 60
        probs = (nu / (nu + 1)) ** np.arange(m_osc + 1) / (nu + 1)
        oracle = probs @ np.diag(displacement_oracle(u, m_osc))
        val = char_gaussian_raw(np.zeros(2), (2 * nu + 1) * np.eye(2), u)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_squeezed_congruence_against_fock_oracle(self):
        # anisotropic V: the quadratic form must carry the Omega congruence
        from cvshadow.states import GaussianStateSpec, fock_matrix_of

        spec = GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6]))
        fock = fock_matrix_of(spec, 30)
        for u in (np.array([1.2, 0.0]), np.array([0.0, 1.2]), np.array([0.7, -0.4])):
            assert spec.char(u) == pytest.approx(complex(fock.char(u)), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            char_gaussian_raw(np.zeros(2), np.eye(2), np.zeros(4))


class TestCharGrid:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CharGrid(np.zeros((5, 2)), np.zeros(4, dtype=complex))

    def test_non_finite_rejected(self):
        vals = np.array([1.0, np.inf], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            CharGrid(np.zeros((2, 2)), vals)
