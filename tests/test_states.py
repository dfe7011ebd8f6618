"""State constructors: Gaussian specs, cat qubits, chains, Fock matrices."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvshadow.phase_space import char_coherent_dyad
from cvshadow.states import (
    CatStateSpec,
    ChainSpec,
    GaussianStateSpec,
    block_cholesky,
    cat_char,
    cat_fock_coefficients,
    cat_position_pdf,
    chain_ground_state,
    coherent_overlap,
    fock_matrix_of,
    fock_moments,
    multi_indices,
)
from conftest import correlated_gaussian, gauss_legendre_grid_2d


def cat_char_printed_form(spec, u):
    """The four-dyad combination exactly as displayed for the 0/1 cats."""
    n_plus, n_minus = spec.norm_constants
    b = spec.center
    sym = 0.5 * (1 / n_plus**2 + 1 / n_minus**2) * (
        char_coherent_dyad(b, b, u) + char_coherent_dyad(-b, -b, u)
    )
    cross = 0.5 * (1 / n_plus**2 - 1 / n_minus**2) * (
        char_coherent_dyad(b, -b, u) + char_coherent_dyad(-b, b, u)
    )
    last = (char_coherent_dyad(b, b, u) - char_coherent_dyad(-b, -b, u)) / (
        n_plus * n_minus
    )
    sign = 1.0 if spec.logical == "zero" else -1.0
    return sym + cross + sign * last


class TestGaussianSpec:
    def test_vacuum(self):
        spec = GaussianStateSpec.vacuum()
        assert np.allclose(spec.cov, np.eye(2))
        assert spec.modes == 1

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianStateSpec(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        # the tolerance is absolute: 5e-6 is within a relative 1e-5, not 1e-10
        with pytest.raises(ValueError, match="symmetric"):
            GaussianStateSpec(np.zeros(2), np.array([[3.0, 1.0], [1.0 + 5e-6, 3.0]]))
        spec = GaussianStateSpec(np.zeros(2), np.array([[3.0, 1.0], [1.0 + 5e-11, 3.0]]))
        assert spec.cov[0, 1] == spec.cov[1, 0]

    @pytest.mark.parametrize("where", ["mean", "diagonal", "off-diagonal"])
    def test_non_finite_rejected(self, where):
        mean, cov = np.zeros(2), np.eye(2)
        if where == "mean":
            mean[0] = np.nan
        elif where == "diagonal":
            cov[0, 0] = np.inf
        else:
            cov[0, 1] = cov[1, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            GaussianStateSpec(mean, cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(ValueError, match="covariance"):
            GaussianStateSpec(np.zeros(2), 0.5 * np.eye(2))

    def test_marginal(self):
        cov = np.diag([1.0, 2.0, 1.0, 3.0])
        cov_full = np.diag([1.0, 2.0, 1.0, 0.5])
        spec = GaussianStateSpec(np.array([1.0, 2.0, 3.0, 4.0]), cov_full)
        marg = spec.marginal([1])
        assert np.allclose(marg.mean, [2.0, 4.0])
        assert np.allclose(marg.cov, np.diag([2.0, 0.5]))

    @pytest.mark.parametrize("modes", [[-1], [3], [0, 0], [2, 1, 2]])
    def test_marginal_bad_modes_rejected(self, modes):
        # mode -1 would index (p_3, x_3): a swapped pair, not the state of mode 3
        spec = GaussianStateSpec(np.zeros(6), np.diag(np.arange(1.0, 7.0)))
        with pytest.raises(ValueError, match="distinct"):
            spec.marginal(modes)

    def test_symplectic_eigenvalues_thermal(self):
        spec = GaussianStateSpec.thermal(1.0, modes=2)
        assert np.allclose(spec.symplectic_eigenvalues(), [3.0, 3.0])


def eigenvalue_verdict(cov):
    """The former check, written out: smallest eigenvalue of V + i Omega >= -1e-10."""
    m = cov.shape[0] // 2
    eye, zero = np.eye(m), np.zeros((m, m))
    omega = np.block([[zero, eye], [-eye, zero]])
    return bool(np.linalg.eigvalsh(cov + 1j * omega).min() >= -1e-10)


def accepted(cov):
    """Whether ``GaussianStateSpec`` takes ``cov``; a refusal names the reason."""
    try:
        GaussianStateSpec(np.zeros(cov.shape[0]), cov)
    except ValueError as err:
        assert "not a valid quantum covariance matrix" in str(err)
        return False
    return True


class TestQuantumCovarianceCheck:
    """The Schur-complement Cholesky check against the eigenvalue test."""

    @pytest.mark.parametrize("delta, valid", [(0.5e-10, True), (2e-10, False)])
    def test_single_mode_boundary(self, delta, valid):
        cov = (1.0 - delta) * np.eye(2)
        assert eigenvalue_verdict(cov) is valid
        assert accepted(cov) is valid

    def test_two_mode_with_xp_correlations(self):
        # two-mode squeezed vacuum with mode 0 phase-rotated, so C != 0
        c, s = np.cosh(1.2), np.sinh(1.2)
        cov = np.array([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]])
        rot = np.eye(4)
        rot[np.ix_([0, 2], [0, 2])] = [[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]
        cov = rot @ cov @ rot.T
        assert np.abs(cov[:2, 2:]).max() > 0.1
        assert eigenvalue_verdict(cov) and accepted(cov)
        shrunk = (1.0 - 2e-10) * cov
        assert not eigenvalue_verdict(shrunk)
        assert not accepted(shrunk)

    def test_multimode_with_xp_correlations(self):
        # a pure state with C != 0, so L21 != 0 in the check; it sits on the boundary
        cov = correlated_gaussian(6, 3).cov
        assert np.abs(cov[:6, 6:]).max() > 0.1
        assert eigenvalue_verdict(cov) and accepted(cov)
        shrunk = (1.0 - 2e-10) * cov
        assert not eigenvalue_verdict(shrunk)
        assert not accepted(shrunk)

    def test_thousand_mode_chain(self):
        cov = chain_ground_state(ChainSpec(1000, 0.99)).cov
        assert accepted(cov)
        shrunk = (1.0 - 2e-10) * cov
        assert not accepted(shrunk)
        assert not eigenvalue_verdict(shrunk)

    def test_random_covariances_same_verdict(self):
        # V = S diag(nu, nu) S^T scaled by f, with S = expm(Omega H) symplectic;
        # nu = 1 on some modes puts V on the boundary before scaling
        rng = np.random.default_rng(2026)
        verdicts = []
        for _ in range(200):
            m = int(rng.integers(1, 7))
            eye, zero = np.eye(m), np.zeros((m, m))
            omega = np.block([[zero, eye], [-eye, zero]])
            h = rng.normal(scale=0.3, size=(2 * m, 2 * m))
            sym = expm(omega @ (h + h.T))
            nu = np.where(rng.random(m) < 0.5, 1.0, 1.0 + rng.exponential(0.5, m))
            cov = sym @ np.diag(np.concatenate([nu, nu])) @ sym.T
            cov = rng.choice([1.0, 1.0 + 1e-9, 1.0 - 1e-6, 0.9]) * 0.5 * (cov + cov.T)
            verdict = eigenvalue_verdict(cov)
            assert accepted(cov) is verdict
            verdicts.append(verdict)
        assert 40 <= sum(verdicts) <= 160


class TestBlockCholesky:
    @pytest.mark.parametrize("complex_k", [False, True])
    def test_blocks_factor_the_matrix(self, complex_k):
        # m = 300 spans two 256-row blocks of the substitution and of k^H k
        rng = np.random.default_rng(11)
        m = 300
        g = rng.normal(size=(2 * m, 2 * m))
        a = g[:m] @ g[:m].T / m + np.eye(m)
        b = g[m:] @ g[m:].T / m + np.eye(m)
        k = rng.normal(size=(m, m)) / (4.0 * np.sqrt(m))
        if complex_k:
            k = k + 1j * rng.normal(size=(m, m)) / (4.0 * np.sqrt(m))
        full = np.block([[a, k], [k.conj().T, b]])
        l11, l21, l22 = block_cholesky(a.copy(), k.copy(), b.copy())
        lower = np.block([[l11, np.zeros((m, m))], [l21, l22]])
        assert np.abs(lower - np.linalg.cholesky(full)).max() < 1e-12
        assert np.abs(lower @ lower.conj().T - full).max() < 1e-12

    def test_not_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError):
            block_cholesky(np.eye(3), 2.0 * np.eye(3), np.eye(3))
        with pytest.raises(np.linalg.LinAlgError):
            block_cholesky(-np.eye(3), np.zeros((3, 3)), np.eye(3))


class TestCatState:
    def test_norm_constants(self):
        spec = CatStateSpec(1 + 1j, "zero")
        overlap = math.exp(-2 * abs(1 + 1j) ** 2)
        assert spec.norm_constants[0] == pytest.approx(math.sqrt(2 * (1 + overlap)))
        assert spec.norm_constants[1] == pytest.approx(math.sqrt(2 * (1 - overlap)))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            CatStateSpec(1e-9, "one")
        with pytest.raises(ValueError):
            CatStateSpec(0.0, "minus")

    def test_plus_cat_at_zero_alpha_allowed(self):
        spec = CatStateSpec(0.0, "plus")
        assert cat_char(spec, np.zeros(2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("logical", ["zero", "one", "plus", "minus"])
    def test_unit_trace(self, logical):
        spec = CatStateSpec(1 + 1j, logical)
        assert cat_char(spec, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("logical", ["zero", "one"])
    def test_matches_printed_combination(self, logical):
        spec = CatStateSpec(1 + 1j, logical)
        rng = np.random.default_rng(3)
        for u in rng.uniform(-2, 2, size=(12, 2)):
            assert cat_char(spec, u) == pytest.approx(cat_char_printed_form(spec, u))

    def test_hermiticity(self):
        spec = CatStateSpec(0.7 - 0.4j, "one")
        rng = np.random.default_rng(5)
        for u in rng.uniform(-2, 2, size=(8, 2)):
            assert cat_char(spec, -u) == pytest.approx(np.conj(cat_char(spec, u)))

    def test_against_fock_oracle_grid(self):
        spec = CatStateSpec(1 + 1j, "zero")
        fock = fock_matrix_of(spec, 40)
        axis = np.linspace(-2, 2, 9)
        for ux in axis:
            for up in axis:
                u = np.array([ux, up])
                assert cat_char(spec, u) == pytest.approx(
                    complex(fock.char(u)), abs=1e-6
                )

    def test_large_alpha_limits(self):
        # cross coherent dyads are exp(-|2b|^2/4)-suppressed at fixed u, so
        # the plus cat tends to the 50/50 mixture of |b><b| and |-b><-b|;
        # the logical-zero cat tends to the coherent state |b> itself (the
        # third term of the four-dyad combination keeps weight 1/(N+ N-))
        u = np.array([0.3, 0.0])
        plus = CatStateSpec(6 + 6j, "plus")
        b = plus.center
        mixture = 0.5 * (char_coherent_dyad(b, b, u) + char_coherent_dyad(-b, -b, u))
        assert cat_char(plus, u) == pytest.approx(mixture, abs=1e-8)
        zero = CatStateSpec(6 + 6j, "zero")
        assert cat_char(zero, u) == pytest.approx(char_coherent_dyad(b, b, u), abs=1e-8)


class TestCatPositionPdf:
    def test_normalization(self):
        spec = CatStateSpec(1 + 1j, "zero")
        grid, weights = gauss_legendre_grid_2d(9.0, 160)
        total = np.sum(weights * cat_position_pdf(spec, grid)) / (2 * np.pi)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("logical", ["plus", "minus"])
    def test_parity_of_even_odd_cats(self, logical):
        # the +/- cats are parity eigenstates; the logical zero/one cats mix
        # them and concentrate near +b / -b instead
        spec = CatStateSpec(1 + 1j, logical)
        rng = np.random.default_rng(11)
        for x in rng.uniform(-3, 3, size=(10, 2)):
            assert cat_position_pdf(spec, x) == pytest.approx(
                cat_position_pdf(spec, -x)
            )

    def test_zero_cat_concentrates_at_plus_branch(self):
        spec = CatStateSpec(1 + 1j, "zero")
        b = spec.center
        assert cat_position_pdf(spec, b) > cat_position_pdf(spec, -b)

    @pytest.mark.parametrize("logical", ["zero", "one"])
    def test_matches_fock_series(self, logical):
        # |<x|psi>|^2 from the 40-term Fock expansion of the cat state
        spec = CatStateSpec(1 + 1j, logical)
        coeffs = cat_fock_coefficients(spec, 40)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-3, 3, size=(10, 2)):
            alpha = (x[0] + 1j * x[1]) / np.sqrt(2)
            fock_amp = np.array(
                [
                    np.exp(-0.25 * np.dot(x, x))
                    * np.conj(alpha) ** n
                    / math.sqrt(math.factorial(n))
                    for n in range(41)
                ]
            )
            amp = fock_amp @ coeffs
            assert cat_position_pdf(spec, x) == pytest.approx(abs(amp) ** 2, abs=1e-8)

    def test_overlap_formula(self):
        # <x|y> for coherent states, against the dyad trace
        x, y = np.array([0.2, 0.5]), np.array([-0.4, 1.0])
        assert coherent_overlap(x, y) == pytest.approx(
            np.conj(char_coherent_dyad(x, y, np.zeros(2)))
        )


class TestChain:
    def test_single_uncoupled_is_vacuum(self):
        spec = chain_ground_state(ChainSpec(1, 0.0))
        assert np.allclose(spec.cov, np.eye(2), atol=1e-12)

    def test_symplectic_eigenvalues_pure(self):
        spec = chain_ground_state(ChainSpec(4, 0.5))
        assert np.allclose(spec.symplectic_eigenvalues(), 1.0, atol=1e-8)

    def test_correlation_decay(self):
        spec = chain_ground_state(ChainSpec(10, 0.99))
        x_block = spec.cov[:10, :10]
        assert abs(x_block[0, 4]) < abs(x_block[0, 1])

    def test_matches_general_three_root_formula(self):
        # X = h^{-1/2} sqrt(h^{1/2} h_PP h^{1/2}) h^{-1/2} with h_PP = I/2,
        # every root by its own eigendecomposition
        spec = ChainSpec(50, 0.99, disorder=True)
        h_xx, h_pp = spec.h_xx(), 0.5 * np.eye(spec.m)

        def sqrtm(mat, power=0.5):
            lam, vec = np.linalg.eigh(mat)
            return (vec * lam**power) @ vec.T

        inv_root = sqrtm(h_xx, -0.5)
        root = sqrtm(h_xx)
        x_mat = inv_root @ sqrtm(root @ h_pp @ root) @ inv_root
        cov = chain_ground_state(spec).cov
        assert np.abs(cov[:50, :50] - x_mat).max() < 1e-12
        assert np.abs(cov[50:, 50:] - np.linalg.inv(x_mat)).max() < 1e-12
        assert not cov[:50, 50:].any() and not cov[50:, :50].any()

    def test_degenerate_coupling_rejected(self):
        with pytest.raises(ValueError, match="positive definite|degenerate"):
            chain_ground_state(ChainSpec(2, 1.0))

    def test_disorder_deterministic_and_valid(self):
        a = chain_ground_state(ChainSpec(6, 0.5, disorder=True, disorder_seed=7))
        b = chain_ground_state(ChainSpec(6, 0.5, disorder=True, disorder_seed=7))
        assert np.array_equal(a.cov, b.cov)
        assert a.symplectic_eigenvalues().min() >= 1 - 1e-8

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            ChainSpec(3, 1.5)


class TestFockMatrices:
    def test_vacuum(self):
        fock = fock_matrix_of(GaussianStateSpec.vacuum(), 3)
        assert np.abs(fock.entries - np.diag([1.0, 0, 0, 0])).max() <= 1e-15

    def test_thermal_exact(self):
        fock = fock_matrix_of(GaussianStateSpec.thermal(1.0), 2)
        assert np.abs(fock.entries - np.diag([0.5, 0.25, 0.125])).max() <= 1e-15

    def test_coherent_series(self):
        alpha = 0.6 - 0.3j
        fock = fock_matrix_of(GaussianStateSpec.coherent(alpha), 20)
        coeffs = np.array(
            [
                np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
                for n in range(21)
            ]
        )
        assert np.abs(fock.entries - np.outer(coeffs, coeffs.conj())).max() <= 1e-15

    @pytest.mark.parametrize(
        "state",
        [
            CatStateSpec(1 + 1j, "zero"),
            CatStateSpec(1 + 1j, "one"),
            GaussianStateSpec.thermal(0.5),
            GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6])),
            GaussianStateSpec(np.array([0.5, -0.2]), np.diag([1.8, 0.7])),
        ],
    )
    def test_density_matrix_invariants(self, state):
        fock = fock_matrix_of(state, 8)
        mat = fock.entries
        assert np.abs(mat - mat.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(mat).min() >= -1e-10
        trace = np.trace(mat).real
        assert trace <= 1.0 + 1e-10

    def test_cat_trace_retention(self):
        fock = fock_matrix_of(CatStateSpec(1 + 1j, "zero"), 8)
        assert np.trace(fock.entries).real >= 0.999

    def test_squeezed_gaussian_fock_matches_char(self):
        spec = GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6]))
        fock = fock_matrix_of(spec, 30)
        u = np.array([0.9, -0.5])
        assert complex(fock.char(u)) == pytest.approx(spec.char(u), abs=1e-8)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            fock_matrix_of("vacuum", 3)

    def test_two_mode_squeezed_vacuum(self):
        r, truncation = 0.4, 8
        c, s = math.cosh(2 * r), math.sinh(2 * r)
        cov = np.array([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]])
        fock = fock_matrix_of(GaussianStateSpec(np.zeros(4), cov), truncation)
        # psi_nn = tanh^n r / cosh r on the diagonal multi-indices (n, n)
        psi = np.zeros((truncation + 1) ** 2)
        for n in range(truncation + 1):
            psi[n * (truncation + 2)] = math.tanh(r) ** n / math.cosh(r)
        assert fock.modes == 2
        assert np.abs(fock.entries - np.outer(psi, psi)).max() <= 1e-15

    def test_squeezed_vacuum_closed_form(self):
        r, truncation = 0.6, 20
        spec = GaussianStateSpec(np.zeros(2), np.diag([math.exp(2 * r), math.exp(-2 * r)]))
        coeffs = np.zeros(truncation + 1)
        for n in range(truncation // 2 + 1):
            coeffs[2 * n] = (
                math.tanh(r) ** n
                * math.sqrt(math.factorial(2 * n))
                / (2**n * math.factorial(n) * math.sqrt(math.cosh(r)))
            )
        fock = fock_matrix_of(spec, truncation)
        assert np.abs(fock.entries - np.outer(coeffs, coeffs)).max() <= 1e-15

    def test_product_state_is_kronecker_product(self):
        theta, r = 0.7, 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        sq = GaussianStateSpec(
            np.array([0.8, -0.4]), rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
        )
        thermal = GaussianStateSpec.thermal(0.5)
        # xxpp ordering: (x_1, x_2, p_1, p_2)
        idx = [0, 2, 1, 3]
        cov = np.zeros((4, 4))
        cov[:2, :2], cov[2:, 2:] = thermal.cov, sq.cov
        joint = GaussianStateSpec(
            np.concatenate([thermal.mean, sq.mean])[idx], cov[np.ix_(idx, idx)]
        )
        expected = np.kron(fock_matrix_of(thermal, 5).entries, fock_matrix_of(sq, 5).entries)
        assert np.abs(fock_matrix_of(joint, 5).entries - expected).max() <= 1e-15

    def test_strong_squeezing_trace(self):
        # squeezed vacuum with e^{2r} = 20: P(2n) = C(2n, n) tanh^{2n} r / (4^n cosh r)
        r, truncation = 0.5 * math.log(20.0), 60
        fock = fock_matrix_of(GaussianStateSpec(np.zeros(2), np.diag([20.0, 0.05])), truncation)
        exact = sum(
            math.comb(2 * n, n) * math.tanh(r) ** (2 * n) / 4**n / math.cosh(r)
            for n in range(truncation // 2 + 1)
        )
        assert exact == pytest.approx(0.9995500266328522, abs=1e-15)
        assert fock.trace().real == pytest.approx(exact, abs=1e-12)

    def test_size_limit(self):
        chain = chain_ground_state(ChainSpec(1000, 0.99))
        with pytest.raises(ValueError, match="limit"):
            fock_matrix_of(chain, 3)
        pair = fock_matrix_of(chain.marginal([0, 500]), 3)
        assert pair.entries.shape == (16, 16)
        assert np.abs(pair.entries - pair.entries.conj().T).max() <= 1e-15

    def test_multi_indices_row_major(self):
        idx = multi_indices(1, 2)
        assert idx.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


class TestFockMoments:
    def test_coherent(self):
        alpha = 0.4 + 0.9j
        mean, cov = fock_moments(fock_matrix_of(GaussianStateSpec.coherent(alpha), 30))
        assert np.allclose(mean, np.sqrt(2) * np.array([alpha.real, alpha.imag]), atol=1e-8)
        assert np.allclose(cov, np.eye(2), atol=1e-6)

    def test_thermal(self):
        mean, cov = fock_moments(fock_matrix_of(GaussianStateSpec.thermal(1.0), 60))
        assert np.allclose(mean, 0.0, atol=1e-12)
        assert np.allclose(cov, 3.0 * np.eye(2), atol=1e-6)

    def test_squeezed(self):
        spec = GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6]))
        _, cov = fock_moments(fock_matrix_of(spec, 40))
        assert np.allclose(cov, spec.cov, atol=1e-6)
