"""Polynomial entropy surrogate, coefficients, plans, and references."""

import math

import numpy as np
import pytest

from cvshadow.entropy import (
    entropy_poly,
    entropy_reference,
    matrix_entropy,
    plan_entropy,
)
from cvshadow.shadows import project_PM
from cvshadow.states import ChainSpec, GaussianStateSpec, chain_ground_state, fock_matrix_of
from conftest import (
    binary_entropy,
    entropy_coefficients,
    entropy_continuity_bound,
    entropy_poly_from_power_sums,
)


class TestEntropyPoly:
    def test_maximally_mixed_approximates_ln2(self):
        sigma = np.eye(2) / 2.0
        val = entropy_poly(sigma, 50)
        assert abs(val - math.log(2)) <= 2.0 / 50.0

    def test_pure_state_telescopes(self):
        sigma = np.diag([1.0, 0.0])
        # sum 1/(k(k-1)) telescopes, leaving exactly 1/d_p
        assert entropy_poly(sigma, 1000) == pytest.approx(1e-3, rel=1e-9)
        assert abs(entropy_poly(sigma, 1000)) <= 2e-3

    def test_not_linear(self):
        rng = np.random.default_rng(0)
        a = rng.random((3, 3))
        a = (a + a.T) / 2
        a /= np.trace(a)
        b = np.diag([0.7, 0.2, 0.1])
        mix = entropy_poly(0.5 * a + 0.5 * b, 30)
        avg = 0.5 * entropy_poly(a, 30) + 0.5 * entropy_poly(b, 30)
        assert abs(mix - avg) > 1e-3

    def test_d_p_too_small(self):
        with pytest.raises(ValueError):
            entropy_poly(np.eye(2) / 2, 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.random((4, 4))
        sigma = (raw + raw.T) / 2
        sigma /= np.trace(sigma)
        perm = np.eye(4)[list(np.random.default_rng(1).permutation(4))]
        assert entropy_poly(perm @ sigma @ perm.T, 40) == pytest.approx(
            entropy_poly(sigma, 40)
        )

    @pytest.mark.parametrize("nu", [0.5, 1.0])
    @pytest.mark.parametrize("m_trunc", [3, 4, 5, 6])
    def test_approximation_bound_on_thermal(self, nu, m_trunc):
        # |S(P_M rho / tr) - H^(d_p)(P_M rho)| <= (M+1)/d_p + normalization
        fock = project_PM(fock_matrix_of(GaussianStateSpec.thermal(nu), 30), m_trunc)
        d_p = 400
        h_val = entropy_poly(fock.entries, d_p)
        lam = np.trace(fock.entries).real
        s_norm = matrix_entropy(fock.entries / lam)
        correction = abs(-math.log(lam) + (1 - lam) / lam * s_norm) + (1 - lam)
        assert abs(s_norm - h_val) <= (m_trunc + 1) / d_p + correction


class TestCoefficients:
    def test_minimal_degree(self):
        signs, logmag = entropy_coefficients(2)
        c = signs * np.exp(logmag)
        assert c[2] == pytest.approx(1.0)

    def test_degree_three(self):
        signs, logmag = entropy_coefficients(3)
        c = signs * np.exp(logmag)
        assert c[0] == pytest.approx(0.5 + 1.0 / 6.0)
        assert c[1] == pytest.approx(-1.5)
        assert c[2] == pytest.approx(2.0)
        assert c[3] == pytest.approx(-1.0)

    @pytest.mark.parametrize("d_p", [4, 8, 12])
    def test_power_sum_identity(self, d_p):
        rng = np.random.default_rng(d_p)
        raw = rng.random((3, 3)) + 1j * rng.random((3, 3))
        sigma = (raw + raw.conj().T) / 2
        sigma /= np.trace(sigma).real
        direct = entropy_poly(sigma, d_p)
        via_sums = entropy_poly_from_power_sums(sigma, d_p)
        assert via_sums == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("d_p", [5, 10, 20])
    def test_summability(self, d_p):
        signs, logmag = entropy_coefficients(d_p)
        from scipy.special import gammaln

        total = np.sum(np.exp(logmag - gammaln(np.arange(d_p + 1) + 1.0)))
        assert total <= 2.0**d_p


class TestPlan:
    def test_example_substitution(self):
        plan = plan_entropy(1, 1, 1.0, 0.4)
        assert plan.d_p == 6
        assert plan.epsilon_prime == pytest.approx(2.0**-8 / (24 * math.e))

    def test_halving_epsilon_doubles_dp(self):
        a = plan_entropy(3, 1, 0.5, 0.4)
        b = plan_entropy(3, 1, 0.25, 0.4)
        assert b.d_p == 2 * a.d_p

    def test_precondition_guard(self):
        with pytest.raises(ValueError, match="precondition"):
            plan_entropy(1, 1, 0.5, 2.0)

    @pytest.mark.parametrize(
        "truncation,epsilon,energy",
        [(3, 0.9, 0.4), (1, 1.0, 0.4), (6, 0.1, 1.2), (3, 0.5, 0.4), (6, 0.02, 1.2)],
    )
    def test_implied_n_is_the_bernstein_sample_size(self, truncation, epsilon, energy):
        # N = (M+1)^2 (6 S^2 + 2 (S+1) eps') / (3 eps'^2) log(2 (M+1) / delta),
        # the homodyne sample size at accuracy 2 eps' with additive constant
        # 1, written out with log eps', so an eps' that underflows to 0
        # (M = 6, eps = 0.02: eps' = 2^-1419) still gives a finite N
        from cvshadow.bounds import _log_required_n, sigma_homodyne

        dim, delta = truncation + 1, 0.05
        log_eps_prime = (
            math.log(epsilon**2 / (12 * dim * math.e)) - 4 * dim / epsilon * math.log(2)
        )
        eps_prime = math.exp(log_eps_prime)
        sigma = sigma_homodyne(truncation, 1, 0.0)
        log_n = (
            2 * math.log(dim)
            + math.log(6 * sigma**2 + 2 * (sigma + 1) * eps_prime)
            - math.log(3)
            - 2 * log_eps_prime
            + math.log(math.log(2 * dim / delta))
        )
        plan = plan_entropy(truncation, 1, epsilon, energy)
        assert math.isfinite(plan.log10_n_implied)
        assert plan.log10_n_implied == pytest.approx(log_n / math.log(10), rel=1e-12)
        via_bounds = _log_required_n(
            truncation, 1, math.log(2) + log_eps_prime, delta, sigma, 1.0, 1, None
        )
        assert via_bounds == pytest.approx(log_n, rel=1e-12)
        assert (plan.epsilon_prime == 0.0) == (eps_prime == 0.0) == (epsilon == 0.02)

    def test_astronomical_n_reported_in_logs(self):
        plan = plan_entropy(6, 1, 0.1, 1.2)
        assert plan.epsilon_prime == 0.0 or plan.epsilon_prime < 1e-80
        assert plan.log10_epsilon_prime < -80
        assert plan.log10_n_implied > 100


class TestReference:
    def test_vacuum(self):
        assert entropy_reference(GaussianStateSpec.vacuum()) == pytest.approx(0.0)

    def test_thermal(self):
        assert entropy_reference(GaussianStateSpec.thermal(1.0)) == pytest.approx(
            2.0 * math.log(2.0)
        )
        # eigenvalue-series oracle: sum -p ln p with p_n = 2^{-(n+1)}
        probs = 0.5 ** (np.arange(1, 120))
        assert entropy_reference(GaussianStateSpec.thermal(1.0)) == pytest.approx(
            float(-np.sum(probs * np.log(probs)))
        )

    def test_chain_marginal(self):
        state = chain_ground_state(ChainSpec(2, 0.5))
        marginal = state.marginal([0])
        nu_s = math.sqrt(marginal.cov[0, 0] * marginal.cov[1, 1])
        x = 0.5 * (nu_s - 1.0)
        expected = (x + 1) * math.log(x + 1) - x * math.log(x)
        assert entropy_reference(marginal) == pytest.approx(expected)

    def test_fock_matrix_path(self):
        fock = fock_matrix_of(GaussianStateSpec.thermal(0.5), 60)
        exact = entropy_reference(GaussianStateSpec.thermal(0.5))
        assert entropy_reference(fock) == pytest.approx(exact, abs=1e-6)


class TestContinuityBound:
    def test_binary_entropy(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2))
        assert binary_entropy(0.0) == 0.0

    @pytest.mark.parametrize("m_trunc", [4, 6, 8])
    def test_thermal_truncation_continuity(self, m_trunc):
        # |S(rho) - S(P_M rho / tr)| <= h(g) + rE h(g / rE), 2g = trace dist
        nu = 1.0
        r_energy = 1.0 + nu  # tr(rho (I + N)) for one mode
        fock = project_PM(fock_matrix_of(GaussianStateSpec.thermal(nu), 40), m_trunc)
        lam = np.trace(fock.entries).real
        normalized = fock.entries / lam
        # trace distance between rho and the truncated-normalized state:
        # the tail mass (1 - lam) plus the on-block difference
        n_all = np.arange(200)
        probs = 0.5 ** (n_all + 1)
        diff_block = np.abs(probs[: m_trunc + 1] / lam - probs[: m_trunc + 1]).sum()
        trace_dist = diff_block + (1.0 - lam)
        gamma = 0.5 * trace_dist
        s_exact = entropy_reference(GaussianStateSpec.thermal(nu))
        s_trunc = matrix_entropy(normalized)
        assert abs(s_exact - s_trunc) <= entropy_continuity_bound(gamma, r_energy)

    def test_gamma_range_guard(self):
        with pytest.raises(ValueError):
            entropy_continuity_bound(0.9, 1.0)
