"""Analytic bounds: delta0, Sobolev norms, Sigma norms, sample sizes."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaincc, roots_genlaguerre

import cvshadow.bounds as bounds
from cvshadow.bounds import (
    BoundReport,
    MomentProfile,
    delta0,
    heterodyne_truncation_choice,
    required_samples_heterodyne,
    required_samples_homodyne,
    sigma_heterodyne,
    sigma_homodyne,
    truncation_error_bound,
    _laguerre_zeros,
    _sigma_block,
)
from cvshadow.measurement import SampleBatch, sample_homodyne_batch
from cvshadow.shadows import (
    HOMODYNE_SHADOW_NORMALIZATION,
    WindowSpec,
    default_window,
)
from cvshadow.states import FockMatrix, GaussianStateSpec, fock_matrix_of
from conftest import (
    _upper_gamma_q,
    bernstein_tail,
    delta0_gamma_form,
    sigma_block_quad,
    sobolev_norm,
    stacked_entries,
)


class TestSobolevNorm:
    def test_vacuum_any_alpha(self):
        fock = fock_matrix_of(GaussianStateSpec.vacuum(), 4)
        for alpha in (0.0, 1.0, 3.5):
            assert sobolev_norm(fock, alpha) == pytest.approx(1.0)

    def test_diagonal_weights(self):
        mat = FockMatrix(1, 1, np.diag([0.5, 0.25]).astype(complex))
        assert sobolev_norm(mat, 2.0) == pytest.approx(0.5 + 0.25 * 4.0)

    def test_alpha_zero_is_trace_norm(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = FockMatrix(1, 3, raw)
        expected = np.linalg.svd(raw, compute_uv=False).sum()
        assert sobolev_norm(mat, 0.0) == pytest.approx(expected)

    def test_multimode_weights_use_total_photons(self):
        mat = FockMatrix(2, 1, np.diag([1.0, 0, 0, 1.0]).astype(complex))
        # totals (0, 1, 1, 2): weights 1 and (1+2)^alpha
        assert sobolev_norm(mat, 2.0) == pytest.approx(1.0 + 9.0)


def heterodyne_scan_points():
    """(eta, M) of the heterodyne scan: eta on its geometric grid below 0.99 R
    for R up to 100, and every M <= 64 with eta^2 > 2 M^2."""
    for radius in (8.0, 20.0, 100.0):
        for eta in np.geomspace(1e-2, 0.99 * radius, 64):
            for m_trunc in range(65):
                if eta * eta <= 2.0 * m_trunc * m_trunc:
                    break
                yield float(eta), m_trunc


def assert_delta0_forms_agree(points) -> int:
    """delta0 within 1e-10 relative of its Gamma form wherever that form has a
    value; returns the number of points compared."""
    compared = 0
    for eta, m_trunc, alpha, modes in points:
        alt = delta0_gamma_form(eta, m_trunc, alpha, modes)
        if alt is not None:
            assert delta0(eta, m_trunc, alpha, modes) == pytest.approx(alt, rel=1e-10, abs=0.0)
            compared += 1
    return compared


class TestDelta0:
    def test_trivial_point(self):
        assert delta0(0.0, 0, 0.0, 1) == pytest.approx(1.0)

    def test_dual_form_agreement_grid(self):
        # the exp-sum that delta0 returns and the incomplete-Gamma form agree
        # to 1e-10 relative
        grid = [(float(eta), m, 0.0, 1) for eta in np.linspace(0.0, 12.0, 9) for m in range(7)]
        assert all(math.isfinite(delta0(*point)) for point in grid)
        assert assert_delta0_forms_agree(grid) == len(grid)

    def test_dual_form_agreement_heterodyne_scan(self):
        # the scan calls delta0(eta, M, alpha / 2, r); past the Gamma form's
        # 5e-300 floor (large eta, small M) there is nothing to compare
        for alpha in (0.0, 0.5, 1.5):
            for modes in (1, 2, 3):
                points = [(eta, m, alpha, modes) for eta, m in heterodyne_scan_points()]
                assert assert_delta0_forms_agree(points) > len(points) / 2

    def test_explicit_value(self):
        # (eta=10, M=2, alpha=0, m=1)
        tail = sum(100.0**p / (2.0**p * math.factorial(p)) for p in range(5))
        expected = 3.0 * 9.0 * math.exp(-25.0) * math.sqrt(tail)
        assert delta0(10.0, 2, 0.0, 1) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_eta(self):
        for m_trunc in (0, 1, 2, 3):
            etas = np.linspace(2.0 * math.sqrt(max(m_trunc, 1)), 12.0, 12)
            vals = [delta0(float(e), m_trunc, 0.0, 1) for e in etas]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_upper_gamma_matches_gammaincc(self):
        # the Gamma form's tail over the heterodyne scan: 1e-12 relative
        # wherever gammaincc exceeds the 5e-300 floor, and below that floor
        # elsewhere
        for eta, m_trunc in heterodyne_scan_points():
            x = 0.5 * eta * eta
            ref = gammaincc(2 * m_trunc + 1, x)
            got = _upper_gamma_q(2 * m_trunc + 1, x)
            if ref > 5e-300:
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
            else:
                assert got < 5e-300

    def test_upper_gamma_edges(self):
        # x = 0, x below 1 (largest term p = 0), and shapes far above x
        assert _upper_gamma_q(1, 0.0) == 1.0 and _upper_gamma_q(129, 0.0) == 1.0
        for shape, x in ((1, 0.3), (5, 0.3), (129, 2.0), (129, 50.0), (3, 700.0)):
            assert _upper_gamma_q(shape, x) == pytest.approx(gammaincc(shape, x), rel=1e-12)

    def test_alpha_and_modes_scaling(self):
        base = delta0(5.0, 2, 0.0, 1)
        weighted = delta0(5.0, 2, 1.0, 1)
        assert weighted == pytest.approx(base * (2 * 1 + 1) ** 2)


class TestTruncationBound:
    def test_substitution(self):
        assert truncation_error_bound(1.0, 2, 0.0, 2.0) == pytest.approx(0.5)

    def test_monotone_decreasing_in_m(self):
        vals = [truncation_error_bound(1.0, m, 0.0, 2.0) for m in range(12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_dominates_thermal_tail(self):
        # || rho - P_M rho ||_1^(alpha) for thermal nu=1, n=2, alpha in {0,1}
        nu = 1.0
        n_tail = np.arange(0, 400)
        probs = (nu / (nu + 1)) ** n_tail / (nu + 1)
        e_n = float(np.sum(probs * (1 + n_tail) ** 2))
        for alpha in (0.0, 1.0):
            for m_trunc in range(1, 7):
                measured = float(
                    np.sum(probs[m_trunc + 1 :] * (1 + n_tail[m_trunc + 1 :]) ** alpha)
                )
                bound = truncation_error_bound(e_n, m_trunc, alpha, 2.0)
                assert measured <= bound

    def test_looser_base_variant(self):
        assert truncation_error_bound(1.0, 2, 0.0, 2.0, base_offset=1) == pytest.approx(
            2.0 / 3.0
        )

    def test_dominates_cat_tail(self):
        # pure-state tail: || rho - P_M rho ||_1^(alpha) from the 40-dim matrix
        from cvshadow.states import CatStateSpec

        big = fock_matrix_of(CatStateSpec(1 + 1j, "zero"), 40)
        totals = 1.0 + np.arange(41)
        e_n = float(np.real(np.sum(np.diag(big.entries) * totals**2)))
        for alpha in (0.0, 1.0):
            weights = totals ** (alpha / 2.0)
            for m_trunc in range(1, 7):
                blocked = big.entries.copy()
                blocked[m_trunc + 1 :, :] = 0.0
                blocked[:, m_trunc + 1 :] = 0.0
                diff = weights[:, None] * (big.entries - blocked) * weights[None, :]
                measured = float(np.linalg.svd(diff, compute_uv=False).sum())
                assert measured <= truncation_error_bound(e_n, m_trunc, alpha, 2.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            truncation_error_bound(1.0, 2, 2.0, 2.0)


class TestSigmaHomodyne:
    def test_m0_closed_form(self):
        # 2 * 1/2 * int_0^inf t exp(-t^2/4) dt = 2
        assert sigma_homodyne(0, 1, 0.0) == pytest.approx(2.0, rel=1e-9)

    def test_monotone_in_truncation(self):
        vals = [sigma_homodyne(m, 1, 0.0) for m in range(4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tensor_power(self):
        assert sigma_homodyne(1, 2, 0.0) == pytest.approx(
            sigma_homodyne(1, 1, 0.0) ** 2, rel=1e-9
        )

    def test_empirical_shadows_within_bound(self):
        # observed sup-norms of homodyne shadows vs the analytic bound, which
        # carries the estimator's normalization constant itself
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 10_000, "sig")
        stacked = stacked_entries(batch, [0], 2)
        sup = np.linalg.norm(stacked, ord=2, axis=(1, 2)).max()
        assert sup <= sigma_homodyne(2, 1, 0.0)


class TestSigmaHeterodyne:
    def test_m0_window_area(self):
        w = WindowSpec(6.0, 6.2)
        val = sigma_heterodyne(0, 1, 0.0, w)
        assert val == pytest.approx(0.5 * 6.0**2, rel=0.05)

    def test_grows_with_radius(self):
        vals = [
            sigma_heterodyne(1, 1, 0.0, WindowSpec(eta, eta + 2.0))
            for eta in (4.0, 6.0, 8.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_alpha_weights_increase(self):
        w = WindowSpec(6.0, 8.0)
        assert sigma_heterodyne(1, 1, 2.0, w) > sigma_heterodyne(1, 1, 0.0, w)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_m2_written_out(self, alpha):
        # per-mode entry sqrt(lo!/hi!) int_0^R rho (rho/sqrt2)^d
        # |L_lo^(d)(rho^2/2)| xi(rho) d rho, weights (1 + n)^(alpha/2)
        w = default_window(2)
        block = np.zeros((3, 3))
        for lo in range(3):
            for hi in range(lo, 3):
                d = hi - lo

                def integrand(rho, lo=lo, d=d):
                    lag = eval_genlaguerre(lo, d, 0.5 * rho * rho)
                    return rho * (rho / math.sqrt(2.0)) ** d * abs(lag) * w.xi_radial(rho)

                val, _ = quad(integrand, 0.0, w.radius, limit=400)
                coeff = math.sqrt(math.factorial(lo) / math.factorial(hi))
                block[lo, hi] = block[hi, lo] = coeff * val
        weights = (1.0 + np.arange(3)) ** (alpha / 2.0)
        expected = np.linalg.norm(weights[:, None] * block * weights[None, :], ord=2)
        assert sigma_heterodyne(2, 1, alpha, w) == pytest.approx(expected, rel=1e-10)

    def test_empirical_shadows_within_bound(self):
        from cvshadow.measurement import sample_heterodyne_batch

        w = default_window(2)
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 5_000, "sigh")
        stacked = stacked_entries(batch, [0], 2, w)
        sup = np.linalg.norm(stacked, ord=2, axis=(1, 2)).max()
        assert sup <= sigma_heterodyne(2, 1, 0.0, w)


class TestSigmaPinnedToEstimator:
    """Sigma dominates every shadow entry and is within 3x of the largest shadow.

    Outcome radii run over a grid of step 1/64; a shadow's operator norm does
    not depend on its angle.  The 1e-9 slack covers a one-ulp tie at M = 0.
    """

    def _check(self, stacked, block, sigma):
        assert np.all(np.abs(stacked) <= block * (1.0 + 1e-9))
        sup = np.linalg.norm(stacked, ord=2, axis=(1, 2)).max()
        assert sup <= sigma * (1.0 + 1e-9)
        assert sigma <= 3.0 * sup

    @pytest.mark.parametrize("truncation", [0, 3, 6])
    def test_homodyne(self, truncation):
        q = np.arange(0.0, 63.9, 1.0 / 64)
        batch = SampleBatch("homodyne", np.stack([np.zeros_like(q), q], axis=-1)[:, None, :])
        scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION
        block = _sigma_block(truncation, lambda t: scale * np.exp(-0.25 * t * t), 40.0)
        sigma = sigma_homodyne(truncation, 1, 0.0)
        assert np.linalg.norm(block, ord=2) == sigma
        self._check(stacked_entries(batch, [0], truncation), block, sigma)

    @pytest.mark.parametrize("truncation", [0, 3])
    def test_heterodyne(self, truncation):
        x = np.arange(0.0, 16.0, 1.0 / 64)
        batch = SampleBatch("heterodyne", np.stack([x, np.zeros_like(x)], axis=-1)[:, None, :])
        w = default_window(truncation)
        block = _sigma_block(truncation, w.xi_radial, w.radius, (w.eta,))
        sigma = sigma_heterodyne(truncation, 1, 0.0, w)
        assert np.linalg.norm(block, ord=2) == sigma
        self._check(stacked_entries(batch, [0], truncation, w), block, sigma)


class TestSigmaBlockQuadrature:
    """The fixed-rule Sigma block against adaptive ``quad`` (``sigma_block_quad``)."""

    @pytest.mark.parametrize("truncation", [0, 1, 3, 6, 12, 24])
    def test_homodyne_kernel(self, truncation):
        scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION

        def kernel(t):
            return scale * np.exp(-0.25 * t * t)

        np.testing.assert_allclose(
            _sigma_block(truncation, kernel, 40.0),
            sigma_block_quad(truncation, kernel, 40.0),
            rtol=1e-12, atol=0.0,
        )

    @pytest.mark.parametrize("truncation", [0, 1, 3, 6, 12, 24])
    def test_default_window(self, truncation):
        w = default_window(truncation)
        np.testing.assert_allclose(
            _sigma_block(truncation, w.xi_radial, w.radius, (w.eta,)),
            sigma_block_quad(truncation, w.xi_radial, w.radius, (w.eta,)),
            rtol=1e-12, atol=0.0,
        )

    def test_laguerre_zeros(self):
        assert _laguerre_zeros(0, 3).shape == (0,)
        for n in range(1, 25):
            for a in range(25):
                np.testing.assert_allclose(
                    _laguerre_zeros(n, a), roots_genlaguerre(n, a)[0], rtol=1e-12, atol=0.0
                )


class TestSigmaBlockAtTheCap:
    """At the truncation cap, the fixed 64-node rule against a 128-node rule."""

    def test_homodyne_rule_converged(self, monkeypatch):
        # the homodyne kernel is the less converged of the two (1.3e-11 against
        # 9.3e-15 for the default window at M = 64)
        scale = 2.0 * HOMODYNE_SHADOW_NORMALIZATION
        args = (bounds._TRUNCATION_CAP, lambda t: scale * np.exp(-0.25 * t * t), 40.0)
        coarse = _sigma_block(*args)
        rule = bounds._gauss_legendre
        monkeypatch.setattr(bounds, "_gauss_legendre", lambda n: rule(2 * n))
        np.testing.assert_allclose(coarse, _sigma_block(*args), rtol=1e-10, atol=0.0)


class TestRefusals:
    """An M above the cap, or an (M+1)^r above the dense limit, is refused
    before any Sigma block is built."""

    PROFILE = MomentProfile(n=2.0, alpha=0.0, e_n=1.0, e_alpha=1.0)

    @pytest.fixture(autouse=True)
    def no_sigma_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Sigma block was built")

        monkeypatch.setattr(bounds, "_sigma_block", refuse)

    def test_homodyne_cap(self):
        # M = ceil((4 * 20 / 0.1)^(2 / (4 - 2))) = 800
        report = required_samples_homodyne(MomentProfile(4.0, 2.0, 20.0, 20.0), 2, 0.1, 0.05, 10)
        assert not report.feasible and report.n_required == math.inf
        assert report.reason.endswith("M = 800 exceeds the truncation cap 64")

    def test_homodyne_truncation_overflow(self):
        # (4 * 20 / 0.1)^200 is beyond the float range
        report = required_samples_homodyne(MomentProfile(0.01, 0.0, 20.0, 20.0), 1, 0.1, 0.05, 10)
        assert report.reason.endswith("M = inf exceeds the truncation cap 64")

    def test_homodyne_dense_limit(self):
        # M = 8 at r = 4: (M+1)^r = 6561
        report = required_samples_homodyne(self.PROFILE, 4, 0.5, 0.05, 10)
        assert not report.feasible
        assert report.reason.endswith("(M+1)^r = 9^4 exceeds the dense limit 2000")

    def test_heterodyne_dense_limit(self):
        # 2 E / (M+1) <= eps/2 needs M >= 13 at eps = 0.3, which three of the
        # eta values below R = 24 meet, and (M+1)^r = 14^3 = 2744
        report = required_samples_heterodyne(self.PROFILE, 3, 0.3, 0.05, 4, 24.0)
        assert not report.feasible and report.m_chosen == -1
        assert "within the dense limit (M+1)^r <= 2000" in report.reason
        assert report.reason.endswith("exceeds that limit")

    def test_homodyne_r_above_modes(self):
        # an r-local observable acts on r distinct modes
        for r, modes in ((3, 1), (0, 2)):
            with pytest.raises(ValueError, match=f"need 1 <= r <= modes, got r={r}, modes={modes}"):
                required_samples_homodyne(self.PROFILE, r, 0.5, 0.05, modes)

    def test_heterodyne_r_above_modes(self):
        for r, modes in ((3, 1), (0, 2)):
            with pytest.raises(ValueError, match=f"need 1 <= r <= modes, got r={r}, modes={modes}"):
                required_samples_heterodyne(self.PROFILE, r, 0.5, 0.05, modes, 24.0)


class TestBernstein:
    def test_decay_in_n(self):
        vals = [bernstein_tail(n, 0.5, 1.0, 1.0, 4) for n in (10, 100, 1000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_substitution(self):
        assert bernstein_tail(1, 1.0, 1.0, 1.0, 1) == pytest.approx(
            2.0 * math.exp(-3.0 / 8.0)
        )

    def test_linear_in_dim(self):
        assert bernstein_tail(50, 0.5, 1.0, 1.0, 8) == pytest.approx(
            2.0 * bernstein_tail(50, 0.5, 1.0, 1.0, 4)
        )

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            bernstein_tail(0, 1.0, 1.0, 1.0, 1)


class TestRequiredSamplesHomodyne:
    PROFILE = MomentProfile(n=2.0, alpha=0.0, e_n=1.0, e_alpha=1.0)

    def test_truncation_formula(self):
        # M = ceil((4 E / eps)^(2/(n - alpha))) = ceil(4) at eps = 1
        report = required_samples_homodyne(self.PROFILE, 1, 1.0, 0.1, 4)
        assert report.m_chosen == 4

    def test_log_m_scaling(self):
        r10 = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 10)
        r100 = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 100)
        m_sel = r10.m_chosen
        ratio_expected = math.log(2 * 100 * (m_sel + 1) / 0.05) / math.log(
            2 * 10 * (m_sel + 1) / 0.05
        )
        assert r100.n_required / r10.n_required == pytest.approx(
            ratio_expected, rel=1e-6
        )

    def test_delta_halving_ratio(self):
        a = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 10)
        b = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.025, 10)
        m_sel = a.m_chosen
        expected = math.log(2 * 10 * (m_sel + 1) / 0.025) / math.log(
            2 * 10 * (m_sel + 1) / 0.05
        )
        assert b.n_required / a.n_required == pytest.approx(expected, rel=1e-6)

    def test_monotone_in_epsilon(self):
        big = required_samples_homodyne(self.PROFILE, 1, 0.8, 0.05, 4)
        small = required_samples_homodyne(self.PROFILE, 1, 0.4, 0.05, 4)
        assert small.n_required >= big.n_required

    def test_observable_variant_changes_log_only(self):
        base = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 10)
        obs = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 10, n_observables=7)
        m_sel = base.m_chosen
        expected = math.log(2 * 7 * (m_sel + 1) / 0.05) / math.log(
            2 * 10 * (m_sel + 1) / 0.05
        )
        assert obs.n_required / base.n_required == pytest.approx(expected, rel=1e-6)

    def test_monotone_in_r_and_energy(self):
        small = required_samples_homodyne(self.PROFILE, 1, 0.5, 0.05, 10)
        wide = required_samples_homodyne(self.PROFILE, 2, 0.5, 0.05, 10)
        assert wide.n_required >= small.n_required
        hot = MomentProfile(n=2.0, alpha=0.0, e_n=3.0, e_alpha=1.0)
        assert (
            required_samples_homodyne(hot, 1, 0.5, 0.05, 10).n_required
            >= small.n_required
        )


class TestRequiredSamplesHeterodyne:
    PROFILE = MomentProfile(n=2.0, alpha=0.0, e_n=1.0, e_alpha=1.0)

    def test_truncation_choice_large_eta(self):
        # 2 (1 + M')^{-1} E + delta0 <= eps/2 with delta0 negligible at eta=20
        m_sel = heterodyne_truncation_choice(self.PROFILE, 20.0, 0.5, 1)
        assert m_sel == 7

    def test_eta_constraint(self):
        # eta too small for any M': eta^2 > 2 M'^2 fails beyond M' < eta/sqrt2
        assert heterodyne_truncation_choice(self.PROFILE, 0.05, 0.5, 1) is None

    def test_scan_returns_feasible(self):
        report = required_samples_heterodyne(self.PROFILE, 1, 0.5, 0.05, 4, 24.0)
        assert report.feasible
        assert report.m_chosen >= 0
        assert math.isfinite(report.log10_n_required)

    def test_n_decreasing_in_epsilon(self):
        radius = 24.0
        big = required_samples_heterodyne(self.PROFILE, 1, 0.8, 0.05, 4, radius)
        small = required_samples_heterodyne(self.PROFILE, 1, 0.4, 0.05, 4, radius)
        assert small.n_required >= big.n_required

    def test_infeasible_report(self):
        report = required_samples_heterodyne(self.PROFILE, 1, 0.5, 0.05, 4, 1.0)
        assert not report.feasible
        assert report.n_required == math.inf

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_nonpositive_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            required_samples_heterodyne(self.PROFILE, 1, 0.5, 0.05, 4, radius)

    def test_report_serializes(self):
        report = BoundReport(3, 100.0, 0.1, 2.0)
        d = report.to_dict()
        assert d["M"] == 3 and d["feasible"]
