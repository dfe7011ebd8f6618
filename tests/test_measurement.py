"""Synthetic homodyne/heterodyne samplers and their outcome densities."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.stats import kstest

from cvshadow.measurement import (
    SampleBatch,
    _gaussian_draws,
    fock_husimi,
    homodyne_pdf,
    sample_heterodyne_batch,
    sample_homodyne_batch,
    stream_rng,
)
from cvshadow.states import (
    CatStateSpec,
    ChainSpec,
    FockMatrix,
    GaussianStateSpec,
    cat_fock_coefficients,
    cat_position_pdf,
    chain_ground_state,
    fock_matrix_of,
    fock_moments,
)
from cvshadow.phase_space import hermite_stack
from cvshadow.qmc import BoxDomain, qmc_integrate
from conftest import (
    correlated_gaussian,
    hermite_wavefunction,
    heterodyne_covariance,
    heterodyne_pdf,
    reference_jsonl,
)


def fock_state(n: int, truncation: int) -> FockMatrix:
    mat = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    mat[n, n] = 1.0
    return FockMatrix(1, truncation, mat)


def traced_peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()`` in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def dense_expectation(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Reference ``<v|rho|v> = sum conj(v) (rho v)`` for every column ``v``."""
    return np.sum(kets.conj() * (rho @ kets), axis=0).real


def factored_inputs() -> dict:
    """Matrices whose factored densities are pinned against the dense form."""
    import cvshadow.measurement as meas

    rng = np.random.default_rng(17)
    mixed = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    square = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    return {
        "cat": meas._sampling_fock(CatStateSpec(1 + 1j, "zero")),
        "fock3": fock_state(3, 5),
        "rank3": FockMatrix(1, 7, mixed @ mixed.conj().T / np.sum(np.abs(mixed) ** 2)),
        "thermal": fock_matrix_of(GaussianStateSpec.thermal(0.7), 10),
        "not-psd": FockMatrix(1, 5, 0.5 * (square + square.conj().T)),
    }


NOT_STATES = {
    "negative": FockMatrix(1, 1, np.diag([1.2, -0.2])),
    "non-hermitian": FockMatrix(1, 1, np.array([[0.5, 0.3], [0.0, 0.5]])),
}


class TestHomodynePdf:
    def test_vacuum(self):
        rho = fock_matrix_of(GaussianStateSpec.vacuum(), 5)
        q = np.linspace(-3, 3, 11)
        assert np.allclose(
            homodyne_pdf(rho, 0.3, q), np.exp(-q * q) / math.sqrt(math.pi)
        )

    def test_fock_one(self):
        rho = fock_state(1, 5)
        q = np.linspace(-3, 3, 11)
        expected = 2.0 * q * q * np.exp(-q * q) / math.sqrt(math.pi)
        for theta in (0.0, 1.1, -2.0):
            assert np.allclose(homodyne_pdf(rho, theta, q), expected)

    def test_cat_matches_series(self):
        # |<q|psi_theta>|^2 from the 40-term rotated Fock expansion
        spec = CatStateSpec(1 + 1j, "zero")
        rho = fock_matrix_of(spec, 40)
        coeffs = cat_fock_coefficients(spec, 40)
        theta = 0.0

        for q in (-2.0, -0.5, 0.0, 0.8, 2.3):
            amp = sum(
                coeffs[n] * hermite_wavefunction(n, q) for n in range(41)
            )
            assert homodyne_pdf(rho, theta, q) == pytest.approx(
                abs(amp) ** 2, abs=1e-6
            )

    def test_normalized(self):
        rho = fock_matrix_of(CatStateSpec(1 + 1j, "one"), 30)
        val, _ = quad(lambda q: homodyne_pdf(rho, 0.7, q), -12, 12, limit=300)
        assert val == pytest.approx(np.trace(rho.entries).real, abs=1e-8)

    def test_nonnegative(self):
        rho = fock_matrix_of(CatStateSpec(1 + 1j, "zero"), 30)
        q = np.linspace(-8, 8, 401)
        for theta in np.linspace(-np.pi, np.pi, 7):
            assert homodyne_pdf(rho, theta, q).min() >= -1e-12

    def test_one_angle_per_point_matches_double_sum(self):
        # the sampler's density: p(q_i|theta_i) for its own angle per point
        from cvshadow.measurement import _homodyne_density

        rho = fock_matrix_of(CatStateSpec(1 + 1j, "plus"), 12)
        rng = np.random.default_rng(3)
        thetas, qs = rng.uniform(-np.pi, np.pi, 9), rng.normal(0.0, 2.0, 9)
        n = np.arange(13)
        for theta, q, val in zip(thetas, qs, _homodyne_density(rho, thetas, qs)):
            psi = hermite_stack(12, q)
            phase = np.exp(1j * np.subtract.outer(n, n) * theta)
            expected = np.sum(rho.entries * phase * np.outer(psi, psi)).real
            assert val == pytest.approx(expected, abs=1e-13)

    def test_non_hermitian_rejected(self):
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            homodyne_pdf(FockMatrix(1, 2, mat), 0.0, 0.0)

    def test_hermitian_check_is_absolute(self):
        # 2e-6 off Hermitian is within a relative 1e-5 but not an absolute 1e-8
        off = FockMatrix(1, 1, np.array([[0.6, 0.3], [0.3 + 2e-6, 0.4]]))
        for call in (
            lambda: homodyne_pdf(off, 0.0, 0.0),
            lambda: sample_homodyne_batch(off, 10, "herm"),
            lambda: sample_heterodyne_batch(off, 10, "herm"),
        ):
            with pytest.raises(ValueError, match="Hermitian"):
                call()
        near = FockMatrix(1, 1, np.array([[0.6, 0.3], [0.3 + 5e-9, 0.4]]))
        assert homodyne_pdf(near, 0.0, 0.0) > 0
        assert sample_homodyne_batch(near, 10, "herm").n == 10

    @pytest.mark.parametrize("name", sorted(factored_inputs()))
    def test_factored_matches_dense(self, name):
        # the rank-factored density against sum conj(v) (rho v), with
        # v_n = exp(-i n theta) psi_n(q)
        rho = factored_inputs()[name]
        q = np.linspace(-6.0, 6.0, 61)
        n = np.arange(rho.truncation + 1)[:, None]
        for theta in (-2.5, 0.0, 0.7, 3.0):
            kets = hermite_stack(rho.truncation, q) * np.exp(-1j * n * theta)
            dense = dense_expectation(rho.entries, kets)
            vals = homodyne_pdf(rho, theta, q)
            assert np.abs(vals - dense).max() <= 1e-12 * np.abs(dense).max()
            if name == "not-psd":  # both signs: the signed weights matter
                assert dense.min() < 0 < dense.max()


class TestSampleHomodyne:
    def test_reproducible(self):
        state = GaussianStateSpec.vacuum()
        a = sample_homodyne_batch(state, 5, "seed42")
        b = sample_homodyne_batch(state, 5, "seed42")
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_vacuum_variance(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 100_000, "var")
        q = batch.outcomes[:, 0]
        assert q.var() == pytest.approx(0.5, abs=0.01)
        assert np.all(batch.thetas >= -np.pi)
        assert np.all(batch.thetas < np.pi)

    def test_thermal_variance(self):
        batch = sample_homodyne_batch(GaussianStateSpec.thermal(1.0), 100_000, "th")
        assert batch.outcomes[:, 0].var() == pytest.approx(1.5, abs=0.02)

    def test_uncoupled_chain_uncorrelated(self):
        state = chain_ground_state(ChainSpec(2, 0.0))
        batch = sample_homodyne_batch(state, 100_000, "chain0")
        qs = batch.outcomes
        corr = np.corrcoef(qs[:, 0], qs[:, 1])[0, 1]
        assert abs(corr) < 0.01

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_rotated_variance_matches_covariance(self, theta):
        # conditional on the angle, Var(q) = (R_theta V R_theta^T)_11 / 2
        state = GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6]))
        batch = sample_homodyne_batch(state, 200_000, "rotvar")
        thetas = batch.thetas[:, 0]
        qs = batch.outcomes[:, 0]
        mask = np.abs((thetas - theta + np.pi) % (2 * np.pi) - np.pi) < 0.06
        sel = qs[mask]
        row = np.array([np.cos(theta), -np.sin(theta)])
        var_expected = 0.5 * row @ state.cov @ row
        assert sel.size > 1500
        stderr = var_expected * math.sqrt(2.0 / sel.size)
        assert sel.var() == pytest.approx(var_expected, abs=3 * stderr + 0.01)

    def test_cat_second_moment(self):
        # angle-averaged E[q^2] = tr(rho (X^2 + P^2))/2 = <n> + 1/2
        spec = CatStateSpec(1 + 1j, "zero")
        batch = sample_homodyne_batch(spec, 50_000, "catmo")
        qs = batch.outcomes[:, 0]
        coeffs = cat_fock_coefficients(spec, 40)
        expected = np.sum(np.arange(41) * np.abs(coeffs) ** 2) + 0.5
        stderr = (qs**2).std() / math.sqrt(len(qs))
        assert (qs**2).mean() == pytest.approx(expected, abs=4 * stderr)

    @pytest.mark.parametrize("name", ["cat", "fock1"])
    def test_q_marginal_matches_angle_average(self, name):
        # over uniform angles p(q) = sum_n rho_nn psi_n(q)^2: the off-diagonal
        # terms average out
        if name == "cat":
            state = CatStateSpec(1 + 1j, "zero")
            diag = np.diag(fock_matrix_of(state, 40).entries).real
        else:
            state = fock_state(1, 3)
            diag = np.diag(state.entries).real
        grid = np.linspace(-10.0, 10.0, 40_001)
        pdf = diag @ hermite_stack(diag.size - 1, grid) ** 2
        cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
        qs = sample_homodyne_batch(state, 20_000, f"ks/{name}").outcomes[:, 0]
        result = kstest(qs, lambda q: np.interp(q, grid, cdf / cdf[-1]))
        assert result.pvalue > 0.01

    def test_angles_uniform(self):
        # the proposal width depends on the angle for this cat (rotated
        # variance 0.86 to 8.9), so a wrong proposal density would tilt the
        # accepted angles away from uniform
        batch = sample_homodyne_batch(CatStateSpec(1 + 1j, "plus"), 20_000, "ks/theta")
        result = kstest(batch.thetas[:, 0], "uniform", args=(-np.pi, 2 * np.pi))
        assert result.pvalue > 0.01

    def test_envelope_violation_aborts(self, monkeypatch):
        import cvshadow.measurement as meas

        spec = CatStateSpec(1 + 1j, "zero")
        real_density = meas._homodyne_density
        probe_done: dict = {}

        def spiked(fock, thetas, q):
            vals = real_density(fock, thetas, q)
            if probe_done.get("armed"):
                return vals * 50.0  # violate the calibrated bound
            probe_done["armed"] = True  # first call is the probe grid
            return vals

        monkeypatch.setattr(meas, "_homodyne_density", spiked)
        with pytest.raises(RuntimeError, match="envelope"):
            meas.sample_homodyne_batch(spec, 100, "abort")

    def test_single_proposal_violation_aborts(self, monkeypatch):
        # one proposal of the first chunk above its bound aborts the batch
        import cvshadow.measurement as meas

        spec = CatStateSpec(1 + 1j, "zero")
        real_density = meas._homodyne_density
        calls: list = []

        def spiked(fock, thetas, q):
            vals = real_density(fock, thetas, q)
            calls.append(q.size)
            if len(calls) == 2:  # the first chunk, after the probe
                vals[123] = 1e6
            return vals

        monkeypatch.setattr(meas, "_homodyne_density", spiked)
        with pytest.raises(RuntimeError, match="envelope"):
            meas.sample_homodyne_batch(spec, 100, "abort-one")
        assert calls == [129 * 513, meas._REJECTION_CHUNK]

    def test_later_chunks_sized_for_the_remainder(self, monkeypatch):
        # the first chunk is full; later ones ask for 1.1 x the missing points
        # at the acceptance so far, so the bench cat at N = 1e5 stops near
        # 138k proposals instead of five full chunks (163840)
        import cvshadow.measurement as meas

        sizes: list = []
        real = meas._t_draws

        def spy(rng, size, dim):
            sizes.append(size)
            return real(rng, size, dim)

        monkeypatch.setattr(meas, "_t_draws", spy)
        batch = sample_homodyne_batch(CatStateSpec(1 + 1j, "zero"), 100_000, "chunks")
        assert batch.n == 100_000
        assert batch.meta["proposals"] == sum(sizes) <= 150_000
        assert sizes[0] == meas._REJECTION_CHUNK
        assert all(1024 <= size <= meas._REJECTION_CHUNK for size in sizes)
        assert sizes[-1] < meas._REJECTION_CHUNK

    def test_cat_batch_memory_bounded(self):
        # proposals come in fixed chunks: no intermediate grows with N
        spec = CatStateSpec(1 + 1j, "zero")
        sample_homodyne_batch(spec, 10, "warm")
        peak = traced_peak_mb(lambda: sample_homodyne_batch(spec, 100_000, "mem"))
        assert peak < 150.0

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_cat_sampler_memory_at_2e5(self, protocol):
        # fixed proposal chunks and an O(dim) target per point: the peak is
        # the probe and one chunk, not the batch
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        spec = CatStateSpec(1 + 1j, "zero")
        sample(spec, 10, "warm")
        peak = traced_peak_mb(lambda: sample(spec, 200_000, "mem2e5"))
        assert peak <= 32.0

    def test_gaussian_chain_memory_bounded(self):
        # one Cholesky of V/2 for the whole batch, no per-round covariances
        state = chain_ground_state(ChainSpec(200, 0.99))
        peak = traced_peak_mb(lambda: sample_homodyne_batch(state, 200, "mem200"))
        assert peak < 10.0

    @pytest.mark.parametrize("kind", sorted(NOT_STATES))
    def test_not_a_state_rejected(self, kind):
        with pytest.raises(ValueError, match="state"):
            sample_homodyne_batch(NOT_STATES[kind], 10, "bad")

    def test_single_record_api(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 1, "one")
        assert batch.protocol == "homodyne"
        assert batch.thetas.shape == (1, 1)
        assert batch.outcomes.shape == (1, 1)
        assert batch.seed_path == "one"


SCAN_STATES = {
    "cat-zero": CatStateSpec(1 + 1j, "zero"),
    "cat-plus-2": CatStateSpec(2.0, "plus"),
    "cat-minus-1.5j": CatStateSpec(1.5j, "minus"),
    "fock1": fock_state(1, 3),
    "fock3": fock_state(3, 5),
    "fock8": fock_state(8, 10),
    "thermal1-12": fock_matrix_of(GaussianStateSpec.thermal(1.0), 12),
}


def calibrated_probe(monkeypatch, protocol: str, state) -> dict:
    """The target ``_rejection_draws`` gets for ``state``, and its largest
    target / proposal ratio on the probe."""
    import cvshadow.measurement as meas

    seen: dict = {}
    real = meas._rejection_draws

    def spy(target, draw, probe, probe_density, n, rng):
        seen.update(target=target, probe_max=float((target(probe) / probe_density).max()))
        return real(target, draw, probe, probe_density, n, rng)

    monkeypatch.setattr(meas, "_rejection_draws", spy)
    sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
    sample(state, 10, "probe")
    return seen


class TestStudentTProposal:
    """One Student-t proposal (nu = 4) for both rejection samplers."""

    def test_density_matches_scipy(self):
        from scipy.stats import multivariate_t, t

        import cvshadow.measurement as meas

        z = np.linspace(-40.0, 40.0, 801)
        for loc, scale in ((0.0, 1.0), (1.3, 0.7), (-2.0, 2.9)):
            expected = t.pdf(loc + scale * z, df=4, loc=loc, scale=scale)
            vals = meas._t_density(z[:, None], scale)
            assert np.abs(vals / expected - 1.0).max() <= 1e-14
        rng = np.random.default_rng(5)
        zs = rng.standard_normal((500, 2)) * np.array([1.0, 10.0])
        for loc, chol in (
            (np.zeros(2), np.eye(2)),
            (np.array([0.4, -1.1]), np.array([[1.5, 0.0], [0.6, 0.8]])),
        ):
            dist = multivariate_t(loc, chol @ chol.T, df=4)
            expected = dist.pdf(loc + zs @ chol.T)
            vals = meas._t_density(zs, np.prod(np.diag(chol)))
            assert np.abs(vals / expected - 1.0).max() <= 1e-14

    def test_draws_follow_t(self):
        # t(4) in 1-D; in 2-D, |z|^2 / 2 of a t with nu = 4 follows F(2, 4)
        from scipy.stats import f

        import cvshadow.measurement as meas

        rng = np.random.default_rng(11)
        assert kstest(meas._t_draws(rng, 20_000, 1)[:, 0], "t", args=(4,)).pvalue > 0.01
        z = meas._t_draws(rng, 20_000, 2)
        assert kstest(0.5 * np.sum(z * z, axis=1), f(2, 4).cdf).pvalue > 0.01

    @pytest.mark.parametrize("name", ["cat-plus-2", "fock3", "thermal1-12"])
    def test_proposal_density_of_its_points(self, name):
        # the density each proposal map reports is the normalized t density of
        # the point it returns, located and scaled by the state's moments
        from scipy.stats import multivariate_t, t

        import cvshadow.measurement as meas

        fock = meas._sampling_fock(SCAN_STATES[name])
        mean, cov = fock_moments(fock)
        rng = np.random.default_rng(2)
        thetas, z = rng.uniform(-np.pi, np.pi, 300), 3.0 * rng.standard_normal((300, 1))
        pts, density = meas._homodyne_proposals(fock)(thetas, z)
        c, s = np.cos(thetas), np.sin(thetas)
        rows = np.stack([c, -s], axis=1)
        std = np.sqrt(0.5 * np.maximum(np.einsum("ni,ij,nj->n", rows, cov, rows), 1.0))
        expected = t.pdf(pts[:, 1], df=4, loc=rows @ mean, scale=std)
        assert np.array_equal(pts[:, 0], thetas)
        assert np.abs(density / expected - 1.0).max() <= 1e-12
        pts, density = meas._heterodyne_proposals(fock)(3.0 * rng.standard_normal((300, 2)))
        expected = multivariate_t(mean, 0.5 * (cov + np.eye(2)), df=4).pdf(pts)
        assert np.abs(density / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCAN_STATES))
    def test_homodyne_bound_holds_far_out(self, monkeypatch, name):
        import cvshadow.measurement as meas

        seen = calibrated_probe(monkeypatch, "homodyne", SCAN_STATES[name])
        proposals = meas._homodyne_proposals(meas._sampling_fock(SCAN_STATES[name]))
        thetas, z = np.linspace(-np.pi, np.pi, 121), np.linspace(-40.0, 40.0, 2001)
        pts, density = proposals(np.repeat(thetas, z.size), np.tile(z, thetas.size)[:, None])
        scanned = float((seen["target"](pts) / density).max())
        assert scanned <= meas._ENVELOPE_MARGIN * seen["probe_max"]

    @pytest.mark.parametrize("name", sorted(SCAN_STATES))
    def test_heterodyne_bound_holds_far_out(self, monkeypatch, name):
        import cvshadow.measurement as meas

        seen = calibrated_probe(monkeypatch, "heterodyne", SCAN_STATES[name])
        proposals = meas._heterodyne_proposals(meas._sampling_fock(SCAN_STATES[name]))
        axis = np.linspace(-40.0, 40.0, 601)
        z = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        pts, density = proposals(z)
        scanned = float((seen["target"](pts) / density).max())
        assert scanned <= meas._ENVELOPE_MARGIN * seen["probe_max"]

    def test_bench_cat_acceptance(self):
        spec = CatStateSpec(1 + 1j, "zero")
        assert sample_homodyne_batch(spec, 20_000, "acc").meta["acceptance"] >= 0.7
        assert sample_heterodyne_batch(spec, 20_000, "acc").meta["acceptance"] >= 0.6


class TestHeterodynePdf:
    def test_vacuum_closed_form(self):
        state = GaussianStateSpec.vacuum()
        x = np.array([0.7, -0.2])
        expected = np.exp(-0.5 * np.dot(x, x)) / (2 * np.pi)
        assert heterodyne_pdf(state, x) == pytest.approx(expected)

    def test_cat_matches_overlap_density(self):
        spec = CatStateSpec(1 + 1j, "zero")
        rng = np.random.default_rng(0)
        for x in rng.uniform(-3, 3, size=(8, 2)):
            assert heterodyne_pdf(spec, x) == pytest.approx(
                cat_position_pdf(spec, x) / (2 * np.pi)
            )

    @pytest.mark.parametrize("name", sorted(factored_inputs()))
    def test_factored_husimi_matches_dense(self, name):
        # <x|rho|x> / (2 pi) with <n|x> = exp(-|x|^2/4) alpha^n / sqrt(n!),
        # signed: the non-PSD input reads below zero at some points
        rho = factored_inputs()[name]
        axis = np.linspace(-5.0, 5.0, 21)
        x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        alpha = (x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0)
        n = np.arange(rho.truncation + 1)[:, None]
        norms = np.sqrt([float(math.factorial(k)) for k in range(rho.truncation + 1)])
        kets = np.exp(-0.25 * np.sum(x * x, axis=1)) * alpha**n / norms[:, None]
        dense = dense_expectation(rho.entries, kets) / (2.0 * np.pi)
        vals = fock_husimi(rho, x)
        assert np.abs(vals - dense).max() <= 1e-12 * np.abs(dense).max()
        if name == "not-psd":  # both signs: no value is clipped
            assert dense.min() < 0 < dense.max()

    def test_fock_path_matches_cat(self):
        spec = CatStateSpec(1 + 1j, "one")
        fock = fock_matrix_of(spec, 40)
        x = np.array([1.2, 0.4])
        assert fock_husimi(fock, x) == pytest.approx(
            heterodyne_pdf(spec, x), abs=1e-10
        )

    def test_chain_normalization_by_qmc(self):
        state = chain_ground_state(ChainSpec(2, 0.5))

        def density_flat(pts):
            return heterodyne_pdf(state, pts)

        box = BoxDomain([7.0, 7.0, 7.0, 7.0])
        val, _ = qmc_integrate(density_flat, box, 2**20)
        assert val == pytest.approx(1.0, abs=1e-3)


class TestSampleHeterodyne:
    def test_vacuum_moments(self):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 100_000, "hvac")
        pts = batch.outcomes[:, 0, :]
        assert np.allclose(pts.mean(axis=0), 0.0, atol=4.0 / math.sqrt(len(pts)))
        assert np.allclose(pts.var(axis=0), 1.0, rtol=0.02)

    def test_chain_covariance(self):
        state = chain_ground_state(ChainSpec(10, 0.99))
        batch = sample_heterodyne_batch(state, 100_000, "hchain")
        pts = batch.outcomes
        flat = np.concatenate([pts[:, :, 0], pts[:, :, 1]], axis=1)
        emp = np.cov(flat.T, bias=False)
        # outcome covariance in the vacuum-is-identity normalization is 2x
        # the numpy covariance of draws ~ N(0, (V+I)/2)
        expected = heterodyne_covariance(state)
        rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
        assert rel < 0.05

    def test_cat_one_acceptance_and_moments(self):
        spec = CatStateSpec(1 + 1j, "one")
        batch = sample_heterodyne_batch(spec, 40_000, "hcat")
        assert batch.meta["acceptance"] >= 0.1
        pts = batch.outcomes[:, 0, :]
        mean_expected, cov = fock_moments(fock_matrix_of(spec, 40))
        sigma = 0.5 * (cov + np.eye(2))
        stderr = np.sqrt(np.diag(sigma) / len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - mean_expected) < 3 * stderr + 1e-9)

        # homodyne: E[q | theta] = cos(theta) t_x - sin(theta) t_p, so
        # 2 E[q cos(theta)] = t_x and -2 E[q sin(theta)] = t_p
        batch = sample_homodyne_batch(spec, 40_000, "hcat")
        assert batch.meta["acceptance"] >= 0.1
        # the acceptance counts every accepted proposal, surplus included
        assert batch.meta["acceptance"] * batch.meta["proposals"] >= len(pts)
        q, theta = batch.outcomes[:, 0], batch.thetas[:, 0]
        proj = np.stack([2 * q * np.cos(theta), -2 * q * np.sin(theta)], axis=-1)
        stderr = proj.std(axis=0) / math.sqrt(len(q))
        assert np.all(np.abs(proj.mean(axis=0) - mean_expected) < 3 * stderr)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fock_outcomes_follow_gamma(self, n):
        # heterodyne of |n>: |alpha|^2 = |x|^2 / 2 follows Gamma(n + 1) and the
        # outcome angle is uniform
        pts = sample_heterodyne_batch(fock_state(n, 3), 20_000, f"ks/het{n}").outcomes[:, 0]
        assert kstest(0.5 * np.sum(pts * pts, axis=1), "gamma", args=(n + 1,)).pvalue > 0.01
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        assert kstest(angles, "uniform", args=(-np.pi, 2 * np.pi)).pvalue > 0.01

    def test_envelope_violation_aborts(self, monkeypatch):
        import cvshadow.measurement as meas

        spec = CatStateSpec(1 + 1j, "zero")
        real_husimi = meas.fock_husimi
        probe_done: dict = {}

        def spiked(fock, x):
            vals = np.asarray(real_husimi(fock, x), dtype=float)
            if probe_done.get("armed"):
                return vals * 50.0  # violate the calibrated bound
            probe_done["armed"] = True  # first call is the probe grid
            return vals

        monkeypatch.setattr(meas, "fock_husimi", spiked)
        with pytest.raises(RuntimeError, match="envelope"):
            meas.sample_heterodyne_batch(spec, 100, "abort")

    @pytest.mark.parametrize("kind", sorted(NOT_STATES))
    def test_not_a_state_rejected(self, kind):
        with pytest.raises(ValueError, match="state"):
            sample_heterodyne_batch(NOT_STATES[kind], 10, "bad")

    def test_single_record_api(self):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 1, "h1")
        assert batch.protocol == "heterodyne"
        assert batch.thetas is None
        assert batch.outcomes.shape == (1, 1, 2)

    def test_uncoupled_chain_factorizes(self):
        n = 40_000
        state = chain_ground_state(ChainSpec(2, 0.0))
        batch = sample_heterodyne_batch(state, n, "hfact")
        pts = batch.outcomes
        for a in range(2):
            for b in range(2):
                corr = np.corrcoef(pts[:, 0, a], pts[:, 1, b])[0, 1]
                assert abs(corr) < 3.0 / math.sqrt(n)


class TestCorrelatedGaussian:
    """x-p correlations make the xp block C nonzero, so the sampler uses L21."""

    MODES, N = 4, 100_000

    @staticmethod
    def assert_moments(flat, mean, cov):
        # test_chain_covariance's tolerance on the covariance
        rel = np.linalg.norm(np.cov(flat.T) - cov) / np.linalg.norm(cov)
        assert rel < 0.05
        stderr = np.sqrt(np.diag(cov) / len(flat))
        assert np.all(np.abs(flat.mean(axis=0) - mean) < 4.0 * stderr)

    def test_heterodyne_covariance(self):
        state = correlated_gaussian(self.MODES, 7)
        assert np.abs(state.cov[: self.MODES, self.MODES :]).max() > 0.1
        pts = sample_heterodyne_batch(state, self.N, "hcorr").outcomes
        flat = np.concatenate([pts[:, :, 0], pts[:, :, 1]], axis=1)
        self.assert_moments(flat, state.mean, heterodyne_covariance(state))

    def test_homodyne_draws_covariance(self):
        # the rounds are cos(theta) x - sin(theta) p of phase-space draws from N(t, V/2)
        m, n = self.MODES, self.N
        state = correlated_gaussian(m, 7)
        batch = sample_homodyne_batch(state, n, "qcorr")
        rng = stream_rng("qcorr")
        thetas = rng.uniform(-np.pi, np.pi, size=(n, m))
        draws = _gaussian_draws(state, 0.0, n, rng)
        assert np.array_equal(thetas, batch.thetas)
        rounds = np.cos(thetas) * draws[:, :m] - np.sin(thetas) * draws[:, m:]
        assert np.array_equal(rounds, batch.outcomes)
        self.assert_moments(draws, state.mean, 0.5 * state.cov)


@pytest.fixture(scope="module")
def chain1000():
    return chain_ground_state(ChainSpec(1000, 0.99))


class TestThousandModeMemory:
    """Peaks at m = 1000: no 2m x 2m covariance or factor, no list of file lines."""

    @pytest.mark.parametrize("sample", [sample_heterodyne_batch, sample_homodyne_batch])
    def test_gaussian_sampler(self, chain1000, sample):
        assert traced_peak_mb(lambda: sample(chain1000, 1000, "mem1000")) <= 64.0

    def test_chain_ground_state(self):
        assert traced_peak_mb(lambda: chain_ground_state(ChainSpec(1000, 0.99))) <= 96.0

    def test_from_jsonl(self, tmp_path):
        # 1000 rounds of 1000 modes: 12 MB of lines, 16 MB of outcomes
        path = tmp_path / "records.jsonl"
        SampleBatch("heterodyne", np.full((1000, 1000, 2), -0.5), None, "mem").to_jsonl(path)
        assert traced_peak_mb(lambda: SampleBatch.from_jsonl(path)) <= 20.0


class TestRecordsAndBatches:
    def test_jsonl_roundtrip_bit_exact(self, tmp_path):
        batch = sample_homodyne_batch(GaussianStateSpec.thermal(0.3), 50, "rt")
        path = tmp_path / "records.jsonl"
        batch.to_jsonl(path)
        loaded = SampleBatch.from_jsonl(path)
        assert loaded.n == batch.n
        assert loaded.protocol == batch.protocol
        assert np.array_equal(loaded.thetas, batch.thetas)
        assert np.array_equal(loaded.outcomes, batch.outcomes)
        assert loaded.seed_path == batch.seed_path == "rt"
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        assert all(json.loads(line)["seed_path"] == "rt" for line in lines)

    def test_heterodyne_roundtrip(self, tmp_path):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 20, "rth")
        path = tmp_path / "records.jsonl"
        batch.to_jsonl(path)
        loaded = SampleBatch.from_jsonl(path)
        assert np.array_equal(loaded.outcomes, batch.outcomes)

    def test_mixed_protocols_rejected(self, tmp_path):
        hom = tmp_path / "hom.jsonl"
        het = tmp_path / "het.jsonl"
        sample_homodyne_batch(GaussianStateSpec.vacuum(), 2, "a").to_jsonl(hom)
        sample_heterodyne_batch(GaussianStateSpec.vacuum(), 1, "a").to_jsonl(het)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(hom.read_text() + het.read_text())
        with pytest.raises(ValueError, match="line 3 has protocol 'heterodyne'"):
            SampleBatch.from_jsonl(mixed)

    def test_two_streams_rejected(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        sample_homodyne_batch(GaussianStateSpec.vacuum(), 3, "s/0").to_jsonl(a)
        sample_homodyne_batch(GaussianStateSpec.vacuum(), 3, "s/1").to_jsonl(b)
        joined = tmp_path / "joined.jsonl"
        joined.write_text(a.read_text() + b.read_text())
        with pytest.raises(ValueError, match="line 4 .*seed_path 's/1'"):
            SampleBatch.from_jsonl(joined)

    def test_malformed_files_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"protocol":"homodyne","thetas":[0.1],"outcome":[0.5],"seed_path":"x"}'
        cases = {
            "\n": "no records",
            good.replace('"outcome"', '"outcomes"'): "line 1 is not a record",
            "[1, 2]\n": "line 1 is not a record",
            good + "\n" + good.replace("[0.5]", "[0.5,0.6]"): r"line 2 has shape \(2,\)",
        }
        for text, message in cases.items():
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                SampleBatch.from_jsonl(path)

    def test_bad_record_shapes(self):
        with pytest.raises(ValueError):
            SampleBatch("homodyne", [[0.5]], [[0.1, 0.2]], "x")
        with pytest.raises(ValueError):
            SampleBatch("heterodyne", [[0.5, 0.2]], None, "x")
        with pytest.raises(ValueError):
            SampleBatch("heterodyne", [[[0.5, np.nan]]], None, "x")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="angles must be finite"):
                SampleBatch("homodyne", [[0.5, 0.1]], [[0.2, bad]], "x")
        with pytest.raises(ValueError):
            SampleBatch("quadrature", [[0.5]], [[0.1]], "x")

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_writer_bytes_match_json_dumps(self, tmp_path, protocol):
        extremes = np.array([-0.0, 5e-324, 1.797e308, 1e16, -1e-300, 0.1, -2.5e-7, 3.0])
        path = tmp_path / "records.jsonl"
        for seed_path in ("", 'cvshadow/1/"q\\é"/%s %d %%', "s/1"):
            if protocol == "homodyne":
                outcomes, thetas = np.resize(extremes, (6, 3)), np.resize(extremes[::-1], (6, 3))
            else:
                outcomes, thetas = np.resize(extremes, (5, 3, 2)), None
            batch = SampleBatch(protocol, outcomes, thetas, seed_path)
            batch.to_jsonl(path)
            assert path.read_bytes() == reference_jsonl(batch)
            loaded = SampleBatch.from_jsonl(path)
            assert loaded.seed_path == seed_path
            assert np.array_equal(loaded.outcomes, batch.outcomes)
            assert np.array_equal(np.signbit(loaded.outcomes), np.signbit(batch.outcomes))

    def test_multi_block_roundtrip_bit_exact(self, tmp_path):
        import cvshadow.measurement as meas

        modes = 40
        rows = 2 * (meas._JSONL_BLOCK_VALUES // (2 * modes)) + 3
        for batch in (
            sample_homodyne_batch(GaussianStateSpec.thermal(0.3, modes=modes), rows, "mb/h"),
            sample_heterodyne_batch(GaussianStateSpec.thermal(0.3, modes=modes), rows, "mb/x"),
        ):
            path = tmp_path / f"{batch.protocol}.jsonl"
            batch.to_jsonl(path)
            assert path.read_bytes() == reference_jsonl(batch)
            loaded = SampleBatch.from_jsonl(path)
            assert loaded.n == rows
            assert np.array_equal(loaded.outcomes, batch.outcomes)
            if batch.thetas is not None:
                assert np.array_equal(loaded.thetas, batch.thetas)

    def test_slice_is_a_batch(self):
        batch = sample_homodyne_batch(GaussianStateSpec.thermal(0.4, modes=2), 10, "sl")
        part = batch[3:7]
        assert (part.n, part.modes, part.seed_path) == (4, 2, "sl")
        assert np.array_equal(part.thetas, batch.thetas[3:7])
        assert np.array_equal(part.outcomes, batch.outcomes[3:7])

    def test_disjoint_streams_differ(self):
        a = sample_homodyne_batch(GaussianStateSpec.vacuum(), 10, "s/0")
        b = sample_homodyne_batch(GaussianStateSpec.vacuum(), 10, "s/1")
        assert not np.array_equal(a.outcomes, b.outcomes)
