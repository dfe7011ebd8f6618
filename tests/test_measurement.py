"""Synthetic homodyne/heterodyne samplers and their outcome densities."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid, quad
from scipy.stats import kstest

from cvshadow.measurement import (
    SampleBatch,
    fock_husimi,
    jsonl_header,
    sample_blocks,
    sample_heterodyne_batch,
    sample_homodyne_batch,
    stream_rng,
)
from cvshadow.states import (
    SLICE_BUDGETS,
    CatStateSpec,
    ChainSpec,
    FockMatrix,
    GaussianStateSpec,
    cat_fock_coefficients,
    chain_ground_state,
    chain_state,
    fock_matrix_of,
    value_slices,
)
from cvshadow.cli import build_state
from cvshadow.phase_space import hermite_stack
from conftest import (
    BoxDomain,
    b64_floats,
    b64_values,
    batch_rows,
    cat_position_pdf,
    correlated_gaussian,
    diagonal_moments,
    hermite_wavefunction,
    heterodyne_covariance,
    heterodyne_pdf,
    homodyne_pdf,
    qmc_integrate,
    rank_factors,
    reference_jsonl,
    traced_peak,
    whole_probe,
)


def fock_state(n: int, truncation: int) -> FockMatrix:
    mat = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    mat[n, n] = 1.0
    return FockMatrix(1, truncation, mat)


def probe_slices(points: int) -> list[int]:
    """Sizes of the target calls on a rejection probe of ``points`` proposals."""
    return [s.stop - s.start for s in value_slices(points, 1, SLICE_BUDGETS["proposals"])]


def write_jsonl(batch: SampleBatch, path) -> None:
    with open(path, "w") as fh:
        batch.to_jsonl(fh)


def dense_expectation(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Reference ``<v|rho|v> = sum conj(v) (rho v)`` for every column ``v``."""
    return np.sum(kets.conj() * (rho @ kets), axis=0).real


def factored_inputs() -> dict:
    """Matrices whose factored densities are pinned against the dense form."""
    rng = np.random.default_rng(17)
    mixed = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    square = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    return {
        "cat": fock_matrix_of(CatStateSpec(1 + 1j, "zero"), 21),
        "fock3": fock_state(3, 5),
        "rank3": FockMatrix(1, 7, mixed @ mixed.conj().T / np.sum(np.abs(mixed) ** 2)),
        "thermal": fock_matrix_of(GaussianStateSpec.thermal(0.7), 10),
        "not-psd": FockMatrix(1, 5, 0.5 * (square + square.conj().T)),
    }


def input_factors(name: str, rho: FockMatrix):
    """The samplers' own factors of a state; every eigenpair of a matrix that is not one."""
    import cvshadow.measurement as meas

    return rank_factors(rho) if name == "not-psd" else meas._sampling_factors(rho)


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
        for theta, q, val in zip(thetas, qs, _homodyne_density(rank_factors(rho), thetas, qs)):
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
        import cvshadow.measurement as meas

        rho = factored_inputs()[name]
        factors = input_factors(name, rho)
        q = np.linspace(-6.0, 6.0, 61)
        n = np.arange(rho.truncation + 1)[:, None]
        for theta in (-2.5, 0.0, 0.7, 3.0):
            kets = hermite_stack(rho.truncation, q) * np.exp(-1j * n * theta)
            dense = dense_expectation(rho.entries, kets)
            vals = meas._homodyne_density(factors, theta, q)
            assert np.abs(vals - dense).max() <= 1e-12 * np.abs(dense).max()
            if name == "not-psd":  # both signs: the signed weights matter
                assert dense.min() < 0 < dense.max()

    @pytest.mark.parametrize("alpha", [26.0, 28.0])
    def test_far_lobes_of_a_cat(self, alpha):
        # exp(-q^2/2) underflows beyond |q| = 38.6, and the alpha = 28 cat's lobes
        # sit at q = +-39.6: each reads half a coherent peak, pi^(-1/2) / 2
        import cvshadow.measurement as meas

        spec = CatStateSpec(alpha, "plus")
        truncation = int(alpha * alpha + 10 * alpha + 40)
        coeffs = cat_fock_coefficients(spec, truncation)
        q = np.array([-1.0, 1.0]) * math.sqrt(2.0) * alpha
        density = meas._homodyne_density((np.ones(1), coeffs[:, None]), 0.0, q)
        assert np.abs(density - 0.5 / math.sqrt(math.pi)).max() <= 1e-6


class TestDensitySlices:
    """Both densities evaluate the "density" budget // dim points at a time."""

    @staticmethod
    def one_slice(monkeypatch, factors, n):
        # a value budget that fits all n points of the state in one slice
        monkeypatch.setitem(SLICE_BUDGETS, "density", n * len(factors[1]))

    @staticmethod
    def densities(factors, n):
        import cvshadow.measurement as meas

        rng = np.random.default_rng(8)
        thetas, q = rng.uniform(-np.pi, np.pi, n), 3.0 * rng.standard_normal(n)
        x = 3.0 * rng.standard_normal((n, 2))
        return meas._homodyne_density(factors, thetas, q), fock_husimi(factors, x)

    @pytest.mark.parametrize("name", ["cat-zero", "fock3", "thermal1-12"])
    def test_slices_are_the_whole_evaluation(self, monkeypatch, name):
        # elementwise per point, so a pure state's homodyne density keeps its
        # bits; the products over factors and amplitudes are BLAS calls, whose
        # rounding may follow the number of points and threads
        import cvshadow.measurement as meas

        factors = meas._sampling_factors(SCAN_STATES[name])
        n = 2 * (SLICE_BUDGETS["density"] // len(factors[1])) + 3
        sliced = self.densities(factors, n)
        self.one_slice(monkeypatch, factors, n)
        whole = self.densities(factors, n)
        for got, expected in zip(sliced, whole):
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        if name == "cat-zero":
            assert np.array_equal(sliced[0], whole[0])

    def test_heterodyne_slices_keep_their_bits_at_two_blas_threads(self, monkeypatch):
        # the amplitude products run on one OpenBLAS thread, so a threaded
        # caller gets the bits of one whole-batch product
        import cvshadow.measurement as meas

        calls = meas._openblas_threads()
        if calls is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, put = calls
        factors = meas._sampling_factors(CatStateSpec(1 + 1j, "zero"))
        n = 2 * (SLICE_BUDGETS["density"] // len(factors[1])) + 3
        x = 3.0 * np.random.default_rng(8).standard_normal((n, 2))
        before = get()
        try:
            put(2)
            sliced = fock_husimi(factors, x)
            self.one_slice(monkeypatch, factors, n)
            assert np.array_equal(sliced, fock_husimi(factors, x))
            assert get() == 2
        finally:
            put(before)

    @pytest.mark.parametrize("density", ["homodyne", "heterodyne"])
    def test_density_memory_at_2e5_points(self, density):
        # one (dim, 2**17 // dim) slice of Hermite rows or amplitudes at a
        # time: 45 and 111 MB while the whole (dim, 2e5) block was built
        import cvshadow.measurement as meas

        factors = meas._sampling_factors(CatStateSpec(1 + 1j, "zero"))
        rng = np.random.default_rng(9)
        if density == "homodyne":
            thetas, q = rng.uniform(-np.pi, np.pi, 200_000), 2.0 * rng.standard_normal(200_000)
            peak = traced_peak(lambda: meas._homodyne_density(factors, thetas, q))
        else:
            x = 2.0 * rng.standard_normal((200_000, 2))
            peak = traced_peak(lambda: fock_husimi(factors, x))
        assert peak <= 8.0

    def test_memory_bounded_in_values_at_large_truncation(self):
        # a cat of alpha = 40 (dim 1851) takes 64 points a slice, so 192 points
        # are three slices: two (1851, 64) float blocks alive at the peak of the
        # homodyne density, one complex block and its log-domain float at the
        # heterodyne's; 2.9 and 8.9 MB while the 192 points were one slice
        import cvshadow.measurement as meas

        factors = meas._sampling_factors(CatStateSpec(40, "zero"))
        assert len(factors[1]) == 1851
        rng = np.random.default_rng(10)
        thetas, q = rng.uniform(-np.pi, np.pi, 192), 3.0 * rng.standard_normal(192)
        x = 3.0 * rng.standard_normal((192, 2))
        assert traced_peak(lambda: meas._homodyne_density(factors, thetas, q)) <= 2.5
        assert traced_peak(lambda: fock_husimi(factors, x)) <= 4.0


class TestSampleHomodyne:
    def test_reproducible(self):
        state = GaussianStateSpec.vacuum()
        a = sample_homodyne_batch(state, 5, "seed42")
        b = sample_homodyne_batch(state, 5, "seed42")
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_vacuum_variance(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 100_000, "var")
        q = batch.outcomes[:, 0, 1]
        assert q.var() == pytest.approx(0.5, abs=0.01)
        assert np.all(batch.outcomes[..., 0] >= -np.pi)
        assert np.all(batch.outcomes[..., 0] < np.pi)

    def test_thermal_variance(self):
        batch = sample_homodyne_batch(GaussianStateSpec.thermal(1.0), 100_000, "th")
        assert batch.outcomes[:, 0, 1].var() == pytest.approx(1.5, abs=0.02)

    def test_uncoupled_chain_uncorrelated(self):
        # the dense state and the spectral one the CLI builds
        for state in (chain_ground_state(ChainSpec(2, 0.0)), chain_state(ChainSpec(2, 0.0))):
            batch = sample_homodyne_batch(state, 100_000, "chain0")
            qs = batch.outcomes[..., 1]
            corr = np.corrcoef(qs[:, 0], qs[:, 1])[0, 1]
            assert abs(corr) < 0.01

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_rotated_variance_matches_covariance(self, theta):
        # conditional on the angle, Var(q) = (R_theta V R_theta^T)_11 / 2
        state = GaussianStateSpec(np.zeros(2), np.diag([2.0, 0.6]))
        batch = sample_homodyne_batch(state, 200_000, "rotvar")
        thetas = batch.outcomes[:, 0, 0]
        qs = batch.outcomes[:, 0, 1]
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
        qs = batch.outcomes[:, 0, 1]
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
        qs = sample_homodyne_batch(state, 20_000, f"ks/{name}").outcomes[:, 0, 1]
        result = kstest(qs, lambda q: np.interp(q, grid, cdf / cdf[-1]))
        assert result.pvalue > 0.01

    def test_angles_uniform(self):
        # the proposal width depends on the angle for this cat (rotated
        # variance 0.86 to 8.9), so a wrong proposal density would tilt the
        # accepted angles away from uniform
        batch = sample_homodyne_batch(CatStateSpec(1 + 1j, "plus"), 20_000, "ks/theta")
        result = kstest(batch.outcomes[:, 0, 0], "uniform", args=(-np.pi, 2 * np.pi))
        assert result.pvalue > 0.01

    def test_envelope_violation_aborts(self, monkeypatch):
        import cvshadow.measurement as meas

        spec = CatStateSpec(1 + 1j, "zero")
        real_density = meas._homodyne_density
        probe_done = {"calls": 0, "slices": len(probe_slices(129 * 513))}

        def spiked(factors, thetas, q):
            vals = real_density(factors, thetas, q)
            if probe_done["calls"] == probe_done["slices"]:
                return vals * 50.0  # violate the calibrated bound
            probe_done["calls"] += 1  # the first calls are the probe grid's slices
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

        probe = probe_slices(129 * 513)

        def spiked(factors, thetas, q):
            vals = real_density(factors, thetas, q)
            calls.append(q.size)
            if len(calls) == len(probe) + 1:  # the first chunk, after the probe's slices
                vals[123] = 1e6
            return vals

        monkeypatch.setattr(meas, "_homodyne_density", spiked)
        with pytest.raises(RuntimeError, match="envelope"):
            meas.sample_homodyne_batch(spec, 100, "abort-one")
        # every chunk holds the "proposals" budget, whatever N is
        assert calls == probe + [SLICE_BUDGETS["proposals"]]

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_state_factored_once_per_batch(self, monkeypatch, sample):
        # the state check reads the smallest eigenvalue, and the target is
        # evaluated on the probe and on every chunk: one eigh serves them all
        spec = fock_matrix_of(CatStateSpec(1 + 1j, "zero"), 21)
        calls: list = []

        def counted(real):
            def call(a, *args, **kwargs):
                calls.append((real.__name__, a.shape))
                return real(a, *args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        batch = sample(spec, 40_000, "one-eigh")
        assert batch.meta["proposals"] > SLICE_BUDGETS["proposals"]  # 2+ chunks
        assert calls == [("eigh", (22, 22))]

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_stops_within_one_chunk_of_n_rounds(self, sample):
        # 4096-proposal chunks: at N = 1e4 the batch stops after four of
        # them (16384 proposals) at the bench cat's 67-73 % acceptance, not
        # after one chunk of 32768
        batch = sample(CatStateSpec(1 + 1j, "zero"), 10_000, "first-chunk")
        assert batch.n == 10_000
        assert batch.meta["proposals"] <= 20_000

    def test_every_chunk_holds_the_budget(self, monkeypatch):
        # every chunk draws SLICE_BUDGETS["proposals"] proposals, whatever is
        # missing, so the bench cat at N = 1e5 stops at 34 chunks (139264
        # proposals), past the last point by less than one chunk
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
        assert set(sizes) == {SLICE_BUDGETS["proposals"]}

    def test_cat_batch_memory_bounded(self):
        # proposals come in fixed chunks: no intermediate grows with N
        spec = CatStateSpec(1 + 1j, "zero")
        sample_homodyne_batch(spec, 10, "warm")
        peak = traced_peak(lambda: sample_homodyne_batch(spec, 100_000, "mem"))
        assert peak < 150.0

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_map_and_target_run_on_whole_chunks(self, monkeypatch, sample):
        # the proposal map, the target, the envelope check and the acceptance
        # work through the proposals one 4096-proposal chunk at a time
        import cvshadow.measurement as meas

        mapped, sizes, real = [], [], meas._rejection_draws

        def spy(target, proposals, draw, bound, n, rng):
            def mapping(rows):
                mapped.append(len(rows))
                return proposals(rows)

            def sized(pts):
                sizes.append(len(pts))
                return target(pts)

            return real(sized, mapping, draw, bound, n, rng)

        monkeypatch.setattr(meas, "_rejection_draws", spy)
        sample(CatStateSpec(1 + 1j, "zero"), 50_000, "slices")
        assert sizes[0] == max(sizes) == 4096
        assert mapped == sizes

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize("name", ["cat-zero", "thermal1-12"])
    def test_sliced_probe_is_the_whole_probe(self, monkeypatch, protocol, name):
        # the probe is formed and its ratios taken one slice of proposals at a
        # time, in one pass; points, densities and bound keep the bits of the
        # whole grid
        import cvshadow.measurement as meas

        points, densities, seen, real = [], [], {}, meas._envelope_bound

        def spy(target, proposals, a, b):
            def mapping(rows):
                pts, density = proposals(rows)
                densities.append(density.copy())
                return pts, density

            def seen_target(pts):
                points.append(pts.copy())
                return target(pts)

            seen["bound"] = real(seen_target, mapping, a, b)
            return seen["bound"]

        monkeypatch.setattr(meas, "_envelope_bound", spy)
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        sample(SCAN_STATES[name], 10, "probe")
        probe, density, bound = whole_probe(SCAN_STATES[name], protocol)
        assert [len(pts) for pts in points] == probe_slices(len(probe))
        assert np.array_equal(np.concatenate(points), probe)
        assert np.array_equal(np.concatenate(densities), density)
        assert seen["bound"] == bound

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_cat_factored_without_eigh(self, monkeypatch, sample):
        # a cat is its amplitudes c: one factor, weight 1 and vector c, and
        # no (dim, dim) matrix or eigh (6 s at alpha = 40, truncation 1850)
        import cvshadow.measurement as meas

        def refused(*args, **kwargs):
            raise AssertionError("a cat needs no dense matrix and no eigh")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np, "outer", refused)
        batch = sample(CatStateSpec(1 + 1j, "zero"), 2000, "no-eigh")
        assert batch.n == 2000 and batch.meta["acceptance"] > 0.5
        monkeypatch.undo()
        spec = CatStateSpec(1 + 1j, "plus")
        lam, u = meas._sampling_factors(spec)
        dense_lam, dense_u = meas._sampling_factors(fock_matrix_of(spec, 21))
        assert lam.tolist() == [1.0]
        norm = np.linalg.norm(u[:, 0])
        assert lam * norm**2 == pytest.approx(dense_lam, abs=1e-15)
        assert abs(np.vdot(u[:, 0], dense_u[:, 0])) / norm == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("name", ["cat-zero", "cat-plus-2", "cat-minus-1.5j"])
    def test_cat_moments_are_the_dense_bits(self, name):
        # the proposal's moments come from the products c[k:] conj(c[:-k]) that
        # the dense matrix's diagonals hold, so the proposals keep their bits
        import cvshadow.measurement as meas

        lam, u = meas._sampling_factors(SCAN_STATES[name])
        dense = fock_matrix_of(SCAN_STATES[name], len(u) - 1)
        for got, expected in zip(meas._moments(lam, u), diagonal_moments(dense)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_rejection_blocks_are_the_batch(self, protocol):
        # one block per proposal chunk that accepts a point; the last carries the meta
        import cvshadow.measurement as meas

        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        spec = CatStateSpec(1 + 1j, "zero")
        blocks = list(meas.sample_blocks(spec, protocol, 40_000, "blocks"))
        whole = sample(spec, 40_000, "blocks")
        assert len(blocks) >= 2
        assert all(block.n <= SLICE_BUDGETS["proposals"] for block in blocks)
        assert all(block.meta == {} for block in blocks[:-1])
        assert blocks[-1].meta == whole.meta
        assert set(whole.meta) == {"acceptance", "proposals"}
        outcomes = np.concatenate([block.outcomes for block in blocks])
        assert np.array_equal(outcomes, whole.outcomes)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize(
        "state",
        [CatStateSpec(1 + 1j, "zero"), fock_matrix_of(CatStateSpec(1 + 1j, "plus"), 21)],
        ids=["cat", "fock"],
    )
    def test_rounds_do_not_depend_on_n(self, protocol, state):
        # no chunk is sized from N, so N rounds are the first N rounds of any
        # longer batch on the same seed path
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        short = sample(state, 5000, "prefix")
        long = sample(state, 20_000, "prefix")
        assert np.array_equal(short.outcomes, long.outcomes[:5000])

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_cat_sampler_memory_at_2e5(self, protocol):
        # fixed proposal chunks and densities in fixed point slices: the peak is
        # the probe, one chunk and the returned batch
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        spec = CatStateSpec(1 + 1j, "zero")
        sample(spec, 10, "warm")
        peak = traced_peak(lambda: sample(spec, 200_000, "mem2e5"))
        assert peak <= 32.0

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_cat_sampler_memory_beyond_its_batch(self, protocol, n):
        # beyond the returned arrays, the probe, one chunk and one density
        # slice: 13 to 24 MB while a density built the (dim, points) block of
        # the whole probe or chunk
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        spec = CatStateSpec(1 + 1j, "zero")
        sample(spec, 10, "warm")
        batches: list = []
        peak = traced_peak(lambda: batches.append(sample(spec, n, "beyond")))
        held = batches[0].outcomes.nbytes
        assert peak - held / 1e6 <= 10.0
        if protocol == "homodyne":
            # the probe formed and evaluated in slices of proposals, and one
            # 4096-proposal chunk at a time: 1.30 MB at either N, where
            # 32768-proposal chunks took 1.61 and 1.99 MB and the whole probe
            # 5.5 and 3.7 MB
            assert peak - held / 1e6 <= 1.8

    @pytest.mark.parametrize(
        "protocol, bound", [("homodyne", 1.8), ("heterodyne", 3.2)], ids=["homodyne", "heterodyne"]
    )
    def test_cat_sampler_streams_its_chunks(self, protocol, bound):
        # each chunk is 4096 proposals, drawn, mapped, evaluated and accepted
        # whole: 1.30 and 2.68 MB beyond the batch at N = 1e5, where 32768-
        # proposal chunks read 1.99 and 3.36 MB, and with chunk-sized
        # points, densities and mapping temporaries 2.96 and 3.55 MB
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        spec = CatStateSpec(1 + 1j, "zero")
        sample(spec, 10, "warm")
        batches: list = []
        peak = traced_peak(lambda: batches.append(sample(spec, 100_000, "beyond")))
        assert peak - batches[0].outcomes.nbytes / 1e6 <= bound

    @pytest.mark.parametrize(
        "protocol, digest, acceptance, proposals",
        [
            (
                "homodyne",
                "ffef6371f815fa41720d15f1c3cc61c161fe10ff8c537125ab4314d0d0f58cb1",
                "0x1.7296db6db6db7p-1",
                28672,
            ),
            (
                "heterodyne",
                "759cbfafc4a312789bcbeec0a2ff51affe03ba3fc4b1a41014c7c8aa393ac5a8",
                "0x1.58a0000000000p-1",
                32768,
            ),
        ],
        ids=["homodyne", "heterodyne"],
    )
    def test_seeded_cat_batches_keep_their_bits(self, protocol, digest, acceptance, proposals):
        # the bench cat's rounds, acceptance and proposal count, as the
        # sampler draws them in chunks of 4096 proposals
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(CatStateSpec(1 + 1j, "zero"), 20_000, f"pin/{protocol}")
        outcomes = np.ascontiguousarray(batch.outcomes, "<f8").tobytes()
        assert hashlib.sha256(outcomes).hexdigest() == digest
        assert batch.meta == {"acceptance": float.fromhex(acceptance), "proposals": proposals}

    @pytest.mark.parametrize(
        "protocol, n, digest",
        [
            ("homodyne", 0, "bee27b07e6fb86c920fbd18ee3d90be4910ac3a8dea7fd1492103c882a41600c"),
            ("homodyne", 2, "3308900a5b007b1da2f21b280b542a8d4647e2a8aaec4e2b539da57dbd5dfebe"),
            ("homodyne", 5, "5e5a83f4dc63ce45f9e407341f316aa751f253a5e1541df69dc5abfb4ff4415c"),
            ("heterodyne", 0, "3f8bd2e02c87fd80c0b7d89dc7e299b979feea7226b08df29de5ceb77f095cec"),
            ("heterodyne", 2, "c6ce0d8352d30ed054b3ea5d8d6f789388b671b738cc28e1c0231d4e282a93a5"),
            ("heterodyne", 5, "8c6fcfc38601845e9869a20bc4742dcef239a8d67d9296154fc0f19a352df0eb"),
        ],
        ids=[f"{protocol}-{n}" for protocol in ("homodyne", "heterodyne") for n in (0, 2, 5)],
    )
    def test_seeded_fock_batches_keep_their_bits(self, protocol, n, digest):
        # the config's fock kind, a diagonal matrix: its factors are eigh's
        # and its moments their diagonal sums, with the bits that the
        # matrix's own diagonals gave
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(build_state({"kind": "fock", "n": n}), 8000, f"pin/fock{n}/{protocol}")
        outcomes = np.ascontiguousarray(batch.outcomes, "<f8").tobytes()
        assert hashlib.sha256(outcomes).hexdigest() == digest

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_state_checks_at_their_bounds(self, sample):
        # an eigenvalue down to -1e-10 is rounding and is sampled; below it
        # the matrix is refused, and so is a matrix of two modes
        near = FockMatrix(1, 1, np.diag([1.0, -1e-11]))
        assert sample(near, 100, "bounds").n == 100
        with pytest.raises(ValueError, match=r"not a state \(minimum eigenvalue -1\.000e-09"):
            sample(FockMatrix(1, 1, np.diag([1.0, -1e-9])), 100, "bounds")
        with pytest.raises(ValueError, match="single mode"):
            sample(FockMatrix(2, 1, np.eye(4) / 4.0), 100, "bounds")

    def test_gaussian_chain_memory_bounded(self):
        # one Cholesky of V/2 for the whole batch, no per-round covariances
        state = chain_ground_state(ChainSpec(200, 0.99))
        peak = traced_peak(lambda: sample_homodyne_batch(state, 200, "mem200"))
        assert peak < 10.0

    @pytest.mark.parametrize("kind", sorted(NOT_STATES))
    def test_not_a_state_rejected(self, kind):
        with pytest.raises(ValueError, match="state"):
            sample_homodyne_batch(NOT_STATES[kind], 10, "bad")

    def test_single_record_api(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 1, "one")
        assert batch.protocol == "homodyne"
        assert batch.outcomes.shape == (1, 1, 2)
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
    """The target the probe of ``state`` reads, and the envelope bound it gives:
    ``_ENVELOPE_MARGIN`` times the largest target / proposal ratio on the probe."""
    import cvshadow.measurement as meas

    seen: dict = {}
    real = meas._envelope_bound

    def spy(target, proposals, a, b):
        bound = real(target, proposals, a, b)
        seen.update(target=target, bound=bound)
        return bound

    monkeypatch.setattr(meas, "_envelope_bound", spy)
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

        factors = meas._sampling_factors(SCAN_STATES[name])
        mean, cov = meas._moments(*factors)
        rng = np.random.default_rng(2)
        thetas, z = rng.uniform(-np.pi, np.pi, 300), 3.0 * rng.standard_normal((300, 1))
        pts, density = meas._homodyne_proposals(factors)(np.concatenate([thetas[:, None], z], 1))
        c, s = np.cos(thetas), np.sin(thetas)
        rows = np.stack([c, -s], axis=1)
        std = np.sqrt(0.5 * np.maximum(np.einsum("ni,ij,nj->n", rows, cov, rows), 1.0))
        expected = t.pdf(pts[:, 1], df=4, loc=rows @ mean, scale=std)
        assert np.array_equal(pts[:, 0], thetas)
        assert np.abs(density / expected - 1.0).max() <= 1e-12
        pts, density = meas._heterodyne_proposals(factors)(3.0 * rng.standard_normal((300, 2)))
        expected = multivariate_t(mean, 0.5 * (cov + np.eye(2)), df=4).pdf(pts)
        assert np.abs(density / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCAN_STATES))
    def test_homodyne_bound_holds_far_out(self, monkeypatch, name):
        import cvshadow.measurement as meas

        seen = calibrated_probe(monkeypatch, "homodyne", SCAN_STATES[name])
        proposals = meas._homodyne_proposals(meas._sampling_factors(SCAN_STATES[name]))
        thetas, z = np.linspace(-np.pi, np.pi, 121), np.linspace(-40.0, 40.0, 2001)
        pts, density = proposals(np.stack([np.repeat(thetas, z.size), np.tile(z, thetas.size)], -1))
        scanned = float((seen["target"](pts) / density).max())
        assert scanned <= seen["bound"]

    @pytest.mark.parametrize("name", sorted(SCAN_STATES))
    def test_heterodyne_bound_holds_far_out(self, monkeypatch, name):
        import cvshadow.measurement as meas

        seen = calibrated_probe(monkeypatch, "heterodyne", SCAN_STATES[name])
        proposals = meas._heterodyne_proposals(meas._sampling_factors(SCAN_STATES[name]))
        axis = np.linspace(-40.0, 40.0, 601)
        z = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        pts, density = proposals(z)
        scanned = float((seen["target"](pts) / density).max())
        assert scanned <= seen["bound"]

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
        vals = fock_husimi(input_factors(name, rho), x)
        assert np.abs(vals - dense).max() <= 1e-12 * np.abs(dense).max()
        if name == "not-psd":  # both signs: no value is clipped
            assert dense.min() < 0 < dense.max()

    def test_fock_path_matches_cat(self):
        import cvshadow.measurement as meas

        spec = CatStateSpec(1 + 1j, "one")
        factors = meas._sampling_factors(fock_matrix_of(spec, 40))
        x = np.array([1.2, 0.4])
        assert fock_husimi(factors, x) == pytest.approx(
            heterodyne_pdf(spec, x), abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [20.0, 40.0])
    def test_large_cat_matches_overlap_density(self, alpha):
        # exp(-|x|^2/4) underflows beyond |x| = 54.6, inside the alpha = 40
        # lobes at |x| = 56.6; built in the log domain, <n|x> reads them as
        # closely as it reads the alpha = 20 lobes
        import cvshadow.measurement as meas

        spec = CatStateSpec(alpha, "zero")
        x = spec.center + np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.3], [0.0, -1.0]])
        x = np.concatenate([x, -x])
        vals = fock_husimi(meas._sampling_factors(spec), x)
        assert np.abs(vals - cat_position_pdf(spec, x) / (2 * np.pi)).max() <= 1e-7

    def test_chain_normalization_by_qmc(self):
        state = chain_ground_state(ChainSpec(2, 0.5))

        def density_flat(pts):
            return heterodyne_pdf(state, pts)

        box = BoxDomain([7.0, 7.0, 7.0, 7.0])
        val = qmc_integrate(density_flat, box, 2**20)
        assert val == pytest.approx(1.0, abs=1e-3)


class TestSampleHeterodyne:
    def test_vacuum_moments(self):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 100_000, "hvac")
        pts = batch.outcomes[:, 0, :]
        assert np.allclose(pts.mean(axis=0), 0.0, atol=4.0 / math.sqrt(len(pts)))
        assert np.allclose(pts.var(axis=0), 1.0, rtol=0.02)

    def test_chain_covariance(self):
        dense = chain_ground_state(ChainSpec(10, 0.99))
        # outcome covariance in the vacuum-is-identity normalization is 2x
        # the numpy covariance of draws ~ N(0, (V+I)/2)
        expected = heterodyne_covariance(dense)
        for state in (dense, chain_state(ChainSpec(10, 0.99))):
            batch = sample_heterodyne_batch(state, 100_000, "hchain")
            pts = batch.outcomes
            flat = np.concatenate([pts[:, :, 0], pts[:, :, 1]], axis=1)
            emp = np.cov(flat.T, bias=False)
            rel = np.linalg.norm(emp - expected) / np.linalg.norm(expected)
            assert rel < 0.05

    def test_cat_one_acceptance_and_moments(self):
        spec = CatStateSpec(1 + 1j, "one")
        batch = sample_heterodyne_batch(spec, 40_000, "hcat")
        assert batch.meta["acceptance"] >= 0.1
        pts = batch.outcomes[:, 0, :]
        mean_expected, cov = diagonal_moments(fock_matrix_of(spec, 40))
        sigma = 0.5 * (cov + np.eye(2))
        stderr = np.sqrt(np.diag(sigma) / len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - mean_expected) < 3 * stderr + 1e-9)

        # homodyne: E[q | theta] = cos(theta) t_x - sin(theta) t_p, so
        # 2 E[q cos(theta)] = t_x and -2 E[q sin(theta)] = t_p
        batch = sample_homodyne_batch(spec, 40_000, "hcat")
        assert batch.meta["acceptance"] >= 0.1
        # the acceptance counts every accepted proposal, surplus included
        assert batch.meta["acceptance"] * batch.meta["proposals"] >= len(pts)
        theta, q = batch.outcomes[:, 0].T
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
        probe_done = {"calls": 0, "slices": len(probe_slices(201 * 201))}

        def spiked(factors, x):
            vals = np.asarray(real_husimi(factors, x), dtype=float)
            if probe_done["calls"] == probe_done["slices"]:
                return vals * 50.0  # violate the calibrated bound
            probe_done["calls"] += 1  # the first calls are the probe grid's slices
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
        assert not hasattr(batch, "thetas")
        assert batch.outcomes.shape == (1, 1, 2)

    def test_uncoupled_chain_factorizes(self):
        n = 40_000
        for state in (chain_ground_state(ChainSpec(2, 0.0)), chain_state(ChainSpec(2, 0.0))):
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
        draws = np.concatenate(list(state.phase_space_draws(0.0, n, rng)))
        assert np.array_equal(thetas, batch.outcomes[..., 0])
        rounds = np.cos(thetas) * draws[:, :m] - np.sin(thetas) * draws[:, m:]
        assert np.array_equal(rounds, batch.outcomes[..., 1])
        self.assert_moments(draws, state.mean, 0.5 * state.cov)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_spectral_chain_draws(self, protocol):
        # the rounds of both protocols are functions of the chain's FFT draws,
        # whose moments are those of the dense ground state
        m, n = 10, self.N
        state, dense = chain_state(ChainSpec(m, 0.99)), chain_ground_state(ChainSpec(m, 0.99))
        rng = stream_rng("spectral")
        if protocol == "homodyne":
            batch = sample_homodyne_batch(state, n, "spectral")
            thetas = rng.uniform(-np.pi, np.pi, size=(n, m))
            draws = np.concatenate(list(state.phase_space_draws(0.0, n, rng)))
            assert np.array_equal(thetas, batch.outcomes[..., 0])
            rounds = np.cos(thetas) * draws[:, :m] - np.sin(thetas) * draws[:, m:]
            assert np.array_equal(rounds, batch.outcomes[..., 1])
            self.assert_moments(draws, dense.mean, 0.5 * dense.cov)
        else:
            pts = sample_heterodyne_batch(state, n, "spectral").outcomes
            draws = np.concatenate(list(state.phase_space_draws(1.0, n, rng)))
            assert np.array_equal(draws, np.concatenate([pts[:, :, 0], pts[:, :, 1]], axis=1))
            self.assert_moments(draws, dense.mean, heterodyne_covariance(dense))

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_chain_rows_do_not_follow_the_slice_budget(self, monkeypatch, protocol):
        # each slice draws its rows' normals in row order, so 2, 8 and 65 rows
        # of the 1000-mode chain a slice give the same rounds
        state = chain_state(ChainSpec(1000, 0.99))
        rounds = []
        for budget in (1 << 13, SLICE_BUDGETS["chain"], 1 << 18):
            monkeypatch.setitem(SLICE_BUDGETS, "chain", budget)
            blocks = list(sample_blocks(state, protocol, 150, "chain-slices"))
            assert len(blocks) == -(-150 // (budget // 4000))
            rounds.append(np.concatenate([block.outcomes for block in blocks]))
        assert all(np.array_equal(rounds[0], r) for r in rounds[1:])


@pytest.fixture(scope="module")
def chain1000():
    return chain_ground_state(ChainSpec(1000, 0.99))


class TestThousandModeMemory:
    """Peaks at m = 1000: no 2m x 2m covariance or factor, no list of file lines."""

    @pytest.mark.parametrize("sample", [sample_heterodyne_batch, sample_homodyne_batch])
    def test_gaussian_sampler(self, chain1000, sample):
        assert traced_peak(lambda: sample(chain1000, 1000, "mem1000")) <= 64.0

    @pytest.mark.parametrize("sample", [sample_heterodyne_batch, sample_homodyne_batch])
    def test_spectral_chain_sampler(self, sample):
        state = chain_state(ChainSpec(1000, 0.99))
        assert traced_peak(lambda: sample(state, 1000, "mem1000")) <= 64.0

    def test_chain_ground_state(self):
        assert traced_peak(lambda: chain_ground_state(ChainSpec(1000, 0.99))) <= 96.0

    @pytest.fixture(scope="class")
    def records1000(self, tmp_path_factory):
        # 1000 rounds of 1000 modes: 21.4 MB of lines, 16 MB of outcomes
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        write_jsonl(SampleBatch("heterodyne", np.full((1000, 1000, 2), -0.5), seed_path="mem"), path)
        return path

    def test_from_jsonl(self, records1000):
        assert traced_peak(lambda: SampleBatch.from_jsonl(records1000)) <= 20.0

    def test_from_jsonl_kept_columns(self, records1000):
        # the kept (1000, 2, 2) outcomes are 32 kB and one parsed line about 0.1 MB;
        # every line is still parsed and checked
        peak = traced_peak(lambda: SampleBatch.from_jsonl(records1000, modes=(0, 500)))
        assert peak <= 2.0


class TestRecordsAndBatches:
    def test_jsonl_roundtrip_bit_exact(self, tmp_path):
        batch = sample_homodyne_batch(GaussianStateSpec.thermal(0.3), 50, "rt")
        path = tmp_path / "records.jsonl"
        write_jsonl(batch, path)
        loaded = SampleBatch.from_jsonl(path)
        assert loaded.n == batch.n
        assert loaded.protocol == batch.protocol
        assert np.array_equal(loaded.outcomes, batch.outcomes)
        assert loaded.seed_path == batch.seed_path == "rt"
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        assert all(json.loads(line)["seed_path"] == "rt" for line in lines)

    def test_heterodyne_roundtrip(self, tmp_path):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 20, "rth")
        path = tmp_path / "records.jsonl"
        write_jsonl(batch, path)
        loaded = SampleBatch.from_jsonl(path)
        assert np.array_equal(loaded.outcomes, batch.outcomes)

    def test_mixed_protocols_rejected(self, tmp_path):
        hom = tmp_path / "hom.jsonl"
        het = tmp_path / "het.jsonl"
        write_jsonl(sample_homodyne_batch(GaussianStateSpec.vacuum(), 2, "a"), hom)
        write_jsonl(sample_heterodyne_batch(GaussianStateSpec.vacuum(), 1, "a"), het)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(hom.read_text() + het.read_text())
        with pytest.raises(ValueError, match="line 3 has protocol 'heterodyne'"):
            SampleBatch.from_jsonl(mixed)

    def test_two_streams_rejected(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(sample_homodyne_batch(GaussianStateSpec.vacuum(), 3, "s/0"), a)
        write_jsonl(sample_homodyne_batch(GaussianStateSpec.vacuum(), 3, "s/1"), b)
        joined = tmp_path / "joined.jsonl"
        joined.write_text(a.read_text() + b.read_text())
        with pytest.raises(ValueError, match="line 4 .*seed_path 's/1'"):
            SampleBatch.from_jsonl(joined)

    def test_malformed_files_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row, two = b64_floats([0.1, 0.5]), b64_floats([0.1, 0.5, 0.2, 0.6])  # one and two modes
        tenth, half = b64_floats([0.1]), b64_floats([0.5])
        good = f'{{"protocol":"homodyne","rows":"{row}","seed_path":"x"}}'
        het = good.replace('"homodyne"', '"heterodyne"')
        cases = {
            "\n": "no records",
            good.replace('"rows"', '"row"'): "line 1 is not a record",
            "[1, 2]\n": "line 1 is not a record",
            # a count that differs from line 1's
            good + "\n" + good.replace(row, two): (
                "line 2 has value count 4, expected 2 as on the first record"
            ),
            het.replace(row, two) + "\n" + het: (
                "line 2 has value count 2, expected 4 as on the first record"
            ),
            # a truncated last line, numbers that are not base64 float64 past
            # the first line, and on it, all name the file and the line
            (good + "\n") * 5 + good[:40]: "line 6 is not a record",
            (good + "\n") * 3 + good.replace(f'"{row}"', "[0.1,0.5]"): (
                "line 4 holds numbers that are not base64 float64"
            ),
            (good + "\n") * 3 + good.replace(f'"{row}"', "null"): (
                "line 4 holds numbers that are not base64 float64"
            ),
            good.replace(f'"{row}"', "[0.1,0.5]"): "line 1 holds numbers that are not base64 float64",
            # a character outside the base64 alphabet, bad padding, and a byte
            # count that is not a whole number of float64 values or of modes
            good + "\n" + good.replace(row, row[:3] + "*" + row[4:]): (
                "line 2 holds numbers that are not base64 float64"
            ),
            good + "\n" + good.replace(row, row.rstrip("=")): (
                "line 2 holds numbers that are not base64 float64"
            ),
            good + "\n" + good.replace(row, row + "=="): (
                "line 2 holds numbers that are not base64 float64"
            ),
            good + "\n" + good.replace(row, "AAAAAAAAAA=="): (
                "line 2 holds numbers that are not base64 float64"
            ),
            het.replace(row, b64_floats([0.5, 0.6, 0.7])): (
                "line 1 has row value count 3, not two values for each of one or more modes"
            ),
            # bytes that are not UTF-8 are a line that is not a record
            ((good + "\n") * 3).encode() + b"\xff\xfe\n" + good.encode(): (
                "line 4 is not a record"
            ),
            # 0.4.0 and older wrote thetas and outcome fields, not rows: their
            # first line is refused, so no such file is read as data
            f'{{"protocol":"homodyne","thetas":"{tenth}","outcome":"{half}"}}\n' * 2: (
                r"line 1 is not a record \(KeyError\('rows'\)\)"
            ),
            f'{{"protocol":"heterodyne","thetas":null,"outcome":"{row}"}}\n' * 2: (
                r"line 1 is not a record \(KeyError\('rows'\)\)"
            ),
        }
        for text, message in cases.items():
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
                SampleBatch.from_jsonl(path)

    def test_header_reads_the_first_record_only(self, tmp_path, monkeypatch):
        # a blank line, 2000 records and bytes that are not UTF-8: the header
        # takes the blank line and the first record, and reads no further
        import cvshadow.measurement as meas

        path = tmp_path / "records.jsonl"
        path.write_text("\n")
        with open(path, "a") as fh:
            sample_heterodyne_batch(GaussianStateSpec.vacuum(), 2000, "s/0").to_jsonl(fh)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        taken = []

        class Counted:
            def __init__(self, *args):
                self.fh = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __iter__(self):
                for line in self.fh:
                    taken.append(line)
                    yield line

        monkeypatch.setattr(meas, "open", Counted, raising=False)
        assert jsonl_header(path) == ("heterodyne", "s/0", 1)
        assert len(taken) == 2

    def test_bad_record_shapes(self):
        # both protocols hold (N, m, 2) rows: the (N, m) q of a homodyne batch
        # without its angles, and rows of three values, are refused
        for protocol, outcomes in (
            ("homodyne", [[0.5]]),
            ("heterodyne", [[0.5, 0.2]]),
            ("homodyne", np.zeros((2, 1, 3))),
            ("heterodyne", np.zeros((2, 1, 3))),
        ):
            with pytest.raises(ValueError, match=f"{protocol} outcomes must have shape"):
                SampleBatch(protocol, outcomes, seed_path="x")
        with pytest.raises(ValueError):
            SampleBatch("heterodyne", [[[0.5, np.nan]]], seed_path="x")
        for bad in (np.nan, np.inf):  # an angle, column 0 of a homodyne row
            with pytest.raises(ValueError, match="outcomes must be finite"):
                SampleBatch("homodyne", [[[0.2, 0.5], [bad, 0.1]]], seed_path="x")
        with pytest.raises(ValueError):
            SampleBatch("quadrature", [[[0.1, 0.5]]], seed_path="x")

    def test_old_positional_calls_refused(self):
        # seed_path and meta are keyword-only, so a call written for the layout
        # with a separate thetas argument cannot store its seed path as meta
        q = np.zeros((3, 2))
        with pytest.raises(TypeError):
            SampleBatch("heterodyne", np.zeros((3, 2, 2)), None, "s/0")
        with pytest.raises(TypeError):
            SampleBatch("homodyne", q, np.zeros_like(q), "s/0")
        with pytest.raises(TypeError):
            SampleBatch("homodyne", np.zeros((3, 2, 2)), "s/0")

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_writer_bytes_match_json_dumps(self, tmp_path, protocol):
        extremes = np.array([-0.0, 5e-324, 1.797e308, 1e16, -1e-300, 0.1, -2.5e-7, 3.0])
        path = tmp_path / "records.jsonl"
        for seed_path in ("", 'cvshadow/1/"q\\é"/%s %d %%', "s/1"):
            if protocol == "homodyne":  # rows (theta, q)
                outcomes = np.stack(
                    [np.resize(extremes[::-1], (6, 3)), np.resize(extremes, (6, 3))], axis=-1
                )
            else:
                outcomes = np.resize(extremes, (5, 3, 2))
            batch = SampleBatch(protocol, outcomes, seed_path=seed_path)
            write_jsonl(batch, path)
            assert path.read_bytes() == reference_jsonl(batch)
            loaded = SampleBatch.from_jsonl(path)
            assert loaded.seed_path == seed_path
            assert np.array_equal(loaded.outcomes, batch.outcomes)
            assert np.array_equal(np.signbit(loaded.outcomes), np.signbit(batch.outcomes))

    def test_multi_block_roundtrip_bit_exact(self, tmp_path):
        # a batch written block by block has the bytes of one to_jsonl call,
        # and a digest fed as the blocks are written is the hash of those bytes
        modes, rows = 40, 413
        for batch in (
            sample_homodyne_batch(GaussianStateSpec.thermal(0.3, modes=modes), rows, "mb/h"),
            sample_heterodyne_batch(GaussianStateSpec.thermal(0.3, modes=modes), rows, "mb/x"),
        ):
            path, digest = tmp_path / f"{batch.protocol}.jsonl", hashlib.sha256()
            with open(path, "w") as fh:
                for start, stop in ((0, 1), (1, 200), (200, rows)):
                    batch_rows(batch, slice(start, stop)).to_jsonl(fh, digest=digest)
            assert path.read_bytes() == reference_jsonl(batch)
            assert digest.hexdigest() == hashlib.sha256(reference_jsonl(batch)).hexdigest()
            loaded = SampleBatch.from_jsonl(path)
            assert loaded.n == rows
            assert np.array_equal(loaded.outcomes, batch.outcomes)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize(
        "state, kept",
        [
            (GaussianStateSpec.vacuum(), [0]),
            (GaussianStateSpec.thermal(0.3, modes=3), [2, 0]),
            (chain_state(ChainSpec(6, 0.99)), [4, 1, 3]),
            (CatStateSpec(1 + 1j, "plus"), [0]),
            (fock_state(2, 4), [0]),
        ],
        ids=["gaussian1", "gaussian3", "chain", "cat", "fock"],
    )
    def test_every_state_kind_roundtrips(self, tmp_path, protocol, state, kept):
        # every sampler's rows come back with their bits, on all modes and on
        # a reordered subset of them; the bytes pin the row-major layout, so
        # each homodyne angle sits beside its own q (theta0, q0, theta1, ...)
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(state, 40, f"kinds/{protocol}")
        path = tmp_path / "records.jsonl"
        write_jsonl(batch, path)
        assert path.read_bytes() == reference_jsonl(batch)
        assert np.array_equal(SampleBatch.from_jsonl(path).outcomes, batch.outcomes)
        subset = SampleBatch.from_jsonl(path, modes=kept)
        assert np.array_equal(subset.outcomes, batch.outcomes[:, kept])

    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from(["homodyne", "heterodyne"]),
        values=st.integers(1, 5).flatmap(
            lambda m: hnp.arrays(
                np.float64, (3, m, 2), elements=st.floats(allow_nan=False, allow_infinity=False)
            )
        ),
    )
    def test_roundtrip_keeps_every_finite_float(self, tmp_path_factory, protocol, values):
        batch = SampleBatch(protocol, values, seed_path="hyp")
        path = tmp_path_factory.mktemp("hyp") / "records.jsonl"
        write_jsonl(batch, path)
        loaded = SampleBatch.from_jsonl(path)
        assert np.array_equal(loaded.outcomes, batch.outcomes)
        assert np.array_equal(np.signbit(loaded.outcomes), np.signbit(batch.outcomes))

    @pytest.mark.parametrize("sample", [sample_homodyne_batch, sample_heterodyne_batch])
    def test_kept_columns_match_full_parse(self, tmp_path, sample):
        batch = sample(GaussianStateSpec.thermal(0.3, modes=7), 30, "cols")
        path = tmp_path / "records.jsonl"
        write_jsonl(batch, path)
        full = SampleBatch.from_jsonl(path)
        for modes in ([3], [6, 0], [1, 2, 5], list(range(7))):
            kept = SampleBatch.from_jsonl(path, modes=modes)
            assert (kept.protocol, kept.seed_path, kept.n) == (full.protocol, "cols", 30)
            assert kept.outcomes.shape == (30, len(modes), 2)
            assert np.array_equal(kept.outcomes, full.outcomes[:, modes])
        # no modes is refused too: it kept (30, 0, 2) outcomes, which no reader can use
        for modes in ([0, 0], [7], []):
            with pytest.raises(ValueError, match="outside measured modes 0..6 or repeated"):
                SampleBatch.from_jsonl(path, modes=modes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_columns_not_kept_are_checked(self, tmp_path, bad):
        # a kept column is read from every line, and every value of a line is checked
        outcomes = np.zeros((3, 6, 2))
        path = tmp_path / "records.jsonl"
        write_jsonl(SampleBatch("heterodyne", outcomes, seed_path="chk"), path)
        text = path.read_text().splitlines()
        payload = json.loads(text[1])
        values = b64_values(payload["rows"]).copy()
        values[11] = bad  # mode 5, p
        payload["rows"] = b64_floats(values)
        text[1] = json.dumps(payload)
        path.write_text("\n".join(text) + "\n")
        for modes in (None, [0]):
            with pytest.raises(ValueError, match="line 2 holds a value that is not finite"):
                SampleBatch.from_jsonl(path, modes=modes)

    def test_first_record_shape_checked(self, tmp_path):
        path = tmp_path / "records.jsonl"
        for values, protocol in (([], "homodyne"), ([], "heterodyne"), ([0.5], "homodyne"),
                                 ([0.5], "heterodyne"), ([0.5, 0.1, 0.2], "heterodyne")):
            path.write_text(f'{{"protocol":"{protocol}","rows":"{b64_floats(values)}"}}\n')
            with pytest.raises(ValueError, match=f"line 1 has row value count {len(values)}, not two"):
                SampleBatch.from_jsonl(path)
        path.write_text(f'{{"protocol":"quadrature","rows":"{b64_floats([0.5, 0.1])}"}}\n')
        with pytest.raises(ValueError, match="unknown protocol 'quadrature'"):
            SampleBatch.from_jsonl(path)

    def test_disjoint_streams_differ(self):
        a = sample_homodyne_batch(GaussianStateSpec.vacuum(), 10, "s/0")
        b = sample_homodyne_batch(GaussianStateSpec.vacuum(), 10, "s/1")
        assert not np.array_equal(a.outcomes, b.outcomes)
