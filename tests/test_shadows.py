"""Shadow construction, windowing, projections, and averaging."""

import contextlib
import functools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e, jv

from cvshadow import measurement, shadows
from cvshadow.bounds import delta0
from cvshadow.measurement import SampleBatch, sample_heterodyne_batch, sample_homodyne_batch
from cvshadow.phase_space import char_fock_dyad, laguerre
from cvshadow.shadows import (
    ShadowAverage,
    WindowSpec,
    average_entries,
    default_window,
    json_sha256,
    project_PM,
    project_PM_tilde,
    shadow_batch_entries,
)
from cvshadow.states import (
    SLICE_BUDGETS,
    CatStateSpec,
    ChainSpec,
    FockMatrix,
    GaussianStateSpec,
    chain_ground_state,
    fock_matrix_of,
    value_slices,
)
from conftest import (
    _i0e,
    batch_rows,
    bessel_orders,
    correlated_gaussian,
    f_mu_homodyne,
    fock_pairing_matrix,
    heterodyne_shadow_entry,
    heterodyne_shadow_entry_qmc,
    heterodyne_transform,
    homodyne_shadow_entry,
    homodyne_transform,
    stacked_entries,
    traced_peak,
    window_at,
    windowed_dyad_char,
)


def fock_state(n: int, truncation: int) -> FockMatrix:
    mat = np.zeros((truncation + 1, truncation + 1), dtype=complex)
    mat[n, n] = 1.0
    return FockMatrix(1, truncation, mat)


def homodyne_entries(thetas, qs, truncation):
    """Batch entries of single-mode homodyne rounds given as arrays."""
    batch = SampleBatch("homodyne", np.stack([thetas, qs], axis=-1)[:, None, :])
    return stacked_entries(batch, [0], truncation)


def heterodyne_entries(xs, truncation, w):
    """Batch entries of single-mode heterodyne rounds given as an (N, 2) array."""
    batch = SampleBatch("heterodyne", np.reshape(xs, (-1, 1, 2)))
    return stacked_entries(batch, [0], truncation, w)


class TestWindow:
    def test_plateau_and_support(self):
        w = WindowSpec(2.0, 3.0)
        assert window_at(w, np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert window_at(w, np.array([3.0, 0.1])) == 0.0
        assert w.xi_radial(2.5) == pytest.approx(0.5)  # quintic smoothstep midpoint

    def test_monotone_profile(self):
        w = WindowSpec(1.5, 4.0)
        rho = np.linspace(0, 5, 300)
        vals = w.xi_radial(rho)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            WindowSpec(3.0, 2.0)

    def test_default_window_precondition(self):
        for m in range(7):
            w = default_window(m)
            assert w.eta**2 >= 2 * m * m
            assert w.radius == pytest.approx(w.eta + 2.0)


class TestWindowedDyad:
    def test_inside_plateau(self):
        w = WindowSpec(3.0, 5.0)
        u = np.array([0.5, -0.5])
        assert windowed_dyad_char(0, 1, u, w) == pytest.approx(char_fock_dyad(0, 1, u))

    def test_outside_support(self):
        w = WindowSpec(3.0, 5.0)
        assert windowed_dyad_char(0, 0, np.array([5.0, 1.0]), w) == 0.0

    def test_transition_value(self):
        w = WindowSpec(2.0, 4.0)
        u = np.array([3.0, 0.0])  # |u| = (eta + R)/2
        expected = np.exp(-0.25 * 9.0) * 0.5
        assert windowed_dyad_char(0, 0, u, w) == pytest.approx(expected)

    def test_multimode_product(self):
        w = WindowSpec(3.0, 5.0)
        u = np.array([0.5, 1.0, -0.3, 0.2])  # xxpp for two modes
        val = windowed_dyad_char((0, 1), (1, 1), u, w)
        per = windowed_dyad_char(0, 1, u[[0, 2]], w) * windowed_dyad_char(
            1, 1, u[[1, 3]], w
        )
        assert val == pytest.approx(per)


class TestHomodyneEntry:
    def test_constant_at_q_zero(self):
        # (1/2) int |y| exp(-y^2/4) dy = 2, independent of the angle
        for theta in (-2.0, 0.0, 1.3):
            assert homodyne_shadow_entry(0, 0, theta, 0.0) == pytest.approx(2.0)

    def test_unbiased_on_vacuum(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 30_000, "ub00")
        entries = stacked_entries(batch, [0], 1)
        val = entries[:, 0, 0].real
        assert val.mean() == pytest.approx(1.0, abs=3 * val.std() / math.sqrt(val.size))

    def test_unbiased_on_fock_one(self):
        batch = sample_homodyne_batch(fock_state(1, 6), 30_000, "ub11")
        entries = stacked_entries(batch, [0], 1)
        val = entries[:, 0, 0].real
        assert val.mean() == pytest.approx(0.0, abs=3 * val.std() / math.sqrt(val.size))

    def test_batch_matches_adaptive(self):
        rng = np.random.default_rng(9)
        thetas = rng.uniform(-np.pi, np.pi, 5)
        qs = rng.normal(0, 1.4, 5)
        batch_vals = homodyne_entries(thetas, qs, 3)
        for i in range(5):
            for n1 in range(4):
                for n2 in range(4):
                    ref = homodyne_shadow_entry(n1, n2, thetas[i], qs[i])
                    assert batch_vals[i, n1, n2] == pytest.approx(ref, abs=1e-8)

    def test_hermitian_pairs(self):
        val01 = homodyne_shadow_entry(0, 1, 0.4, 1.1)
        val10 = homodyne_shadow_entry(1, 0, 0.4, 1.1)
        assert val01 == pytest.approx(np.conj(val10))


class TestHeterodyneEntry:
    def test_exponent_cancellation(self):
        # for n1 = n2 = 0 the integrand modulus is exactly xi
        w = default_window(2)
        val = heterodyne_shadow_entry(0, 0, np.zeros(2), w, tol=1e-9)
        area, _ = quad(lambda r: r * w.xi_radial(r), 0, w.radius, limit=200)
        assert val == pytest.approx(area, rel=1e-7)

    def test_integrand_modulus_is_window(self):
        w = default_window(2)
        rng = np.random.default_rng(4)
        x = np.array([0.8, -0.5])
        for u in rng.uniform(-w.radius, w.radius, size=(100, 2)):
            integrand = (
                windowed_dyad_char(0, 0, u, w)
                * np.exp(0.25 * np.dot(u, u))
            )
            assert abs(integrand) == pytest.approx(window_at(w, u), abs=1e-12)

    def test_against_dense_trapezoid_oracle(self):
        # independent dense-grid 2D integration of the full integrand
        w = WindowSpec(6.0, 8.0)
        x = np.array([1.0, 0.0])
        n_grid = 1601
        axis = np.linspace(-8.0, 8.0, n_grid)
        ux, up = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([ux, up], axis=-1)
        chi = char_fock_dyad(1, 0, grid)  # chi_{|n2><n1|} with n1=0, n2=1
        vals = (
            chi
            * window_at(w, grid)
            * np.exp(0.25 * (ux**2 + up**2))
            * np.exp(1j * (ux * x[1] - up * x[0]))
        )
        step = axis[1] - axis[0]
        oracle = np.trapezoid(np.trapezoid(vals, dx=step, axis=1), dx=step) / (2 * np.pi)
        val = heterodyne_shadow_entry(0, 1, x, w)
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_unbiased_entry_00(self):
        w = default_window(0)
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 30_000, "uh00")
        entries = stacked_entries(batch, [0], 0, w)
        vals = entries[:, 0, 0].real
        target = project_PM_tilde(GaussianStateSpec.vacuum(), 0, w).entries[0, 0].real
        assert vals.mean() == pytest.approx(
            target, abs=4 * vals.std() / math.sqrt(vals.size)
        )

    def test_tensorization(self):
        w = default_window(1)
        x = np.array([[0.3, -0.2], [1.0, 0.4]])
        val = heterodyne_shadow_entry((1, 0), (0, 1), x, w)
        per = heterodyne_shadow_entry(1, 0, x[0], w) * heterodyne_shadow_entry(
            0, 1, x[1], w
        )
        assert val == pytest.approx(per, rel=1e-12)

    def test_qmc_rule_agrees(self):
        w = default_window(0)
        x = np.array([0.5, 0.1])
        ref = heterodyne_shadow_entry(0, 0, x, w)
        qmc_val = heterodyne_shadow_entry_qmc(0, 0, x, w, budget=2**18)
        assert qmc_val == pytest.approx(ref, abs=1e-4 * (1 + abs(ref)))

    def test_batch_matches_adaptive(self):
        w = default_window(2)
        rng = np.random.default_rng(12)
        xs = rng.normal(0, 1.2, size=(4, 2))
        # rounds in far blocks too, at |x| = 12, 30 and 63.9
        far = np.array([[12.0, 0.0], [0.0, -30.0], [63.9 * np.cos(1.0), 63.9 * np.sin(1.0)]])
        xs = np.concatenate([xs, far])
        batch_vals = heterodyne_entries(xs, 2, w)
        for i in range(len(xs)):
            for n1 in range(3):
                for n2 in range(3):
                    ref = heterodyne_shadow_entry(n1, n2, xs[i], w, tol=1e-10)
                    assert batch_vals[i, n1, n2] == pytest.approx(ref, abs=1e-9)


class TestBuilders:
    def test_single_mode_m0_reduces_to_entry(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 1, "b0")
        shadow = stacked_entries(batch, [0], 0)
        expected = homodyne_shadow_entry(0, 0, *batch.outcomes[0, 0])
        assert shadow[0, 0, 0] == pytest.approx(expected)

    def test_two_mode_factorization(self):
        state = GaussianStateSpec.thermal(0.4, modes=2)
        batch = sample_homodyne_batch(state, 1, "b2")
        shadow = stacked_entries(batch, [0, 1], 1)
        per0 = stacked_entries(batch, [0], 1)[0]
        per1 = stacked_entries(batch, [1], 1)[0]
        assert np.allclose(shadow[0], np.kron(per0, per1), atol=1e-12)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize("subset", [[2], [2, 0], [1, 2, 0]])
    def test_rows_are_kronecker_products_of_one_mode_rows(self, protocol, subset):
        # every round, in both chunks, is the exact Kronecker product of the
        # rows of one-mode batches of the subset's columns, each entry the
        # textbook complex product (ac - bd) + i (ad + bc): np.kron of complex
        # matrices runs numpy's vectorised complex multiply, which may fuse a
        # multiply-add and round a last bit differently
        def kron(a, b):
            out = np.empty((len(a) * len(b),) * 2, dtype=complex)
            out.real = np.kron(a.real, b.real) - np.kron(a.imag, b.imag)
            out.imag = np.kron(a.real, b.imag) + np.kron(a.imag, b.real)
            return out

        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(correlated_gaussian(3, 11), shadows._CHUNK_ROUNDS + 1, f"kron-{protocol}")
        stacked = stacked_entries(batch, subset, 1)
        per_mode = [
            stacked_entries(replace(batch, outcomes=batch.outcomes[:, [j]]), [0], 1)
            for j in subset
        ]
        for i, row in enumerate(stacked):
            assert np.array_equal(row, functools.reduce(kron, [mats[i] for mats in per_mode]))

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_one_mode_entries_call_per_chunk(self, protocol, r, monkeypatch):
        # the chunk's outcomes on the whole subset take a single call, as rows
        # (theta, q) or (x, p) for both protocols
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(GaussianStateSpec.thermal(0.4, modes=3), shadows._CHUNK_ROUNDS + 1, "spy")
        calls, mode_entries = [], shadows._mode_entries

        def spy(protocol, outcomes, *args):
            calls.append(outcomes.shape)
            return mode_entries(protocol, outcomes, *args)

        monkeypatch.setattr(shadows, "_mode_entries", spy)
        stacked_entries(batch, list(range(r)), 1)
        # a chunk holds at most 1024 rounds and 2^16 matrix entries: the
        # cap binds at every D up to 8 (r = 3), where both give 1024
        assert calls == [(1024 * r, 2), (r, 2)]

    def test_subset_validation(self):
        for sample in (sample_homodyne_batch, sample_heterodyne_batch):
            batch = sample(GaussianStateSpec.vacuum(), 1, "b3")
            for subset in ([1], [-1], [0, 1], []):
                with pytest.raises(ValueError, match="outside measured modes"):
                    shadow_batch_entries(batch, subset, 2)

    def test_shadows_hermitian(self):
        batch = sample_heterodyne_batch(CatStateSpec(1 + 1j, "zero"), 8, "b5")
        stacked = stacked_entries(batch, [0], 3)
        assert np.allclose(stacked, np.conj(np.swapaxes(stacked, 1, 2)), atol=1e-12)

    @pytest.mark.parametrize(
        "protocol, subset", [("homodyne", [0]), ("heterodyne", [0, 1])]
    )
    def test_rows_bitwise_hermitian(self, protocol, subset):
        # per-mode matrices are filled Hermitian and so are their Kronecker
        # products: no symmetrization is needed
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(GaussianStateSpec.thermal(0.4, modes=2), 500, f"herm-{protocol}")
        mats = stacked_entries(batch, subset, 3)
        assert np.array_equal(mats, mats.conj().swapaxes(1, 2))

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_chunks_of_rounds_bit_identical(self, protocol):
        # rows are built in chunks of rounds; slices that straddle the chunk
        # boundaries give the same bits as the whole batch
        n = 3 * shadows._CHUNK_ROUNDS + 17
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(GaussianStateSpec.thermal(0.4, modes=2), n, f"rows-{protocol}")
        whole = stacked_entries(batch, [1, 0], 1)
        cuts = (0, 1, 1000, 1025, 2250, 3 * shadows._CHUNK_ROUNDS, n)
        parts = [
            stacked_entries(batch_rows(batch, slice(a, b)), [1, 0], 1)
            for a, b in zip(cuts, cuts[1:])
        ]
        assert np.array_equal(whole, np.concatenate(parts))


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 4, 10, 60, 160, 600])
    def test_nodes_match_numpy(self, n):
        x, w = shadows._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - ref_x).max() <= 1e-15
        assert np.all(np.diff(x) > 0)
        # numpy's weights drift with n (2e-10 relative at n = 600), so compare
        # them where they are accurate; the moments below check every n
        if n <= 10:
            assert np.abs(w / ref_w - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 10, 160, 600])
    def test_integrates_every_degree_below_2n(self, n):
        x, w = shadows._gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(0, 2 * n, 2):
            assert np.dot(w, x**k) == pytest.approx(2.0 / (k + 1), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 7, 253])
    def test_odd_or_empty_count_refused(self, n):
        # the mirrored half has no node at 0, so an odd count is refused
        # rather than returned one node short
        with pytest.raises(ValueError, match="even node count"):
            shadows._gauss_legendre(n)


@functools.lru_cache(maxsize=1)
def _bessel_nodes(w: WindowSpec, nodes: int):
    """The windowed Bessel transform at ``nodes`` heterodyne nodes, once per window.

    Evaluated at the largest truncation up to 6 whose default window is
    ``w``; returns that truncation's rows (entries (k + d, k), d-major), and
    the values and slopes, each of shape (rows, nodes).
    """
    top = max(m for m in range(7) if default_window(m) == w)
    transform = heterodyne_transform(top, w)
    r = shadows.PROFILE_STEPS["heterodyne"] * np.arange(nodes)
    parts = [transform(r[a : a + 4096]) for a in range(0, nodes, 4096)]
    return (
        shadows._dyads(top),
        np.concatenate([vals for vals, _ in parts], axis=1),
        np.concatenate([slopes for _, slopes in parts], axis=1),
    )


class TestProfileTable:
    def test_one_blas_thread_restores_the_callers_count(self):
        # the table's products run on one OpenBLAS thread, so its bits do not
        # follow OPENBLAS_NUM_THREADS; the caller's count comes back, also on error
        calls = measurement._openblas_threads()
        if calls is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, put = calls
        before = get()
        try:
            for threads in (2, 1):
                put(threads)
                with shadows._one_blas_thread():
                    assert get() == 1
                assert get() == threads
            put(2)
            with pytest.raises(ZeroDivisionError), shadows._one_blas_thread():
                1 / 0
            assert get() == 2
        finally:
            put(before)

    def test_homodyne_table_matches_adaptive(self):
        # rounds with |q| in each of the blocks [0, 1), ..., [3, 4)
        rng = np.random.default_rng(31)
        qs = np.array([0.0, 0.37, -1.21, 1.5 + 1 / 1024, -2.64, 3.05, -3.93])
        thetas = rng.uniform(-np.pi, np.pi, qs.size)
        batch_vals = homodyne_entries(thetas, qs, 3)
        for i in range(qs.size):
            for n1 in range(4):
                for n2 in range(4):
                    ref = homodyne_shadow_entry(n1, n2, thetas[i], qs[i], tol=1e-12)
                    assert batch_vals[i, n1, n2] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_interpolation_adds_no_error_to_the_rule(self, protocol):
        # interpolation adds at most 1e-10 of the profile scale to the fixed
        # Gauss-Legendre transform it tabulates, evaluated at the exact radii
        truncation = 2
        w = default_window(truncation) if protocol == "heterodyne" else None
        if protocol == "homodyne":
            block = homodyne_transform(truncation)
        else:
            block = heterodyne_transform(truncation, w)
        r = np.random.default_rng(5).uniform(0.0, 4.0, 64)
        table = shadows._profile_table(protocol, truncation, w)
        table.cover(r.max())
        exact = block(r)[0]
        assert np.abs(table(r) - exact).max() <= 1e-10 * np.abs(exact).max()

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_uncovered_radius_raises(self, protocol, monkeypatch):
        # the batch path covers a batch's largest radius once; a chunk read
        # past the nodes built raises, it is never clipped to the last node
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        w = default_window(2) if protocol == "heterodyne" else None
        table = shadows._profile_table(protocol, 2, w)
        table.cover(1.0)
        last = table.step * (table.values.shape[0] - 1)
        assert table(np.array([0.5, last - table.step])).shape[1] == 2
        for r in (last, last + 0.3, 40.0):
            with pytest.raises(ValueError, match="cover it first"):
                table(np.array([0.5, r]))

    @staticmethod
    def _table_at_every_node(protocol, truncation, w):
        table = shadows._profile_table(protocol, truncation, w)
        table.cover(shadows.PROFILE_MAX_RADIUS)
        r = table.step * np.arange(table.values.shape[0])
        assert r[-1] >= shadows.PROFILE_MAX_RADIUS
        return table, r

    @pytest.mark.parametrize("truncation", range(7))
    def test_homodyne_nodes_match_direct_transform(self, truncation, monkeypatch):
        # every node out to the radius limit, values and slopes: the blocks
        # built by angle addition against cos(t r) and sin(t r) at each node
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        table, r = self._table_at_every_node("homodyne", truncation, None)
        transform = homodyne_transform(truncation)
        errors, scales = np.zeros(2), np.zeros(2)
        for a in range(0, r.size, 4096):
            ref = transform(r[a : a + 4096])
            got = (table.values[a : a + 4096].T, table.slopes[a : a + 4096].T)
            for q in range(2):
                errors[q] = max(errors[q], np.abs(got[q] - ref[q]).max())
                scales[q] = max(scales[q], np.abs(ref[q]).max())
        assert np.all(errors <= 1e-13 * scales)

    @pytest.mark.parametrize("truncation", range(7))
    def test_heterodyne_nodes_match_bessel_transform(self, truncation, monkeypatch):
        # every node out to the radius limit, values and slopes: the cosine
        # and sine transforms of the Radon projections against the windowed
        # Bessel transform on its own Gauss-Legendre rule in rho
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        w = default_window(truncation)
        table, r = self._table_at_every_node("heterodyne", truncation, w)
        dyads, ref_vals, ref_slopes = _bessel_nodes(w, r.size)
        rows = [dyads.index(dk) for dk in shadows._dyads(truncation)]
        for got, ref in ((table.values, ref_vals[rows]), (table.slopes, ref_slopes[rows])):
            assert np.abs(got.T - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_heterodyne_rule_rounds_odd_counts_up(self):
        # at M = 6 the default window's inner piece asks for ceil(80/3 eta)
        # = 253 t-nodes; the rule takes 254, whose profiles the node test at
        # truncation 6 checks against the Bessel transform
        w = default_window(6)
        want = math.ceil(shadows._HET_NODES_PER_RHO * w.eta)
        assert want % 2 == 1
        t, _ = shadows._heterodyne_rows(6, w)
        assert np.count_nonzero(t < w.eta) == want + 1

    def test_bessel_reference_recurrence_matches_jv(self):
        # the reference's forward recurrence against jv at every order it
        # serves, for z up to 64 R at M = 6; small z puts many points in
        # the z < d + 1 branch
        z = np.outer(np.linspace(0.0, default_window(6).radius, 96), np.linspace(0.0, 64.0, 509))
        for d, got in enumerate(bessel_orders(7, z)):
            assert np.abs(got - jv(d, z)).max() <= 1e-13

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_chunked_batch_bit_identical(self, protocol, monkeypatch):
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        state = GaussianStateSpec.thermal(0.3)
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        batch = sample(state, 90, f"chunks-{protocol}")
        whole = stacked_entries(batch, [0], 1)
        chunks = ((0, 7), (7, 50), (50, 90))
        parts = [stacked_entries(batch_rows(batch, slice(a, b)), [0], 1) for a, b in chunks]
        assert np.array_equal(whole, np.concatenate(parts))
        # a far outcome grows the table; earlier rounds keep their bits
        shift = (0.0, 9.0) if protocol == "homodyne" else 9.0  # q, or both of (x, p)
        far = replace(batch_rows(batch, slice(1)), outcomes=batch.outcomes[:1] + shift)
        shadow_batch_entries(far, [0], 1)
        assert np.array_equal(whole, stacked_entries(batch, [0], 1))

    def test_growth_memory_bounded_by_values(self, monkeypatch):
        # the grown table is written in place, one sub-block of node offsets
        # at a time: no 512-node block of cosines and sines against the whole
        # t-rule (7.4 MB homodyne), no list of blocks beside the joined table
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        table = shadows._profile_table("homodyne", 3, None)
        assert traced_peak(table.cover, 5.5) <= 4.0
        table = shadows._profile_table("heterodyne", 6, default_window(6))
        peak = traced_peak(table.cover, 9.7)
        assert peak <= (table.values.nbytes + table.slopes.nbytes) / 1e6 + 4.0

    def test_homodyne_growth_in_half_sized_sub_blocks(self, monkeypatch):
        # 48 offsets a sub-block against the 600-node rule (0.46 MB of turns,
        # one buffer for every sub-block) and one buffer of shifted weights:
        # 1.35 MB for M = 3 to r = 5.5, where 96-offset sub-blocks, each
        # allocated beside the last, and a product per (sub-block, block) read
        # 2.43 MB
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        table = shadows._profile_table("homodyne", 3, None)
        assert traced_peak(table.cover, 5.5) <= 2.0

    @pytest.mark.parametrize("protocol, truncation", [("homodyne", 3), ("heterodyne", 2)])
    def test_failed_growth_keeps_the_table(self, protocol, truncation, monkeypatch):
        # a failure between two sub-blocks of a growth leaves the cached table
        # as it was, and a later growth gives the bits of an uninterrupted one
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        w = default_window(truncation) if protocol == "heterodyne" else None
        table = shadows._profile_table(protocol, truncation, w)
        table.cover(1.0)
        before = table.values.copy(), table.slopes.copy()
        one_thread, entered = shadows._one_blas_thread, []

        @contextlib.contextmanager
        def failing_second():
            entered.append(True)
            if len(entered) == 2:
                raise MemoryError("injected")
            with one_thread():
                yield

        with monkeypatch.context() as patched:
            patched.setattr(shadows, "_one_blas_thread", failing_second)
            with pytest.raises(MemoryError, match="injected"):
                table.cover(6.0)
        assert np.array_equal(table.values, before[0])
        assert np.array_equal(table.slopes, before[1])
        table.cover(6.0)
        shadows._PROFILE_TABLES.clear()
        reference = shadows._profile_table(protocol, truncation, w)
        reference.cover(1.0)
        reference.cover(6.0)
        assert np.array_equal(table.values, reference.values)
        assert np.array_equal(table.slopes, reference.slopes)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_radius_limit(self, protocol):
        r = shadows.PROFILE_MAX_RADIUS + 1.0
        if protocol == "homodyne":
            batch = SampleBatch("homodyne", [[[0.1, 0.2]], [[0.4, -r]]])
        else:
            batch = SampleBatch("heterodyne", [[[0.2, 0.1]], [[0.0, r]]])
        with pytest.raises(ValueError, match=f"outcome radius {r:g} exceeds"):
            shadow_batch_entries(batch, [0], 1)


    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_radius_checked_before_any_block(self, protocol, monkeypatch):
        # an outcome past the limit in the last chunk raises before the first
        # chunk grows the table
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})
        n = shadows._CHUNK_ROUNDS + 1
        far = shadows.PROFILE_MAX_RADIUS + 1.0
        batch = SampleBatch(protocol, np.full((n, 1, 2), 0.5))
        batch.outcomes[-1, 0] = (0.0, far)  # homodyne (theta, q), heterodyne (x, p)
        with pytest.raises(ValueError, match="exceeds the profile-table limit"):
            shadow_batch_entries(batch, [0], 1)
        (table,) = shadows._PROFILE_TABLES.values()
        assert table.values.shape[0] == 0


class TestAveraging:
    def test_single_shadow_identity(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 1, "a1")
        stacked = stacked_entries(batch, [0], 2)
        avg = average_entries(stacked, (0,), 2, "homodyne")
        assert np.array_equal(avg.mean, stacked[0])
        assert np.all(avg.stderr == 0)

    def test_same_order_bit_identity(self):
        batch = sample_homodyne_batch(GaussianStateSpec.vacuum(), 33, "a2")
        first = average_entries(shadow_batch_entries(batch, [0], 2), (0,), 2, "homodyne")
        again = average_entries(shadow_batch_entries(batch, [0], 2), (0,), 2, "homodyne")
        assert np.array_equal(first.mean, again.mean)
        assert np.array_equal(first.stderr, again.stderr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_entries(np.zeros((0, 3, 3), dtype=complex), (0,), 2, "homodyne")

    def test_chunked_passes_match_numpy(self):
        # one pass over chunks of rows: the mean and the n - 1 variance,
        # within the worst-case summation error n eps of the numpy forms, also
        # 1e3 from zero, where sum |x|^2 - n |mean|^2 would lose the variance
        rng = np.random.default_rng(8)
        n = 2 * shadows._CHUNK_ROUNDS + 5
        draws = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        for offset in (3.0, 1e3):
            stacked = offset + draws
            avg = average_entries(stacked, (0,), 2, "homodyne")
            tol = n * np.finfo(float).eps
            assert np.abs(avg.mean - stacked.mean(axis=0)).max() <= tol * np.abs(stacked).max()
            stderr = np.sqrt(np.var(stacked, axis=0, ddof=1) / n)
            assert np.abs(avg.stderr / stderr - 1.0).max() <= tol

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_chunks_and_stack_average_alike(self, protocol, r):
        # a stack is read in the chunks the entries come in: the same bits
        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        n = 2 * shadows._CHUNK_ROUNDS + 5
        batch = sample(GaussianStateSpec.thermal(0.4, modes=3), n, f"fold-{protocol}")
        subset = tuple(range(r))
        chunked = average_entries(shadow_batch_entries(batch, subset, 1), subset, 1, protocol)
        stacked = average_entries(stacked_entries(batch, subset, 1), subset, 1, protocol)
        assert chunked.count == stacked.count == n
        assert np.array_equal(chunked.mean, stacked.mean)
        assert np.array_equal(chunked.stderr, stacked.stderr)

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_entries_and_average_memory_bounded(self, protocol):
        # r = 2, M = 1: the entries and their average hold a chunk of rounds
        # at a time, so the traced peak is the same at N = 5e4 and N = 2e5
        import tracemalloc

        sample = sample_homodyne_batch if protocol == "homodyne" else sample_heterodyne_batch
        peaks = []
        for n in (50_000, 200_000):
            batch = sample(GaussianStateSpec.thermal(0.4, modes=2), n, f"mem-{protocol}")
            shadow_batch_entries(batch, [0, 1], 1)  # warm the profile table
            tracemalloc.start()
            try:
                average_entries(shadow_batch_entries(batch, [0, 1], 1), (0, 1), 1, protocol)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8.0
        assert abs(peaks[1] - peaks[0]) <= 0.5

    @pytest.mark.parametrize("r, truncation", [(2, 5), (3, 2)])
    def test_average_memory_bounded_by_values(self, r, truncation):
        # D = 36 and 27: a chunk holds at most 2^16 matrix entries (50 and 89
        # rounds), not 4096 rounds (260 and 151 MB traced at N = 2e4)
        subset = tuple(range(r))
        peaks = []
        for n in (5_000, 20_000):
            batch = sample_homodyne_batch(GaussianStateSpec.thermal(0.4, modes=3), n, f"mem-{r}")
            shadow_batch_entries(batch, subset, truncation)  # warm the profile table
            chunks = shadow_batch_entries(batch, subset, truncation)
            peaks.append(traced_peak(average_entries, chunks, subset, truncation, "homodyne"))
        assert max(peaks) <= 8.0
        assert abs(peaks[1] - peaks[0]) <= 0.5

    def test_bench_cat_pipeline_memory(self, monkeypatch):
        # the benchmark's cat batch: sampling, a cold table growth and the
        # average stay within 7 MB traced beside the (N, 1, 2) batch itself
        monkeypatch.setattr(shadows, "_PROFILE_TABLES", {})

        def pipeline():
            batch = sample_homodyne_batch(CatStateSpec(1 + 1j, "zero"), 100_000, "bench-cat")
            average_entries(shadow_batch_entries(batch, [0], 3), (0,), 3, "homodyne")

        assert traced_peak(pipeline) <= 7.0

    @pytest.mark.parametrize("dim", [8, 36])
    def test_value_sized_chunks_match_numpy(self, dim):
        # a chunk holds 1024 rows at D = 8 and 50 at D = 36; the one pass
        # keeps the n eps agreement with the numpy mean and n - 1 variance
        rng = np.random.default_rng(dim)
        cuts = value_slices(1 << 20, dim * dim, SLICE_BUDGETS["rounds"], cap=shadows._CHUNK_ROUNDS)
        n = 10 * cuts[0].stop + 5
        draws = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        for offset in (3.0, 1e3):
            stacked = offset + draws
            avg = average_entries(stacked, (0,), 2, "homodyne")
            tol = n * np.finfo(float).eps
            assert np.abs(avg.mean - stacked.mean(axis=0)).max() <= tol * np.abs(stacked).max()
            stderr = np.sqrt(np.var(stacked, axis=0, ddof=1) / n)
            assert np.abs(avg.stderr / stderr - 1.0).max() <= tol

    def test_vacuum_heterodyne_average(self):
        w = default_window(2)
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 20_000, "a3")
        stacked = shadow_batch_entries(batch, [0], 2, w)
        avg = average_entries(stacked, (0,), 2, "heterodyne")
        target = project_PM_tilde(GaussianStateSpec.vacuum(), 2, w).entries
        dev = np.abs(avg.mean - target)
        assert np.all(dev <= 4.0 * avg.stderr + 1e-12)

    def test_json_roundtrip_and_integrity(self, tmp_path):
        batch = sample_heterodyne_batch(GaussianStateSpec.vacuum(), 64, "a4")
        stacked = shadow_batch_entries(batch, [0], 2)
        avg = average_entries(stacked, (0,), 2, "heterodyne")
        path = tmp_path / "avg.json"
        avg.to_json(path)
        loaded = ShadowAverage.from_json(path)
        assert np.allclose(loaded.mean, avg.mean)
        assert loaded.count == 64
        payload = json.loads(path.read_text())
        del payload["checksum"]
        corrupted = path.read_text().replace("0.", "1.", 1)
        path.write_text(corrupted)
        with pytest.raises(ValueError, match="integrity"):
            ShadowAverage.from_json(path)
        # a file that is not JSON, or JSON that is not an object, names its path
        for text in (corrupted[:40], "[1, 2]"):
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                ShadowAverage.from_json(path)
        # so does a file with a valid checksum but a missing key, M or A of
        # another type, A not distinct modes, or entries that are not
        # ((M+1)^|A|)^2 values: 9 of them at M = 3, or 5 at M = 2
        short = {key: payload[key][:5] for key in ("entries_re", "entries_im", "stderr")}
        for broken, message in (
            ({k: v for k, v in payload.items() if k != "M"}, "needs the keys ['M']"),
            (dict(payload, M=2.0), "M must be an integer >= 0 and A a list of modes"),
            (dict(payload, A=0), "M must be an integer >= 0 and A a list of modes"),
            (dict(payload, A=["x"]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[0.5]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[True]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[-1]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[[0]]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, A=[0, 0]), "A must be a non-empty list of distinct integers >= 0"),
            (dict(payload, M=3), "must each hold ((M+1)^|A|)^2 = 16 values"),
            (dict(payload, **short), "must each hold ((M+1)^|A|)^2 = 9 values"),
        ):
            path.write_text(json.dumps(dict(broken, checksum=json_sha256(broken))))
            pattern = re.escape(f"{path}: ") + ".*" + re.escape(message)
            with pytest.raises(ValueError, match=pattern):
                ShadowAverage.from_json(path)


class TestMasterUnbiasedness:
    """Empirical shadow averages converge to P_M / P~_M entrywise."""

    STATES = {
        "vacuum": GaussianStateSpec.vacuum(),
        "fock1": fock_state(1, 8),
        "thermal": GaussianStateSpec.thermal(0.5),
        "cat": CatStateSpec(1 + 1j, "zero"),
    }

    @pytest.mark.parametrize("name", ["vacuum", "fock1", "thermal", "cat"])
    def test_homodyne(self, name):
        state = self.STATES[name]
        truncation = 3
        exact = state if isinstance(state, FockMatrix) else fock_matrix_of(state, 24)
        target = project_PM(exact, truncation).entries
        batch = sample_homodyne_batch(state, 30_000, f"mu-hom-{name}")
        stacked = shadow_batch_entries(batch, [0], truncation)
        avg = average_entries(stacked, (0,), truncation, "homodyne")
        dev = np.abs(avg.mean - target)
        assert np.all(dev <= 4.0 * avg.stderr + 1e-12)

    def test_correlated_chain_pair_homodyne(self):
        # r = 2 on a correlated pair: the exact two-mode target passes, the
        # product of the one-mode marginals does not
        chain = chain_ground_state(ChainSpec(50, 0.99))
        truncation = 3
        batch = sample_homodyne_batch(chain, 20_000, "chain-pair-z")
        stacked = shadow_batch_entries(batch, [0, 1], truncation)
        avg = average_entries(stacked, (0, 1), truncation, "homodyne")
        stderr = np.maximum(avg.stderr, 1e-12)
        joint = fock_matrix_of(chain.marginal([0, 1]), truncation).entries
        product = np.kron(
            fock_matrix_of(chain.marginal([0]), truncation).entries,
            fock_matrix_of(chain.marginal([1]), truncation).entries,
        )
        assert (np.abs(avg.mean - joint) / stderr).max() <= 4.0
        assert (np.abs(avg.mean - product) / stderr).max() > 4.0

    @pytest.mark.parametrize("name", ["vacuum", "thermal", "cat"])
    def test_heterodyne(self, name):
        state = self.STATES[name]
        truncation = 3
        w = default_window(truncation)
        target = project_PM_tilde(state, truncation, w).entries
        batch = sample_heterodyne_batch(state, 30_000, f"mu-het-{name}")
        stacked = shadow_batch_entries(batch, [0], truncation, w)
        avg = average_entries(stacked, (0,), truncation, "heterodyne")
        dev = np.abs(avg.mean - target)
        assert np.all(dev <= 4.0 * avg.stderr + 1e-12)


class TestProjections:
    def test_project_identity(self):
        fock = fock_matrix_of(GaussianStateSpec.thermal(1.0), 3)
        assert np.array_equal(project_PM(fock, 3).entries, fock.entries)

    def test_project_vacuum_m0(self):
        fock = fock_matrix_of(GaussianStateSpec.vacuum(), 5)
        assert np.allclose(project_PM(fock, 0).entries, [[1.0]])

    def test_project_thermal(self):
        fock = fock_matrix_of(GaussianStateSpec.thermal(1.0), 6)
        assert np.allclose(project_PM(fock, 1).entries, np.diag([0.5, 0.25]))

    def test_project_too_large(self):
        fock = fock_matrix_of(GaussianStateSpec.vacuum(), 2)
        with pytest.raises(ValueError):
            project_PM(fock, 3)

    def test_tilde_converges_to_sharp(self):
        w = WindowSpec(10.0, 12.0)
        tilde = project_PM_tilde(GaussianStateSpec.vacuum(), 2, w)
        sharp = project_PM(fock_matrix_of(GaussianStateSpec.vacuum(), 2), 2)
        assert np.abs(tilde.entries - sharp.entries).max() < 1e-6

    @pytest.mark.parametrize(
        "state", [GaussianStateSpec.coherent(8.0), CatStateSpec(1 + 1j, "zero")], ids=["coh8", "cat"]
    )
    def test_tilde_is_exactly_hermitian(self, state):
        # the diagonal keeps only the real part of its pairing
        tilde = project_PM_tilde(state, 3).entries
        assert np.array_equal(tilde, tilde.conj().T)

    def test_tiny_window_bias(self):
        w = WindowSpec(0.1, 0.2)
        tilde = project_PM_tilde(GaussianStateSpec.vacuum(), 1, w)
        # entry(0,0) ~ effective window area / (2 pi), up to the O(rho^2)
        # Gaussian factor of the vacuum pairing -- far from 1
        area, _ = quad(lambda r: r * w.xi_radial(r), 0, w.radius, limit=100)
        assert tilde.entries[0, 0].real == pytest.approx(area, rel=0.03)
        assert tilde.entries[0, 0].real < 0.1  # window bias dominates

    @pytest.mark.parametrize("eta", [4.0, 6.0, 8.0])
    @pytest.mark.parametrize(
        "name", ["vacuum", "thermal", "cat"]
    )
    def test_double_truncation_bound(self, eta, name):
        states = {
            "vacuum": GaussianStateSpec.vacuum(),
            "thermal": GaussianStateSpec.thermal(0.5),
            "cat": CatStateSpec(1 + 1j, "zero"),
        }
        state = states[name]
        truncation = 3
        w = WindowSpec(eta, eta + 2.0)
        sharp = project_PM(fock_matrix_of(state, 24), truncation)
        tilde = project_PM_tilde(state, truncation, w)
        diff = sharp.entries - tilde.entries
        trace_norm = np.abs(np.linalg.svd(diff, compute_uv=False)).sum()
        assert trace_norm <= delta0(eta, truncation, 0.0, 1)


def squeezed_vacuum(r: float) -> GaussianStateSpec:
    """Squeezed vacuum with quadrature variances ``e^{2r}`` and ``e^{-2r}``."""
    return GaussianStateSpec(np.zeros(2), np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)]))


class TestWindowedTarget:
    """``project_PM_tilde``: the polar pairing against independent references."""

    @pytest.mark.parametrize("truncation", [0, 3, 6, 28, 31])
    def test_vacuum_against_radial_quad(self, truncation):
        # the vacuum's pairing is diagonal, entry n the radial integral of
        # xi L_n(rho^2/2) exp(-rho^2/2); a 240-node tensor grid was 1.1e-6
        # and 1.6e-3 off at M = 28 and 31
        w = default_window(truncation)
        got = project_PM_tilde(GaussianStateSpec.vacuum(), truncation, w).entries
        for n in range(truncation + 1):

            def integrand(rho, n=n):
                gauss = math.exp(-0.5 * rho * rho)
                return rho * w.xi_radial(rho) * laguerre(n, 0, 0.5 * rho * rho) * gauss

            ref, _ = quad(
                integrand, 0.0, w.radius, points=[w.eta], epsabs=1e-13, epsrel=1e-12, limit=200
            )
            assert abs(got[n, n] - ref) <= 1e-12
        assert np.abs(got - np.diag(np.diag(got))).max() <= 1e-12

    @pytest.mark.parametrize("truncation", [3, 6])
    @pytest.mark.parametrize(
        "name", ["vacuum", "thermal", "coherent", "squeezed", "cat", "cat_plus", "fock3"]
    )
    def test_against_tensor_grid(self, name, truncation):
        state = {
            "vacuum": GaussianStateSpec.vacuum(),
            "thermal": GaussianStateSpec.thermal(0.5),
            "coherent": GaussianStateSpec.coherent(1.0 - 0.5j),
            "squeezed": squeezed_vacuum(0.5),
            "cat": CatStateSpec(1 + 1j, "zero"),
            "cat_plus": CatStateSpec(2.0, "plus"),
            "fock3": fock_state(3, 6),
        }[name]
        w = default_window(truncation)
        window = functools.partial(window_at, w)
        ref = fock_pairing_matrix(state.char, truncation, w.radius, 240, window=window)
        got = project_PM_tilde(state, truncation, w).entries
        assert np.abs(got - ref).max() <= 1e-9

    @pytest.mark.parametrize("truncation", [3, 31])
    @pytest.mark.parametrize("name", ["coherent", "cat", "squeezed", "antisqueezed"])
    def test_angles_converged(self, name, truncation, monkeypatch):
        state = {
            "coherent": GaussianStateSpec.coherent(8.0),
            "cat": CatStateSpec(5.0, "plus"),
            "squeezed": squeezed_vacuum(1.0),
            "antisqueezed": squeezed_vacuum(-1.0),
        }[name]
        got = project_PM_tilde(state, truncation).entries
        monkeypatch.setattr(shadows, "_PM_TILDE_ANGLES", 1024)
        finer = project_PM_tilde(state, truncation).entries
        assert np.abs(got - finer).max() <= 1e-13

    def test_set_up_memory(self):
        # the characteristic function and its FFT over the angles run 16
        # radii at a time, not over the whole (radii, 256) polar grid (4.5 MB)
        assert traced_peak(project_PM_tilde, GaussianStateSpec.vacuum(), 3) <= 1.0

    def test_refusals(self):
        with pytest.raises(ValueError, match="single-mode"):
            project_PM_tilde(GaussianStateSpec.vacuum(2), 1)
        with pytest.raises(ValueError, match="angles"):
            project_PM_tilde(GaussianStateSpec.vacuum(), shadows._PM_TILDE_ANGLES // 2)


class TestShadowCharEval:
    """The finite-squeezing noise multiplier ``f_mu_homodyne``."""

    def test_f_mu_identities(self):
        for s in (0.5, 1.0, 2.0):
            total, _ = quad(lambda r: r * f_mu_homodyne(r, s), 0, 300, limit=500)
            square, _ = quad(lambda r: r * f_mu_homodyne(r, s) ** 2, 0, 300, limit=500)
            assert 2 * np.pi * total == pytest.approx(2 * np.pi, abs=1e-4)
            assert 2 * np.pi * square <= np.pi

    def test_f_mu_against_angular_quadrature(self):
        # the Bessel closed form vs the direct angular average
        s, rho = 1.2, 1.7
        def integrand(th):
            return np.exp(
                -0.5 * rho * rho * (np.exp(-2 * s) * np.cos(th) ** 2 + np.exp(2 * s) * np.sin(th) ** 2)
            )
        direct, _ = quad(integrand, -np.pi / 2, np.pi / 2, limit=200)
        assert f_mu_homodyne(rho, s) == pytest.approx(direct / np.pi, rel=1e-9)

    def test_scaled_i0_matches_scipy(self):
        # numpy's I0 up to 700, the asymptotic series beyond; criterion 10's
        # arguments reach 2.2e6
        x = np.concatenate([
            np.linspace(0.0, 50.0, 501),
            np.geomspace(50.0, 3e6, 2000),
            [699.0, 699.999, 700.0, 700.001, 701.0],
        ])
        for sign in (1.0, -1.0):
            assert np.abs(_i0e(sign * x) / i0e(x) - 1.0).max() <= 1e-14
