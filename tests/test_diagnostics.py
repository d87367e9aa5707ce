"""Tests for ensemble mode estimators, the chaos distance, and flow z-scores."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairjump.circle import (
    TWO_PI,
    FourierDensity,
    UniformNoise,
    WrappedNormalNoise,
    density_from_coeffs,
)
from pairjump.diagnostics import (
    FLOOR_GRID,
    SUMMARY_COLUMNS,
    chaos_distance,
    compare_flow,
    iid_chaos_samples,
    resample_chaos_samples,
    summarize,
    summary_rows,
)
from pairjump.invariant import pair_correlation_closed
from pairjump.models import EnsembleResult, ModelSpec, simulate_ensemble


def iid_result(spec, n_particles, n_replicas, seed, times=(0.0,)):
    """Synthetic ensemble of i.i.d. draws from a noise spec (no dynamics)."""
    rng = np.random.default_rng(seed)
    T = len(times)
    ang = spec.sample(rng, (n_replicas, T * n_particles))
    return EnsembleResult(times=np.asarray(times, dtype=float),
                          snapshots=ang.reshape(n_replicas, T, n_particles),
                          n_events=np.zeros(n_replicas, dtype=np.int64))


def aligned_result(n_particles=5, n_replicas=3, angle=0.0):
    snaps = np.full((n_replicas, 1, n_particles), angle)
    return EnsembleResult(times=np.array([0.0]), snapshots=snaps,
                          n_events=np.zeros(n_replicas, dtype=np.int64))


def pair_stat_loops(snapshots, kmax):
    """Ordered-pair average of exp(-ik(theta_i - theta_j)), direct loops."""
    R, T, N = snapshots.shape
    out = np.zeros((T, kmax + 1))
    for ti in range(T):
        for k in range(kmax + 1):
            acc = 0.0
            for r in range(R):
                s = 0.0
                for i in range(N):
                    for j in range(N):
                        if i != j:
                            s += math.cos(k * (snapshots[r, ti, i] - snapshots[r, ti, j]))
                acc += s / (N * (N - 1))
            out[ti, k] = acc / R
    return out


def searchsorted_floor(f, n_particles, n_replicas, kmax, n_boot, rng):
    """The i.i.d. floor written out with a binary-search sampler and one new
    array per mode, the plain form of ``iid_chaos_samples``."""
    grid = density_from_coeffs(f, max(FLOOR_GRID, 2 * f.K + 2))
    N, w = n_particles, TWO_PI / grid.M
    cum = np.cumsum(grid.masses)
    cum[-1] = 1.0
    ref = (np.abs(f.coeffs[f.K:f.K + kmax + 1]) ** 2)[1:]
    out = np.empty(n_boot)
    for bi in range(n_boot):
        u = rng.random((n_replicas, 1, n_particles))
        idx = np.searchsorted(cum, u, side="right")
        lo = np.concatenate(([0.0], cum))[idx]
        theta = (idx - 0.5 + (u - lo) / (grid.values[idx] * w)) * w % TWO_PI
        z = np.exp(-1j * theta)
        powers = np.ones_like(z)
        b = np.empty((n_replicas, 1, kmax + 1))
        b[..., 0] = 1.0
        for k in range(1, kmax + 1):
            powers = powers * z
            S = powers.sum(axis=-1)
            b[..., k] = (np.abs(S) ** 2 - N) / (N * (N - 1))
        out[bi] = float(2.0 * np.sum((b[:, 0, 1:].mean(axis=0) - ref) ** 2))
    return out


def wn_reference(var, kmax):
    k = np.arange(-kmax, kmax + 1)
    return FourierDensity(np.exp(-k**2 * var / 2).astype(complex))


def uniform_reference(kmax):
    k = np.arange(-kmax, kmax + 1)
    return FourierDensity(np.where(k == 0, 1.0, 0.0).astype(complex))


class TestSummarize:
    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="2 replicas"):
            summarize(aligned_result(n_replicas=1))
        with pytest.raises(ValueError, match="kmax"):
            summarize(aligned_result(), kmax=0)

    def test_fully_aligned(self):
        s = summarize(aligned_result(angle=0.0), kmax=6)
        assert np.all(s.f1 == 1.0)
        assert np.all(s.pair == 1.0)
        assert np.all(s.f1_se == 0.0)
        assert np.all(s.pair_se == 0.0)

    def test_matches_direct_pair_loops(self):
        rng = np.random.default_rng(5)
        snaps = rng.uniform(0, 2 * np.pi, (3, 2, 7))
        res = EnsembleResult(times=np.array([0.0, 1.0]), snapshots=snaps,
                             n_events=np.zeros(3, dtype=np.int64))
        s = summarize(res, kmax=3)
        assert_allclose(s.pair, pair_stat_loops(snaps, 3), rtol=0, atol=1e-12)
        direct_f1 = np.exp(-1j * snaps[..., None] * np.arange(4)).mean(axis=(0, 2))
        assert_allclose(s.f1, direct_f1, rtol=0, atol=1e-12)

    def test_blocked_recurrence_equals_plain_loop(self):
        # 20 replicas x 2 checkpoints of 2000 angles run in three blocks
        res = iid_result(WrappedNormalNoise(0.7), 2000, 20, 8, times=(0.0, 1.0))
        s = summarize(res, kmax=6)
        z = np.exp(-1j * res.snapshots)
        powers = np.ones_like(z)
        N = 2000
        a = np.empty((20, 2, 7), dtype=complex)
        b = np.empty((20, 2, 7))
        a[..., 0] = b[..., 0] = 1.0
        for k in range(1, 7):
            powers = powers * z
            S = powers.sum(axis=-1)
            a[..., k] = S / N
            b[..., k] = (np.abs(S) ** 2 - N) / (N * (N - 1))
        assert s.pair_reps.tobytes() == b.tobytes()
        assert s.f1.tobytes() == a.mean(axis=0).tobytes()
        assert s.pair.tobytes() == b.mean(axis=0).tobytes()

    def test_mode_zero_and_bounds(self):
        s = summarize(iid_result(WrappedNormalNoise(1.0), 20, 30, 909), kmax=8)
        assert np.all(s.f1[:, 0] == 1.0)
        assert np.all(s.pair[:, 0] == 1.0)
        assert np.all(np.abs(s.f1) <= 1.0)
        assert np.all(np.abs(s.pair) <= 1.0)

    def test_iid_uniform_pairs_uncorrelated(self):
        s = summarize(iid_result(UniformNoise(), 100, 100, 11101), kmax=4)
        assert abs(s.pair[0, 1]) < 4 * s.pair_se[0, 1]

    def test_iid_wrapped_normal_product_identity(self):
        # for independent particles C(k) estimates |fhat(k)|^2
        s = summarize(iid_result(WrappedNormalNoise(0.5), 100, 100, 22202), kmax=4)
        assert abs(s.pair[0, 1] - math.exp(-0.5)) < 4 * s.pair_se[0, 1]

    def test_se_scaling_with_replicas(self):
        g = WrappedNormalNoise(0.5)
        small = summarize(iid_result(g, 50, 100, 66606), kmax=2)
        big = summarize(iid_result(g, 50, 400, 66607), kmax=2)
        assert 1.6 < small.f1_se[0, 1] / big.f1_se[0, 1] < 2.4
        assert 1.6 < small.pair_se[0, 1] / big.pair_se[0, 1] < 2.4


class TestChaosDistance:
    def test_aligned_vs_uniform_is_2k(self):
        s = summarize(aligned_result(), kmax=6)
        for K in (1, 3, 6):
            assert chaos_distance(s, uniform_reference(6), kmax=K) == pytest.approx(2 * K)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        snaps = rng.uniform(0, 2 * np.pi, (20, 1, 30))
        base = EnsembleResult(times=np.array([0.0]), snapshots=snaps,
                              n_events=np.zeros(20, dtype=np.int64))
        shifts = rng.uniform(0, 2 * np.pi, 20)
        rotated = EnsembleResult(times=np.array([0.0]),
                                 snapshots=np.mod(snaps + shifts[:, None, None], 2 * np.pi),
                                 n_events=np.zeros(20, dtype=np.int64))
        f = wn_reference(0.5, 6)
        d0 = chaos_distance(summarize(base, kmax=6), f)
        d1 = chaos_distance(summarize(rotated, kmax=6), f)
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_iid_sample_below_noise_floor(self):
        f = wn_reference(0.5, 8)
        s = summarize(iid_result(WrappedNormalNoise(0.5), 100, 100, 33313), kmax=8)
        d = chaos_distance(s, f)
        floor = iid_chaos_samples(f, 100, 100, 8, 200, np.random.default_rng(44404))
        assert d < np.quantile(floor, 0.95)

    def test_stationary_small_n_matches_invariant_profile(self):
        # long CL run at N=4: pair statistic equals the stationary profile,
        # so D against the uniform density estimates 2*sum_k Fhat(k)^2
        g = WrappedNormalNoise(0.5)
        ens = simulate_ensemble(ModelSpec("cl", g), 4, 50.0, [50.0], 200, 20260814)
        s = summarize(ens, kmax=4)
        d = chaos_distance(s, uniform_reference(4))
        prof = pair_correlation_closed(g, 4, 4)
        pred = 2.0 * np.sum(prof.fhat[1:] ** 2)
        boot = resample_chaos_samples(s, uniform_reference(4), 2000,
                                      np.random.default_rng(55505))
        lo, hi = np.quantile(boot, [0.005, 0.995])
        assert lo < pred < hi
        assert d == pytest.approx(pred, rel=0.25)

    def test_kmax_validation(self):
        s = summarize(aligned_result(), kmax=4)
        with pytest.raises(ValueError, match="kmax"):
            chaos_distance(s, uniform_reference(4), kmax=5)
        with pytest.raises(ValueError, match="resolves only"):
            chaos_distance(s, uniform_reference(2))


@pytest.fixture(scope="module")
def cl_uniform_run():
    """CL with uniform jump noise from a wrapped normal start, N=1000."""
    ens = simulate_ensemble(ModelSpec("cl", UniformNoise()), 1000, 1.0,
                            [0.0, 1.0], 100, 20260814,
                            initial=WrappedNormalNoise(0.5))
    return summarize(ens, kmax=4)


def cl_mode_prediction(rate_factor, times, kmax, var=0.5):
    k = np.arange(kmax + 1)
    f0 = np.exp(-k**2 * var / 2)
    ghat = np.where(k == 0, 1.0, 0.0)
    out = np.empty((len(times), kmax + 1))
    for ti, t in enumerate(times):
        out[ti] = f0 * np.exp(rate_factor * (ghat - 1.0) * t / 2)
    return out


class TestCompareFlow:
    def test_matched_prediction_within_noise(self, cl_uniform_run):
        z = compare_flow(cl_uniform_run, cl_mode_prediction(2.0, (0.0, 1.0), 4))
        assert np.all(np.abs(z[0]) < 4.0)  # t=0 is pure sampling noise
        assert abs(z[1, 1]) < 4.0          # exact decay e^{-t} of mode 1

    def test_mismatched_rate_factor_flagged(self, cl_uniform_run):
        z = compare_flow(cl_uniform_run, cl_mode_prediction(1.0, (0.0, 1.0), 4))
        assert abs(z[1, 1]) > 10.0

    def test_mode_zero_is_exactly_zero(self, cl_uniform_run):
        z = compare_flow(cl_uniform_run, cl_mode_prediction(2.0, (0.0, 1.0), 4))
        assert np.all(z[:, 0] == 0.0)

    def test_zero_se_with_wrong_reference_is_inf(self):
        s = summarize(aligned_result(), kmax=2)
        ref = np.array([[1.0, 0.5, 1.0]])
        z = compare_flow(s, ref)
        assert np.isinf(z[0, 1])
        assert z[0, 2] == 0.0  # zero deviation with zero SE stays finite

    def test_shape_validation(self, cl_uniform_run):
        with pytest.raises(ValueError, match="shape"):
            compare_flow(cl_uniform_run, np.zeros((3, 5)))
        with pytest.raises(ValueError, match="kmax"):
            compare_flow(cl_uniform_run, np.zeros((2, 6)), kmax=5)


class TestSampleDraws:
    def test_iid_chaos_samples_deterministic(self):
        # wide enough that the K=8 truncation reconstructs a nonnegative density
        f = wn_reference(1.0, 8)
        a = iid_chaos_samples(f, 30, 20, 4, 25, np.random.default_rng(7))
        b = iid_chaos_samples(f, 30, 20, 4, 25, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0)

    @pytest.mark.parametrize("n_particles,n_replicas,kmax", [(30, 20, 4), (800, 41, 16)])
    def test_iid_chaos_samples_equal_plain_floor(self, n_particles, n_replicas, kmax):
        # 41 replicas of 800 angles span two blocks of the mode recurrence
        f = wn_reference(1.0, 16)
        got = iid_chaos_samples(f, n_particles, n_replicas, kmax, 4, np.random.default_rng(5))
        want = searchsorted_floor(f, n_particles, n_replicas, kmax, 4, np.random.default_rng(5))
        assert got.tobytes() == want.tobytes()

    def test_resample_of_aligned_ensemble_is_constant(self):
        s = summarize(aligned_result(), kmax=3)
        boot = resample_chaos_samples(s, uniform_reference(3), 50,
                                      np.random.default_rng(9))
        assert_allclose(boot, 6.0, rtol=1e-12)


class TestSummaryRows:
    def test_columns_and_layout(self):
        s = summarize(iid_result(WrappedNormalNoise(0.4), 10, 5, 31,
                                 times=(0.0, 0.5)), kmax=3)
        rows = list(summary_rows(s))
        assert SUMMARY_COLUMNS == ("t", "k", "re_f1", "im_f1", "se_f1",
                                   "re_C", "im_C", "se_C", "z_kinetic")
        assert len(rows) == 2 * 4
        assert all(len(r) == len(SUMMARY_COLUMNS) for r in rows)
        assert [r[0] for r in rows] == [0.0] * 4 + [0.5] * 4
        assert [r[1] for r in rows] == [0, 1, 2, 3] * 2
        assert all(r[6] == 0.0 for r in rows)  # pair statistic is real
        assert all(math.isnan(r[8]) for r in rows)

    def test_rows_carry_z_magnitudes(self):
        s = summarize(iid_result(WrappedNormalNoise(0.4), 10, 5, 32), kmax=2)
        z = np.array([[0.0, -1.5, 2.0]])
        rows = list(summary_rows(s, z))
        assert [r[8] for r in rows] == [0.0, 1.5, 2.0]
