"""Tests for ensemble mode estimators, the chaos distance, and flow z-scores."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairjump import diagnostics
from pairjump.circle import (
    TWO_PI,
    FourierDensity,
    UniformNoise,
    WrappedNormalNoise,
    density_from_coeffs,
)
from pairjump.diagnostics import (
    FLOOR_GRID,
    PHASOR_TABLE,
    SUMMARY_COLUMNS,
    chaos_distance,
    compare_flow,
    _mode_stats,
    _phasors,
    _rotate,
    _turn_table,
    iid_chaos_mean,
    iid_chaos_samples,
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


def table_phasors(theta):
    return _phasors(theta, np.empty(np.shape(theta), dtype=complex))


def exp_phasors(theta):
    return np.exp(-1j * theta)


def plain_mode_stats(snapshots, kmax, phasors=table_phasors):
    """a_r(k) and b_r(k) with one new array per mode over the whole ensemble,
    the plain form of ``_mode_stats``."""
    R, T, N = snapshots.shape
    z = phasors(snapshots)
    powers = np.ones_like(z)
    a = np.empty((R, T, kmax + 1), dtype=complex)
    b = np.empty((R, T, kmax + 1))
    a[..., 0] = b[..., 0] = 1.0
    for k in range(1, kmax + 1):
        powers = powers * z
        S = powers.sum(axis=-1)
        a[..., k] = S / N
        b[..., k] = (np.abs(S) ** 2 - N) / (N * (N - 1))
    return a, b


def cell_phasors(cells, frac, M):
    """exp(-i theta) of theta = (cell - 1/2 + frac) h, h = 2 pi / M, written out as
    the floor forms it: the turn table's T[cell] times the Taylor polynomials
    of cos x and -sin x at x = (frac - 1/2) h."""
    x = (frac - 0.5) * (TWO_PI / M)
    x2 = x * x
    rot = np.empty(x.shape, dtype=complex)
    rot.real = ((x2 * (1.0 / 24.0)) - 0.5) * x2 + 1.0
    rot.imag = (((x2 * (-1.0 / 120.0)) + 1.0 / 6.0) * x2 - 1.0) * x
    rot *= _turn_table(M)[cells]  # in place: numpy's out-of-place loop may round differently
    return rot


def exp_cell_phasors(cells, frac, M):
    w = TWO_PI / M
    return np.exp(-1j * ((cells - 0.5 + frac) * w % TWO_PI))


def searchsorted_floor(f, n_particles, n_replicas, kmax, n_boot, rng, phasors=cell_phasors):
    """The i.i.d. floor written out with a binary-search sampler, one array per
    draw and ``plain_mode_stats``, the plain form of ``iid_chaos_samples``."""
    grid = density_from_coeffs(f, 1 << (max(FLOOR_GRID, 2 * f.K + 2) - 1).bit_length())
    cum = np.cumsum(grid.masses)
    cum[-1] = 1.0
    ref = (np.abs(f.coeffs[f.K:f.K + kmax + 1]) ** 2)[1:]
    out = np.empty(n_boot)
    for bi in range(n_boot):
        u = rng.random((n_replicas, n_particles))
        cells = np.searchsorted(cum, u, side="right")
        lo = np.concatenate(([0.0], cum))[cells]
        z = phasors(cells, (u - lo) / grid.masses[cells], grid.M)
        _, b = plain_mode_stats(z[:, None, :], kmax, lambda z: z)
        out[bi] = float(2.0 * np.sum((b[:, 0, 1:].mean(axis=0) - ref) ** 2))
    return out


def wn_reference(var, kmax):
    k = np.arange(-kmax, kmax + 1)
    return FourierDensity(np.exp(-k**2 * var / 2).astype(complex))


def uniform_reference(kmax):
    k = np.arange(-kmax, kmax + 1)
    return FourierDensity(np.where(k == 0, 1.0, 0.0).astype(complex))


class TestPhasors:
    H = TWO_PI / PHASOR_TABLE

    @pytest.mark.parametrize("theta", [
        np.random.default_rng(1).uniform(0.0, TWO_PI, 1 << 16),
        np.arange(-PHASOR_TABLE, 2 * PHASOR_TABLE) * H,          # table points
        (np.arange(-PHASOR_TABLE, 2 * PHASOR_TABLE) + 0.5) * H,  # rounding ties
        np.array([0.0, np.nextafter(TWO_PI, 0.0), -0.0]),
        -np.random.default_rng(2).uniform(0.0, TWO_PI, 1 << 14),
        np.random.default_rng(3).uniform(-1e3, 1e3, 1 << 16),
    ], ids=["uniform", "table", "ties", "ends", "negative", "large"])
    def test_within_4_ulp_of_exp(self, theta):
        err = np.abs(table_phasors(theta) - np.exp(-1j * theta))
        assert err.max() <= 8.9e-16


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

    def test_rejects_non_finite_angles(self):
        for bad in (np.nan, np.inf, -np.inf):
            res = aligned_result()
            res.snapshots[1, 0, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                summarize(res)

    def test_blocked_recurrence_equals_plain_loop(self):
        # 20 replicas x 2 checkpoints of 2000 angles run in three blocks
        res = iid_result(WrappedNormalNoise(0.7), 2000, 20, 8, times=(0.0, 1.0))
        s = summarize(res, kmax=6)
        a, b = plain_mode_stats(res.snapshots, 6)
        assert s.f1.tobytes() == a.mean(axis=0).tobytes()
        assert s.pair.tobytes() == b.mean(axis=0).tobytes()
        assert s.pair_se.tobytes() == np.sqrt(b.var(axis=0, ddof=1) / 20).tobytes()

    def test_within_ulps_of_exp_based_statistics(self):
        # the table-driven phasors move the summary at ulp level only
        res = iid_result(WrappedNormalNoise(0.7), 2000, 20, 8, times=(0.0, 1.0))
        s = summarize(res, kmax=16)
        a, b = plain_mode_stats(res.snapshots, 16, exp_phasors)
        assert np.max(np.abs(s.f1 - a.mean(axis=0))) <= 2e-15
        assert np.max(np.abs(s.pair - b.mean(axis=0))) <= 2e-16

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
        for K in (1, 3, 6):
            s = summarize(aligned_result(), kmax=K)
            assert chaos_distance(s, uniform_reference(6)) == pytest.approx(2 * K)

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
        # bootstrap draws of D, resampling replicas with replacement
        _, b = _mode_stats(ens.snapshots, 4)
        b = b[:, -1, 1:]
        rng = np.random.default_rng(55505)
        boot = [2.0 * np.sum(b[rng.integers(200, size=200)].mean(axis=0) ** 2)
                for _ in range(2000)]
        lo, hi = np.quantile(boot, [0.005, 0.995])
        assert lo < pred < hi
        assert d == pytest.approx(pred, rel=0.25)

    def test_kmax_validation(self):
        s = summarize(aligned_result(), kmax=4)
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
        by_exp = searchsorted_floor(f, n_particles, n_replicas, kmax, 4,
                                    np.random.default_rng(5), exp_cell_phasors)
        assert np.max(np.abs(got - by_exp) / by_exp) <= 1e-11

    @pytest.mark.parametrize("n_particles,n_replicas", [(30, 20), (800, 41)])
    def test_floor_takes_one_uniform_per_angle(self, n_particles, n_replicas):
        f = wn_reference(1.0, 16)
        rng, plain = np.random.default_rng(6), np.random.default_rng(6)
        iid_chaos_samples(f, n_particles, n_replicas, 8, 3, rng)
        plain.random(3 * n_replicas * n_particles)
        assert rng.random(4).tobytes() == plain.random(4).tobytes()

    @pytest.mark.parametrize("n_particles,n_replicas", [(30, 20), (800, 41)])
    def test_floor_does_not_depend_on_the_block_size(self, n_particles, n_replicas, monkeypatch):
        f = wn_reference(1.0, 16)
        want = iid_chaos_samples(f, n_particles, n_replicas, 8, 3, np.random.default_rng(7))
        monkeypatch.setattr(diagnostics, "MODE_BLOCK", 1000)
        got = iid_chaos_samples(f, n_particles, n_replicas, 8, 3, np.random.default_rng(7))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [512, 2048])
    def test_cell_phasors_within_4_ulp_of_extended_precision(self, M):
        rng = np.random.default_rng(M)
        # random draws, then both edges of every cell
        cells = np.concatenate((rng.integers(0, M, 1 << 16), np.arange(M), np.arange(M)))
        frac = np.concatenate((rng.random(1 << 16), np.zeros(M), np.full(M, 1.0)))
        x = (frac - 0.5) * (TWO_PI / M)
        got = _rotate(cells, x, _turn_table(M), np.empty(x.shape, dtype=complex))
        pi = 4 * np.arctan(np.longdouble(1))
        theta = (cells - np.longdouble(0.5) + frac) * (2 * pi / M)
        err = np.hypot(got.real - np.cos(theta), got.imag + np.sin(theta))
        assert float(err.max()) <= 8.9e-16

    def test_floor_grid_of_many_modes_is_a_power_of_two(self):
        # K = 300 needs M >= 602 cells; the floor takes 1024
        f = wn_reference(1e-3, 300)
        assert diagnostics._floor_grid(f).M == 1024
        assert diagnostics._floor_grid(wn_reference(1.0, 16)).M == FLOOR_GRID
        draws = iid_chaos_samples(f, 50, 40, 300, 40, np.random.default_rng(8))
        z = (draws.mean() - iid_chaos_mean(f, 50, 40, 300)) / (draws.std(ddof=1) / math.sqrt(40))
        assert np.all(draws > 0.0) and abs(z) <= 3.0

    @pytest.mark.parametrize("n_particles,n_replicas,kmax,match", [
        (1, 10, 4, "n_particles"), (10, 0, 4, "n_replicas"), (10, 10, 0, "kmax")])
    def test_meaningless_floor_is_refused(self, n_particles, n_replicas, kmax, match):
        f = wn_reference(1.0, 8)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            iid_chaos_samples(f, n_particles, n_replicas, kmax, 3, rng)
        with pytest.raises(ValueError, match=match):
            iid_chaos_mean(f, n_particles, n_replicas, kmax)
        assert rng.bit_generator.state == state


class TestFloorMean:
    def test_uniform_law_in_closed_form(self):
        # c(k) = 0 for k != 0, so Var_k = 1 / (N (N - 1)) and the bias vanishes
        N, R, K = 30, 7, 5
        assert iid_chaos_mean(uniform_reference(8), N, R, K) == pytest.approx(
            2 * K / (R * N * (N - 1)), rel=1e-12)

    def test_matches_monte_carlo_mean(self):
        f = wn_reference(0.5, 16)
        draws = iid_chaos_samples(f, 50, 400, 16, 200, np.random.default_rng(2026))
        z = (draws.mean() - iid_chaos_mean(f, 50, 400, 16)) / (draws.std(ddof=1) / math.sqrt(200))
        assert abs(z) <= 3.0

    def test_rejects_too_few_particles(self):
        with pytest.raises(ValueError, match="n_particles"):
            iid_chaos_mean(uniform_reference(4), 1, 10, 2)


class TestSummaryRows:
    def test_columns_and_layout(self):
        s = summarize(iid_result(WrappedNormalNoise(0.4), 10, 5, 31,
                                 times=(0.0, 0.5)), kmax=3)
        rows = list(summary_rows(s))
        assert SUMMARY_COLUMNS == ("t", "k", "re_f1", "im_f1", "se_f1",
                                   "re_C", "se_C")
        assert len(rows) == 2 * 4
        assert all(len(r) == len(SUMMARY_COLUMNS) for r in rows)
        assert [r[0] for r in rows] == [0.0] * 4 + [0.5] * 4
        assert [r[1] for r in rows] == [0, 1, 2, 3] * 2
        assert [r[5] for r in rows] == [float(c) for c in s.pair.ravel()]
