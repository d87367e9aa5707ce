import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairjump.circle import (
    TWO_PI,
    FourierDensity,
    GridDensity,
    TabulatedNoise,
    UniformNoise,
    WrappedNormalNoise,
    fourier_coeffs,
)
from pairjump.diagnostics import summarize
from pairjump.kinetic import (
    RATE_FACTOR,
    ROW_DOT_MAX,
    KineticConfig,
    _Pushforward,
    _row_dots,
    bdg_evolve,
    bdg_gain,
    bisector_tables,
    cl_evolve,
)
from pairjump.models import ModelSpec, simulate_ensemble
from pairjump.verify import _quadrature_gain


def wn_coeffs(sigma2, K):
    k = np.arange(-K, K + 1)
    return FourierDensity(np.exp(-0.5 * k ** 2 * sigma2))


def point_mass_noise(M):
    vals = np.zeros(M)
    vals[0] = M / TWO_PI
    return TabulatedNoise(vals)


def vector_sum_angle(vi, vj):
    """Shorter-arc bisector of two angles: the angle of their unit-vector sum."""
    return np.arctan2(np.sin(vi) + np.sin(vj), np.cos(vi) + np.cos(vj)) % TWO_PI


def rk4_mode_ode(c0, ghat, rate_factor, t, n_steps=10_000):
    """Scalar-coefficient ODE dc/dt = rate_factor*(ghat-1)/2 * c integrated
    by classic Runge-Kutta; oracle for the closed-form mode solution."""
    lam = 0.5 * rate_factor * (ghat - 1.0)
    h = t / n_steps
    c = c0
    for _ in range(n_steps):
        k1 = lam * c
        k2 = lam * (c + 0.5 * h * k1)
        k3 = lam * (c + 0.5 * h * k2)
        k4 = lam * (c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def table_deposition(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Midpoint deposition of pa x pb scattered through the per-pair
    bisector tables: the solver's former form, kept as its reference."""
    M = pa.size
    lo, hi, w_hi = bisector_tables(M)
    pm = np.outer(pa, pb).ravel()
    w = w_hi.ravel()
    out = np.bincount(lo.ravel(), weights=pm * (1.0 - w), minlength=M)
    out += np.bincount(hi.ravel(), weights=pm * w, minlength=M)
    return out


def pushforward(p: np.ndarray) -> np.ndarray:
    """The solver's midpoint deposition of p x p, on a fresh workspace."""
    return _Pushforward(p.size)(p)


def half_circle(M):
    v = np.zeros(M)
    v[: M // 2] = 1.0
    return GridDensity.from_unnormalized(v)


class TestConfig:
    def test_defaults(self):
        assert RATE_FACTOR == 2.0
        assert KineticConfig().dt == 0.02

    @pytest.mark.parametrize("kwargs", [
        {"dt": -0.02},
        {"dt": 0.0500001},                  # just past 0.1/2
        {"dt": 0.06},                       # > 0.1/2
        {"dt": 0.0},
        {"dt": 0.11},                       # > 0.1/1, the old bound at half the rate
        {"dt": float("nan")},
        {"dt": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            KineticConfig(**kwargs)

    def test_dt_bound_scales_with_rate(self):
        KineticConfig(dt=0.1 / RATE_FACTOR)  # allowed at the boundary, dt = 0.05

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.5])
    def test_solvers_refuse_bad_horizons(self, t):
        g = WrappedNormalNoise(0.3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cl_evolve(wn_coeffs(0.5, 16), g, t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bdg_evolve(g.tabulate(32), g, t)


class TestClEvolve:
    def test_t_zero_identity(self):
        f0 = wn_coeffs(0.5, 16)
        out = cl_evolve(f0, WrappedNormalNoise(0.3), 0.0)
        assert np.array_equal(out.coeffs, f0.coeffs)

    def test_noiseless_copying_freezes(self):
        # ghat(k) = 1 for every k: nothing happens on the kinetic time scale
        M = 64
        f0 = wn_coeffs(0.5, 16)
        out = cl_evolve(f0, point_mass_noise(M), 3.0)
        assert_allclose(out.coeffs, f0.coeffs, rtol=0, atol=1e-12)

    def test_uniform_noise_mode_decay(self):
        f0 = wn_coeffs(0.5, 4)
        out = cl_evolve(f0, UniformNoise(), 1.0)
        assert out.coeff(1) == pytest.approx(f0.coeff(1) * np.exp(-1.0), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_against_mode_ode_integration(self, k):
        g = WrappedNormalNoise(0.4)
        f0 = wn_coeffs(0.5, 8)
        out = cl_evolve(f0, g, 1.7)
        want = rk4_mode_ode(f0.coeff(k), float(g.fourier(k)), RATE_FACTOR, 1.7)
        assert out.coeff(k) == pytest.approx(want, abs=1e-10)

    def test_mass_mode_fixed(self):
        f0 = wn_coeffs(0.5, 8)
        out = cl_evolve(f0, WrappedNormalNoise(0.3), 5.0)
        assert out.coeff(0) == 1.0

    def test_contraction_in_time(self):
        f0 = wn_coeffs(0.3, 8)
        g = WrappedNormalNoise(0.2)
        prev = np.abs(f0.coeffs)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            cur = np.abs(cl_evolve(f0, g, t).coeffs)
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_rotation_equivariance(self):
        phi = 0.7
        f0 = wn_coeffs(0.5, 8)
        g = WrappedNormalNoise(0.3)
        phase = np.exp(-1j * f0.kvals * phi)
        rotated = FourierDensity(f0.coeffs * phase)
        a = cl_evolve(rotated, g, 1.3)
        b = FourierDensity(cl_evolve(f0, g, 1.3).coeffs * phase)
        assert_allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cl_evolve(wn_coeffs(0.5, 4), UniformNoise(), -0.5)


class TestBisectorTable:
    def test_matches_continuous_midpoint_on_even_differences(self):
        M = 32
        lo, hi, w_hi = bisector_tables(M)
        w = TWO_PI / M
        for i in range(M):
            for d in range(-M // 2 + 2, M // 2, 2):  # even differences: exact cells
                j = (i + d) % M
                mid = vector_sum_angle(i * w, j * w)
                assert w_hi[i, j] == 0.0
                assert lo[i, j] == int(round(mid / w)) % M

    def test_antipodal_offset(self):
        M = 16
        lo, hi, w_hi = bisector_tables(M)
        for i in range(M):
            j = (i + M // 2) % M
            assert w_hi[i, j] == 0.0
            assert lo[i, j] == (i + M // 4) % M

    def test_diagonal(self):
        lo, hi, w_hi = bisector_tables(8)
        assert np.array_equal(np.diag(lo), np.arange(8))
        assert np.all(np.diag(w_hi) == 0.0)

    def test_boundary_midpoints_split_evenly(self):
        # odd cell differences have the true bisector on a cell boundary
        M = 8
        lo, hi, w_hi = bisector_tables(M)
        assert w_hi[0, 1] == 0.5 and lo[0, 1] == 0 and hi[0, 1] == 1
        assert w_hi[2, 5] == 0.5 and lo[2, 5] == 3 and hi[2, 5] == 4
        odd = (np.add.outer(np.arange(M), -np.arange(M)) % 2).astype(bool)
        assert np.all(w_hi[odd] == 0.5)
        assert np.all(w_hi[~odd] == 0.0)

    def test_translation_invariance(self):
        M = 16
        lo, hi, w_hi = bisector_tables(M)
        for s in (1, 2, 7):
            # rolled[i, j] = lo[i-s, j-s], which must equal lo[i, j] - s
            assert np.array_equal(np.roll(np.roll(lo, s, 0), s, 1), (lo - s) % M)
            assert np.array_equal(np.roll(np.roll(w_hi, s, 0), s, 1), w_hi)


class TestPushforward:
    @pytest.mark.parametrize("M", [2 ** e for e in range(1, 11)])
    def test_diagonal_sums_match_table_deposition(self, M):
        rng = np.random.default_rng(M)
        p = rng.random(M) ** 3
        p /= p.sum()
        want = table_deposition(p, p)
        got = pushforward(p)
        assert np.max(np.abs(got - want)) <= 1e-14 * want.max()

    @pytest.mark.parametrize("M", [2, 4, 8, 1024])
    def test_rolled_input_rolls_output_bit_for_bit(self, M):
        # M = 2 has no mirror pair and an odd antipodal difference; M = 4 has
        # no even mirror pair and an even antipodal difference
        p = np.random.default_rng(M).random(M)
        p /= p.sum()
        out = pushforward(p)
        for s in (1, 2, 3, M // 2 + 1):
            assert np.array_equal(pushforward(np.roll(p, s)), np.roll(out, s))

    @pytest.mark.parametrize("M", [2, 4, 256])
    def test_reused_workspace_gives_fresh_workspace_bytes(self, M):
        # one workspace serves every right-hand side of a solve: a call must not
        # see the previous input, and a result must not live in the buffers the
        # next call refills
        rng = np.random.default_rng(M)
        p1, p2 = rng.random(M), rng.random(M)
        push = _Pushforward(M)
        got = [push(p1), push(p2), push(p1)]
        for p, out in zip((p1, p2, p1), got):
            assert out.tobytes() == _Pushforward(M)(p).tobytes()
        buffers = [v for v in vars(push).values() if isinstance(v, np.ndarray)]
        assert buffers
        for out in got:
            assert out.flags.owndata
            assert not any(np.shares_memory(out, b) for b in buffers)

    def test_point_mass_fixed(self):
        M = 32
        p = np.zeros(M)
        p[5] = 1.0
        out = pushforward(p)
        assert out[5] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_fixed(self):
        M = 64
        p = np.full(M, 1.0 / M)
        assert_allclose(pushforward(p), 1.0 / M, rtol=0, atol=1e-14)

    def test_two_point_masses(self):
        # equal masses at 0 and pi/2: ordered pairs (0,0), (q,q) keep their
        # cell, (0,q) and (q,0) meet at pi/4
        M = 16
        p = np.zeros(M)
        p[0] = p[4] = 0.5
        m = pushforward(p)
        assert m[0] == pytest.approx(0.25, abs=1e-12)
        assert m[4] == pytest.approx(0.25, abs=1e-12)
        assert m[2] == pytest.approx(0.5, abs=1e-12)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_one(self):
        rng = np.random.default_rng(0)
        p = GridDensity.from_unnormalized(rng.random(128) + 0.01).masses
        assert pushforward(p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_spectral_law_like_inverse_m_squared(self):
        # the shorter-arc midpoint law of two i.i.d. angles has modes
        # mu_hat(k) = sum_p fhat(p) fhat(k - p) sinc((k - 2p) / 2), a reference
        # that shares nothing with the bisector tables
        f = WrappedNormalNoise(0.5)
        p = np.arange(-60, 61)
        want = np.array([np.sum(f.fourier(p) * f.fourier(k - p) * np.sinc((k - 2 * p) / 2))
                         for k in range(-8, 9)])

        def midpoint_law(M):
            p = f.tabulate(M).masses
            return GridDensity.from_unnormalized(pushforward(p))

        err = {M: np.max(np.abs(fourier_coeffs(midpoint_law(M), 8).coeffs - want))
               for M in (256, 512)}
        assert 3.5 <= err[256] / err[512] <= 4.5
        assert err[512] < 5e-5


ROW_DOTS_PROBE = """
import numpy as np
from pairjump.kinetic import _row_dots
a, b = np.random.default_rng(7).random((2, 8, 20001))
print(_row_dots(a, b, np.empty((8, 1, 1))).tobytes().hex())
"""


class TestRowDots:
    def test_long_rows_are_dotted_in_parts_added_left_to_right(self):
        a, b = np.random.default_rng(7).random((2, 8, 20001))
        assert ROW_DOT_MAX == 8192
        want = [(x[:8192] @ y[:8192] + x[8192:16384] @ y[8192:16384]) + x[16384:] @ y[16384:]
                for x, y in zip(a, b)]
        got = _row_dots(a, b, np.empty((8, 1, 1)))
        assert got.tobytes() == np.array(want).tobytes()
        assert_allclose(got, np.einsum("ij,ij->i", a, b), rtol=1e-13)

    def test_short_rows_are_one_dot(self):
        a, b = np.random.default_rng(8).random((2, 5, ROW_DOT_MAX))
        got = _row_dots(a, b, np.empty((5, 1, 1)))
        want = np.matmul(a[:, None, :], b[:, :, None]).ravel()
        assert got.tobytes() == want.tobytes()

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot of more than 10^4 entries across its threads
        src = Path(__file__).resolve().parents[1] / "src"
        hexes = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
            hexes.add(subprocess.run([sys.executable, "-c", ROW_DOTS_PROBE], env=env, check=True,
                                     capture_output=True, text=True, timeout=60).stdout.strip())
        assert len(hexes) == 1


class TestGain:
    def test_uniform_density_fixed(self):
        M = 64
        f = GridDensity(np.full(M, 1.0 / TWO_PI))
        out = bdg_gain(f, WrappedNormalNoise(0.2))
        assert_allclose(out.values, 1.0 / TWO_PI, rtol=0, atol=1e-12)

    def test_uniform_noise_flattens(self):
        rng = np.random.default_rng(1)
        f = GridDensity.from_unnormalized(rng.random(64) + 0.1)
        out = bdg_gain(f, UniformNoise())
        assert_allclose(out.values, 1.0 / TWO_PI, rtol=0, atol=1e-12)

    def test_matches_triple_loop(self):
        M = 256
        f = WrappedNormalNoise(0.3).tabulate(M)
        g = WrappedNormalNoise(0.1)
        got = bdg_gain(f, g)
        want = _quadrature_gain(f, g) * (M / TWO_PI)
        assert np.max(np.abs(got.values - want)) < 1e-8

    def test_is_one_pushforward_then_the_noise_convolution(self):
        M = 64
        f = GridDensity.from_unnormalized(np.random.default_rng(4).random(M) + 0.05)
        g = WrappedNormalNoise(0.3)
        masses = np.fft.irfft(np.fft.rfft(pushforward(f.masses))
                              * np.fft.rfft(g.tabulate(M).masses), M)
        want = GridDensity.from_unnormalized(np.clip(masses, 0.0, None) * (M / TWO_PI))
        assert bdg_gain(f, g).values.tobytes() == want.values.tobytes()

    def test_mass_one(self):
        rng = np.random.default_rng(2)
        f = GridDensity.from_unnormalized(rng.random(128) + 0.05)
        out = bdg_gain(f, WrappedNormalNoise(0.5))
        assert out.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bilinearity_by_polarization(self):
        # push(a f1 + (1-a) f2) = a^2 B11 + (1-a)^2 B22 + a(1-a) cross,
        # with cross recovered from the pushforward of the half mixture
        M = 128
        rng = np.random.default_rng(3)
        p1 = GridDensity.from_unnormalized(rng.random(M) + 0.1).masses
        p2 = GridDensity.from_unnormalized(rng.random(M) + 0.1).masses
        push = pushforward
        B11, B22 = push(p1), push(p2)
        cross = 4.0 * push(0.5 * (p1 + p2)) - B11 - B22
        a = 0.3
        got = push(a * p1 + (1 - a) * p2)
        want = a ** 2 * B11 + (1 - a) ** 2 * B22 + a * (1 - a) * cross
        assert_allclose(got, want, rtol=0, atol=1e-12)


class TestBdgEvolve:
    CFG = KineticConfig(dt=0.02)

    def test_uniform_fixed_point(self):
        M = 64
        f0 = GridDensity(np.full(M, 1.0 / TWO_PI))
        out = bdg_evolve(f0, WrappedNormalNoise(0.2), 1.0, self.CFG)
        assert_allclose(out.values, 1.0 / TWO_PI, rtol=0, atol=1e-10)

    def test_t_zero_identity(self):
        f0 = WrappedNormalNoise(0.3).tabulate(128)
        out = bdg_evolve(f0, WrappedNormalNoise(0.2), 0.0, self.CFG)
        assert np.array_equal(out.values, f0.values)

    def test_dt_halving(self):
        f0 = WrappedNormalNoise(0.3).tabulate(256)
        g = WrappedNormalNoise(0.1)
        a = bdg_evolve(f0, g, 1.0, KineticConfig(dt=0.02))
        b = bdg_evolve(f0, g, 1.0, KineticConfig(dt=0.01))
        assert np.max(np.abs(a.values - b.values)) < 1e-6

    def test_mass_conserved(self):
        f0 = WrappedNormalNoise(0.3).tabulate(256)
        out = bdg_evolve(f0, WrappedNormalNoise(0.2), 2.0, self.CFG)
        assert abs(out.masses.sum() - 1.0) < 1e-10
        c = fourier_coeffs(out, 8)
        assert c.coeff(0) == pytest.approx(1.0, abs=1e-10)

    def test_mass_stays_put_over_long_runs(self):
        # a loss of p (not sum(p) * p) repels the mass from 1, and the drift
        # check aborted this run at t = 7
        f0 = WrappedNormalNoise(0.5).tabulate(64)
        out = bdg_evolve(f0, WrappedNormalNoise(0.2), 20.0, self.CFG)
        assert abs(out.masses.sum() - 1.0) < 1e-14

    def test_rotation_equivariance_grid_shift(self):
        # the even tie split makes the deposition commute with every grid
        # rotation, odd shifts included
        M = 128
        s = 17
        f0 = WrappedNormalNoise(0.4).tabulate(M)
        g = WrappedNormalNoise(0.2)
        cfg = KineticConfig(dt=0.02)
        rotated = GridDensity(np.roll(f0.values, s))
        a = bdg_evolve(rotated, g, 1.0, cfg)
        b = np.roll(bdg_evolve(f0, g, 1.0, cfg).values, s)
        assert_allclose(a.values, b, rtol=0, atol=1e-10)

    def test_negative_time_rejected(self):
        f0 = WrappedNormalNoise(0.3).tabulate(64)
        with pytest.raises(ValueError):
            bdg_evolve(f0, WrappedNormalNoise(0.2), -1.0, self.CFG)

    def test_relaxes_toward_uniform(self):
        f0 = WrappedNormalNoise(0.3).tabulate(256)
        g = WrappedNormalNoise(0.2)
        m1 = [abs(fourier_coeffs(bdg_evolve(f0, g, t, self.CFG), 4).coeff(1))
              for t in (0.0, 1.0, 3.0)]
        assert m1[0] > m1[1] > m1[2]

    def test_builds_no_table(self):
        bisector_tables.cache_clear()
        bdg_evolve(WrappedNormalNoise(0.3).tabulate(512), WrappedNormalNoise(0.2), 0.1, self.CFG)
        assert bisector_tables.cache_info().misses == 0

    def test_coarse_tabulated_noise_matches_particles(self):
        # A6's shape with a 16-cell noise on the 256-cell solver grid: the
        # solver must see the carrier the particles draw from, not a shifted law
        g = TabulatedNoise(WrappedNormalNoise(0.3).tabulate(16).values)
        f0 = WrappedNormalNoise(0.5)
        ens = simulate_ensemble(ModelSpec("bdg", g), 2000, 0.5, [0.5], 200, 1,
                                initial=f0, workers=1)
        s = summarize(ens, kmax=2)
        f_kin = fourier_coeffs(bdg_evolve(f0.tabulate(256), g, 0.5, self.CFG), 2)
        for k in (1, 2):
            assert abs(s.f1[0, k] - f_kin.coeff(k)) / s.f1_se[0, k] < 4.0


class TestBdgStats:
    CFG = KineticConfig(dt=0.02)

    def test_smooth_run_counts_steps_and_no_clips(self):
        f0 = WrappedNormalNoise(0.3).tabulate(64)
        stats = {}
        bdg_evolve(f0, WrappedNormalNoise(0.2), 0.5, self.CFG, stats)
        assert stats["rk4_steps"] == 25
        assert stats["clipped_steps"] == 0
        assert 0.0 < stats["min_pre_clip"] <= f0.masses.min()

    def test_clips_are_counted(self):
        # without noise, cells off the half circle stay empty in exact
        # arithmetic; the FFT convolution leaves rounding-level negatives there
        stats = {}
        out = bdg_evolve(half_circle(64), point_mass_noise(64), 0.5, self.CFG, stats)
        assert stats["rk4_steps"] == 25
        assert 1 <= stats["clipped_steps"] <= 25
        assert -1e-15 < stats["min_pre_clip"] < 0.0
        assert out.values.min() >= 0.0

    def test_counts_add_up_over_a_chain(self):
        f0 = half_circle(64)
        g = point_mass_noise(64)
        whole, legs = {}, {}
        bdg_evolve(f0, g, 0.5, self.CFG, whole)
        mid = bdg_evolve(f0, g, 0.2, self.CFG, legs)
        first = dict(legs)
        bdg_evolve(mid, g, 0.3, self.CFG, legs)
        assert first["rk4_steps"] == 10
        assert legs["rk4_steps"] == 25 == whole["rk4_steps"]
        assert legs["clipped_steps"] >= first["clipped_steps"]
        assert legs["min_pre_clip"] <= first["min_pre_clip"]

    def test_zero_time_takes_no_step(self):
        f0 = WrappedNormalNoise(0.3).tabulate(32)
        stats = {}
        bdg_evolve(f0, WrappedNormalNoise(0.2), 0.0, self.CFG, stats)
        assert stats == {"rk4_steps": 0, "clipped_steps": 0, "min_pre_clip": f0.masses.min()}

    def test_gain_counts_its_clipped_cells(self):
        # a one-cell density under tabulated noise with empty cells: exact
        # arithmetic leaves those cells at 0, the FFT at rounding-level negatives
        f = GridDensity.from_unnormalized(np.eye(64)[5])
        vals = WrappedNormalNoise(0.05).tabulate(64).values
        g = TabulatedNoise(np.where(vals < 1e-3, 0.0, vals))
        stats = {}
        out = bdg_gain(f, g, stats)
        assert stats["clipped_cells"] >= 1
        assert -1e-15 < stats["min_pre_clip"] < 0.0
        assert out.values.min() >= 0.0
        assert out.values.tobytes() == bdg_gain(f, g).values.tobytes()

    def test_smooth_gain_clips_nothing(self):
        f = WrappedNormalNoise(0.3).tabulate(64)
        stats = {}
        out = bdg_gain(f, WrappedNormalNoise(0.2), stats)
        assert stats["clipped_cells"] == 0
        assert stats["min_pre_clip"] == pytest.approx(out.masses.min(), rel=1e-12)
        assert stats["min_pre_clip"] > 0.0

    def test_gain_counts_add_up(self):
        f, g = half_circle(64), point_mass_noise(64)
        once, twice = {}, {}
        bdg_gain(f, g, once)
        bdg_gain(f, g, twice)
        bdg_gain(f, g, twice)
        assert once["clipped_cells"] >= 1
        assert twice == {"clipped_cells": 2 * once["clipped_cells"],
                         "min_pre_clip": once["min_pre_clip"]}
