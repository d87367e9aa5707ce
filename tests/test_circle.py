import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import ive

from pairjump import circle
from pairjump.circle import (
    GUIDE_SLOTS_PER_CELL,
    TWO_PI,
    FourierDensity,
    GridDensity,
    TabulatedNoise,
    UniformNoise,
    VonMisesNoise,
    WrappedNormalNoise,
    density_from_coeffs,
    fourier_coeffs,
    sample_grid_density,
    wrap_angle,
)


def wrapped_normal_coeff_quadrature(sigma2, k, n_grid=1 << 14):
    """Independent check: integrate exp(-ik theta) against the image-sum
    density (images truncated at |j| <= 10) with the midpoint rule."""
    theta = (np.arange(n_grid) + 0.5) * (TWO_PI / n_grid) - np.pi
    j = np.arange(-10, 11) * TWO_PI
    dens = np.exp(-0.5 * (theta[:, None] + j[None, :]) ** 2 / sigma2).sum(axis=1)
    dens /= np.sqrt(TWO_PI * sigma2)
    return ((np.exp(-1j * k * theta) * dens).sum() * (TWO_PI / n_grid)).real


def direct_fourier_sum(coeffs, theta):
    K = (coeffs.size - 1) // 2
    k = np.arange(-K, K + 1)
    vals = (coeffs[None, :] * np.exp(1j * k[None, :] * theta[:, None])).sum(axis=1)
    return vals.real / TWO_PI


def direct_cyclic_convolution(a_vals, b_vals):
    M = a_vals.size
    w = TWO_PI / M
    idx = np.arange(M)
    out = np.empty(M)
    for m in range(M):
        out[m] = (a_vals * b_vals[(m - idx) % M]).sum() * w
    return out


def chi_square_pvalue(samples, grid):
    """Bin samples into the grid cells and test against grid.masses,
    merging cells with expected count < 10 into the largest cell."""
    M = grid.M
    cells = np.floor(samples / (TWO_PI / M) + 0.5).astype(int) % M
    counts = np.bincount(cells, minlength=M).astype(float)
    expected = grid.masses * samples.size
    small = expected < 10.0
    if small.any():
        big = np.argmax(expected)
        counts[big] += counts[small].sum()
        expected[big] += expected[small].sum()
        counts, expected = counts[~small], expected[~small]
    expected *= counts.sum() / expected.sum()
    return stats.chisquare(counts, expected).pvalue


class TestWrapAngle:
    def test_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=20.0, size=1000)
        w = wrap_angle(x)
        assert np.all(w >= 0.0) and np.all(w < TWO_PI)

    @pytest.mark.parametrize("x,expected", [
        (0.0, 0.0),
        (TWO_PI, 0.0),
        (-0.1, TWO_PI - 0.1),
        (3 * np.pi, np.pi),
    ])
    def test_values(self, x, expected):
        assert wrap_angle(x) == pytest.approx(expected, abs=1e-12)

    def test_scalar_stays_scalar(self):
        assert np.isscalar(wrap_angle(7.0)) or np.ndim(wrap_angle(7.0)) == 0


class TestGridDensity:
    def test_uniform_masses(self):
        d = GridDensity(np.full(64, 1.0 / TWO_PI))
        assert_allclose(d.masses, 1.0 / 64, rtol=0, atol=1e-15)
        assert_allclose(d.theta, np.arange(64) * TWO_PI / 64)

    def test_from_unnormalized(self):
        rng = np.random.default_rng(3)
        d = GridDensity.from_unnormalized(rng.random(32) + 0.1)
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("values", [
        np.full(48, 1.0 / TWO_PI),          # not a power of two
        np.full(1, 1.0 / TWO_PI),           # M < 2
        -np.full(64, 1.0 / TWO_PI),         # negative
        np.full(64, 2.0 / TWO_PI),          # mass 2
    ])
    def test_rejects_bad_values(self, values):
        with pytest.raises(ValueError):
            GridDensity(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN passes every comparison-based check, so it must be refused by name
        values = np.full(64, 1.0 / TWO_PI)
        values[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GridDensity(values)
        with pytest.raises(ValueError, match="non-finite"):
            TabulatedNoise(values)


class TestFourierDensity:
    def test_basic(self):
        k = np.arange(-4, 5)
        fd = FourierDensity(np.exp(-k.astype(float) ** 2))
        assert fd.K == 4
        assert fd.coeff(3) == pytest.approx(np.exp(-9.0))
        assert fd.coeff(-3) == fd.coeff(3)

    def test_rejects_bad_normalization(self):
        c = np.exp(-np.arange(-4, 5).astype(float) ** 2)
        with pytest.raises(ValueError):
            FourierDensity(0.5 * c)

    def test_rejects_non_hermitian(self):
        c = np.array([0.3 + 0.2j, 1.0, 0.3 - 0.1j])
        with pytest.raises(ValueError):
            FourierDensity(c)

    def test_rejects_modulus_above_one(self):
        with pytest.raises(ValueError):
            FourierDensity(np.array([1.5, 1.0, 1.5]))

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="finite"):
            FourierDensity(np.array([np.nan, 1.0, np.nan]))

    def test_coeff_out_of_range(self):
        fd = FourierDensity(np.array([0.5, 1.0, 0.5]))
        with pytest.raises(ValueError):
            fd.coeff(2)


class TestNoiseFourier:
    def test_wrapped_normal_closed_form(self):
        g = WrappedNormalNoise(0.5)
        d = g.tabulate(256)
        c = fourier_coeffs(d, 16)
        k = np.arange(-16, 17)
        assert_allclose(c.coeffs, np.exp(-0.5 * k ** 2 * 0.5), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("sigma2", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_wrapped_normal_against_quadrature(self, sigma2, k):
        got = WrappedNormalNoise(sigma2).fourier(k)
        want = wrapped_normal_coeff_quadrature(sigma2, k)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(np.exp(-0.5 * k ** 2 * sigma2), abs=1e-12)

    def test_uniform(self):
        g = UniformNoise()
        assert g.fourier(0) == 1.0
        assert_allclose(g.fourier(np.arange(1, 17)), 0.0, atol=1e-15)

    def test_von_mises_bessel_ratio(self):
        g = VonMisesNoise(2.0)
        want = ive(1, 2.0) / ive(0, 2.0)
        assert g.fourier(1) == pytest.approx(want, abs=1e-12)
        assert g.fourier(1) == pytest.approx(0.697775, abs=1e-6)

    def test_von_mises_zero_kappa_is_uniform(self):
        g = VonMisesNoise(0.0)
        assert_allclose(g.fourier(np.arange(1, 9)), 0.0, atol=1e-14)
        assert g.fourier(0) == 1.0

    @pytest.mark.parametrize("g", [
        UniformNoise(),
        WrappedNormalNoise(0.5),
        VonMisesNoise(2.0),
        TabulatedNoise(WrappedNormalNoise(0.3).tabulate(64).values),
    ])
    def test_even_real_bounded(self, g):
        k = np.arange(0, 17)
        ghat = np.asarray(g.fourier(k), dtype=float)
        assert ghat[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(ghat) <= 1.0 + 1e-10)
        assert_allclose(ghat, np.asarray(g.fourier(-k), dtype=float),
                        rtol=0, atol=1e-10)

    def test_wrapped_normal_requires_positive_variance(self):
        with pytest.raises(ValueError):
            WrappedNormalNoise(0.0)

    def test_von_mises_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            VonMisesNoise(-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_parameters_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WrappedNormalNoise(bad)
        with pytest.raises(ValueError, match="finite"):
            VonMisesNoise(bad)

    def test_tabulated_rejects_uneven_table(self):
        vals = WrappedNormalNoise(0.3).tabulate(64).values.copy()
        vals[5] *= 2.0
        vals /= vals.sum() * (TWO_PI / 64)
        with pytest.raises(ValueError):
            TabulatedNoise(vals)


class TestFourierGridRoundTrip:
    def test_reconstruction_matches_direct_sum(self):
        k = np.arange(-32, 33)
        fd = FourierDensity(np.exp(-k ** 2 / 10.0))
        d = density_from_coeffs(fd, 128)
        want = direct_fourier_sum(fd.coeffs, d.theta)
        assert_allclose(d.values, want, rtol=0, atol=1e-12)

    def test_reconstruction_even_unimodal(self):
        k = np.arange(-32, 33)
        d = density_from_coeffs(FourierDensity(np.exp(-k ** 2 / 10.0)), 128)
        v = d.values
        assert np.argmax(v) == 0
        assert_allclose(v[1:], v[:0:-1], rtol=0, atol=1e-12)  # even about 0
        half = v[: 65]
        assert np.all(np.diff(half) <= 1e-12)  # decreasing out to pi

    def test_round_trip(self):
        k = np.arange(-32, 33)
        fd = FourierDensity(1.0 / (1.0 + k.astype(float) ** 2))
        back = fourier_coeffs(density_from_coeffs(fd, 128), 32)
        assert_allclose(back.coeffs, fd.coeffs, rtol=0, atol=1e-12)

    def test_negative_reconstruction_raises(self):
        fd = FourierDensity(np.array([0.99, 1.0, 0.99]))
        with pytest.raises(ValueError):
            density_from_coeffs(fd, 64)

    def test_grid_too_small_for_modes(self):
        k = np.arange(-32, 33)
        fd = FourierDensity(np.exp(-k ** 2 / 10.0))
        with pytest.raises(ValueError):
            density_from_coeffs(fd, 64)

    def test_too_many_modes_for_grid(self):
        d = GridDensity(np.full(64, 1.0 / TWO_PI))
        with pytest.raises(ValueError):
            fourier_coeffs(d, 32)

    def test_coeffs_satisfy_density_invariants(self):
        rng = np.random.default_rng(11)
        d = GridDensity.from_unnormalized(rng.random(128) + 0.05)
        c = fourier_coeffs(d, 40)
        FourierDensity(c.coeffs)  # re-wrapping re-runs the invariant checks


class TestConvolution:
    # convolution on the circle is the coefficient-wise product of the
    # Fourier coefficients; these check fourier_coeffs and density_from_coeffs
    # against that theorem
    def test_matches_direct_cyclic_convolution(self):
        M = 256
        g = WrappedNormalNoise(0.2).tabulate(M)
        c = fourier_coeffs(g, 100)
        got = density_from_coeffs(FourierDensity(c.coeffs * c.coeffs), M).values
        want = direct_cyclic_convolution(g.values, g.values)
        assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_wrapped_normal_variances_add(self):
        c1 = fourier_coeffs(WrappedNormalNoise(0.2).tabulate(256), 16)
        k = np.arange(-16, 17)
        assert_allclose(c1.coeffs * c1.coeffs, np.exp(-0.5 * k ** 2 * 0.4), rtol=0, atol=1e-9)


class TestSampling:
    def test_uniform_first_mode_small(self):
        rng = np.random.default_rng(2026)
        n = 1_000_000
        x = UniformNoise().sample(rng, n)
        assert np.all((x >= 0.0) & (x < TWO_PI))
        assert abs(np.mean(np.exp(-1j * x))) < 4.0 / np.sqrt(n)

    def test_wrapped_normal_first_mode(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        x = WrappedNormalNoise(0.2).sample(rng, n)
        z = np.exp(-1j * x)
        se = np.sqrt((np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / n)
        assert abs(np.mean(z) - np.exp(-0.1)) < 4.0 * se

    @pytest.mark.parametrize("g", [
        UniformNoise(),
        WrappedNormalNoise(0.2),
        WrappedNormalNoise(1.0),
        VonMisesNoise(2.0),
        TabulatedNoise(WrappedNormalNoise(0.5).tabulate(64).values),
    ], ids=["uniform", "wn02", "wn10", "vm20", "tab"])
    def test_goodness_of_fit(self, g):
        rng = np.random.default_rng(42)
        x = g.sample(rng, 100_000)
        p = chi_square_pvalue(x, g.tabulate(64))
        assert p > 1e-3

    def test_tabulated_tracks_exact_sampler(self):
        # piecewise-constant carrier on M=256 vs the exact wrapped normal
        rng = np.random.default_rng(9)
        g = WrappedNormalNoise(0.5)
        x_exact = g.sample(rng, 100_000)
        x_tab = TabulatedNoise(g.tabulate(256).values).sample(rng, 100_000)
        d = stats.ks_2samp(x_exact, x_tab).statistic
        assert d < 0.005

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tabulated_sampler_modes_carry_sinc(self, k):
        # the sampler draws the piecewise-constant carrier, whose modes are
        # the grid coefficients damped by sinc(k/M); at M=8 the damping is
        # many SEs away from fourier(k) alone
        g = TabulatedNoise(WrappedNormalNoise(0.5).tabulate(8).values)
        rng = np.random.default_rng(30 + k)
        n = 400_000
        c = np.cos(k * g.sample(rng, n))
        se = np.std(c, ddof=1) / np.sqrt(n)
        want = g.fourier(k) * np.sinc(k / g.M)
        assert abs(c.mean() - want) < 4.0 * se
        assert abs(g.fourier(k) - want) > 8.0 * se

    def test_sample_grid_density_gof(self):
        rng = np.random.default_rng(12)
        d = GridDensity.from_unnormalized(rng.random(64) + 0.2)
        x = sample_grid_density(d, rng, 100_000)
        assert chi_square_pvalue(x, d) > 1e-3

    def test_point_mass_tabulated(self):
        vals = np.zeros(64)
        vals[0] = 64 / TWO_PI
        g = TabulatedNoise(vals)
        assert_allclose(np.abs(g.fourier(np.arange(0, 9))), 1.0, atol=1e-12)
        rng = np.random.default_rng(1)
        x = g.sample(rng, 100)
        w = TWO_PI / 64
        assert np.all((x < w / 2) | (x > TWO_PI - w / 2))  # cell 0 straddles 0


class FixedUniforms:
    """Stands in for a Generator whose ``random(size)`` returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u.reshape(size)


def searchsorted_cells(values, u):
    """Inverse-CDF cells and angles by binary search, written out for reference."""
    M = values.size
    cum = np.cumsum(values * (TWO_PI / M))
    cum[np.flatnonzero(values)[-1]:] = 1.0
    idx = np.searchsorted(cum, u, side="right")
    lo = np.concatenate(([0.0], cum))[idx]
    frac = (u - lo) / (values[idx] * (TWO_PI / M))
    return idx, (idx - 0.5 + frac) * (TWO_PI / M) % TWO_PI


def edge_uniforms(cum):
    """0, every cumulative mass below 1, its neighbours, every slot edge j/G, 1-."""
    G = GUIDE_SLOTS_PER_CELL * cum.size
    inner = cum[cum < 1.0]
    u = np.concatenate(([0.0], inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        np.arange(G) / G, np.nextafter(np.arange(1, G) / G, 0.0),
                        [np.nextafter(1.0, 0.0)]))
    return u[u < 1.0]


def assert_matches_searchsorted(d, u):
    """The guide table's cells and the sampler's angles equal binary search's."""
    want_idx, want_theta = searchsorted_cells(d.values, u)
    assert np.array_equal(d._cells(u)[0], want_idx)
    theta = d.sample(FixedUniforms(u), u.shape)
    assert theta.tobytes() == want_theta.tobytes()


def wrapped_normal_table(sigma2, M):
    return TabulatedNoise(WrappedNormalNoise(sigma2).tabulate(M).values)


class TestGuideTable:
    @pytest.mark.parametrize("noise", [
        wrapped_normal_table(0.5, 64),
        wrapped_normal_table(0.01, 512),
        TabulatedNoise(np.r_[64 / TWO_PI, np.zeros(63)]),
        TabulatedNoise(np.bincount([1, 63, 5, 5, 59, 59, 20, 44], minlength=64).astype(float)),
        TabulatedNoise(np.ones(2)),
    ], ids=["wn05-64", "wn001-512", "point-mass", "zero-mass-cells", "M2"])
    def test_edges_match_searchsorted(self, noise):
        cum, _ = noise._sampling_table
        assert_matches_searchsorted(noise, edge_uniforms(cum))

    def test_peaked_noise_steps_across_shared_slots(self):
        # wrapped normal 0.01 on 512 cells: the tail cells are so light that
        # dozens share one slot, so many lookups take several steps
        noise = wrapped_normal_table(0.01, 512)
        _, start = noise._sampling_table
        u = np.random.default_rng(4).random(200_000)
        want, _ = searchsorted_cells(noise.values, u)
        steps = want - start[(u * start.size).astype(np.intp)]
        assert steps.min() >= 0 and steps.max() >= 10
        assert_matches_searchsorted(noise, u)
        x = noise.sample(np.random.default_rng(4), 200_000)
        assert x.tobytes() == searchsorted_cells(noise.values, u)[1].tobytes()

    def test_floor_shape_matches_searchsorted(self):
        d = GridDensity.from_unnormalized(np.exp(np.cos(np.arange(512) * (TWO_PI / 512))))
        u = np.random.default_rng(23).random((400, 1, 800))
        assert_matches_searchsorted(d, u)
        x = sample_grid_density(d, np.random.default_rng(23), (400, 1, 800))
        assert x.shape == (400, 1, 800)
        assert x.tobytes() == searchsorted_cells(d.values, u)[1].tobytes()
        # the density keeps the table its first draw built
        table = d._sampling_table
        sample_grid_density(d, np.random.default_rng(1), 5)
        assert d._sampling_table is table

    def test_point_mass_draws_stay_in_cell_zero(self):
        noise = TabulatedNoise(np.r_[64 / TWO_PI, np.zeros(63)])
        u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        x = noise.sample(FixedUniforms(u), 5)
        w = TWO_PI / 64
        assert np.all((x < w / 2) | (x >= TWO_PI - w / 2))
        assert np.all((x >= 0.0) & (x < TWO_PI))

    def test_empty_last_cell_is_never_drawn(self):
        # the first 63 cumulative masses sum to 0.9999999999999982, so with
        # only the last entry of cum set to 1 these uniforms chose the empty
        # cell 63 and divided by its zero width
        d = GridDensity.from_unnormalized(np.r_[np.ones(63), 0.0])
        cum = np.cumsum(d.values * (TWO_PI / 64))
        u = np.array([cum[-2], np.nextafter(1.0, 0.0)])
        assert u[0] < 1.0
        x = sample_grid_density(d, FixedUniforms(u), 2)
        # both sit at the top of cell 62, the last cell with mass
        assert_allclose(x, 62.5 * (TWO_PI / 64), rtol=0, atol=1e-12)


def carrier_cell_masses(noise, M):
    """Mass of the noise's piecewise-constant carrier in each cell of the
    M-point grid, summed as overlap lengths cell by cell over three periods."""
    h, H = TWO_PI / noise.M, TWO_PI / M
    out = np.zeros(M)
    for j in range(M):
        a, b = (j - 0.5) * H, (j + 0.5) * H
        for m in range(-noise.M, 2 * noise.M):
            lo, hi = (m - 0.5) * h, (m + 0.5) * h
            out[j] += noise.values[m % noise.M] * max(0.0, min(b, hi) - max(a, lo))
    return out


class TestTabulatedNoise:
    def test_is_a_grid_density_with_nothing_of_its_own(self):
        assert issubclass(TabulatedNoise, GridDensity)
        assert issubclass(TabulatedNoise, circle.NoiseSpec)
        for name in ("_cum", "_start", "density", "M", "_sampling_table", "_cells", "sample"):
            assert name not in vars(TabulatedNoise)

    def test_table_is_built_on_the_first_draw_and_reused(self):
        noise = wrapped_normal_table(0.5, 64)
        assert "_sampling_table" not in vars(noise)
        noise.sample(np.random.default_rng(0), 10)
        table = vars(noise)["_sampling_table"]
        noise.sample(np.random.default_rng(1), 10)
        assert noise._sampling_table is table

    def test_sample_equals_sample_grid_density(self):
        noise = wrapped_normal_table(0.3, 64)
        x = noise.sample(np.random.default_rng(5), (3, 1000))
        y = sample_grid_density(noise, np.random.default_rng(5), (3, 1000))
        assert x.tobytes() == y.tobytes()

    def test_sample_does_not_go_through_sample_grid_density(self, monkeypatch):
        # per-block noise draws must not appear as sample_grid_density calls
        def refuse(*args, **kwargs):
            raise AssertionError("TabulatedNoise.sample called sample_grid_density")

        monkeypatch.setattr(circle, "sample_grid_density", refuse)
        x = wrapped_normal_table(0.5, 16).sample(np.random.default_rng(2), 100)
        assert x.shape == (100,)

    @pytest.mark.parametrize("noise, M", [
        (wrapped_normal_table(0.3, 16), 64),
        (wrapped_normal_table(0.3, 64), 16),
        (wrapped_normal_table(0.3, 16), 256),
        (wrapped_normal_table(0.3, 64), 2),
        (TabulatedNoise(np.r_[4 / TWO_PI, np.zeros(3)]), 16),
    ], ids=["16-64", "64-16", "16-256", "64-2", "point-mass-4-16"])
    def test_other_grid_takes_exact_cell_masses(self, noise, M):
        d = noise.tabulate(M)
        assert d.M == M
        assert_allclose(d.masses, carrier_cell_masses(noise, M), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("M", [4, 64, 256, 1024])
    def test_other_grid_is_even_and_centred(self, M):
        d = wrapped_normal_table(0.3, 16).tabulate(M)
        p = d.masses
        assert np.max(np.abs(p - p[(-np.arange(M)) % M])) < 1e-15
        assert abs(np.angle(np.sum(p * np.exp(1j * d.theta)))) < 1e-15
