"""Tests for the stationary pair-correlation formulas of the leader model."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairjump.circle import (
    TWO_PI,
    TabulatedNoise,
    UniformNoise,
    WrappedNormalNoise,
    fourier_coeffs,
)
from pairjump.invariant import (
    CorrelationProfile,
    gamma_from_noise,
    heat_kernel_family,
    limit_profile,
    pair_correlation_closed,
    pair_correlation_series,
    series_terms_for,
)


def grid_series_profile(g, n_particles, K, L, M=512):
    """Weighted sum of convolution powers of g built directly on a grid.

    Convolution powers are accumulated by dense cyclic convolution of cell
    masses and the coefficients are read off by a direct Fourier sum, so no
    step shares code with the spectral geometric sum under test.
    """
    r = (n_particles - 2.0) / (n_particles - 1.0)
    base = g.tabulate(M).masses
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    conv = base[idx]  # conv @ p is the cyclic convolution of p with base
    power = base.copy()
    acc = r * power
    weight = r
    for _ in range(L - 1):
        power = conv @ power
        weight *= r
        acc = acc + weight * power
    acc /= n_particles - 2.0
    theta = np.arange(M) * (TWO_PI / M)
    return (np.exp(-1j * np.outer(np.arange(K + 1), theta)) @ acc).real


def tail_bound(n_particles, L):
    r = (n_particles - 2.0) / (n_particles - 1.0)
    return (n_particles - 1.0) / (n_particles - 2.0) * r ** (L + 1)


def point_noise(M=8):
    """Noise concentrated in one cell: ghat(k) = 1 for every k."""
    values = np.zeros(M)
    values[0] = 1.0
    return TabulatedNoise(values)


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 10, 500])
    def test_normalization_forced(self, n):
        prof = pair_correlation_closed(WrappedNormalNoise(0.4), n, 16)
        assert prof.coeff(0) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_noise_kills_correlation(self):
        prof = pair_correlation_closed(UniformNoise(), 7, 12)
        assert prof.coeff(0) == pytest.approx(1.0, abs=1e-15)
        assert np.all(prof.fhat[1:] == 0.0)

    def test_three_particles_wrapped_normal(self):
        # ghat(1) = e^{-0.25}; at N=3 the closed form gives
        # (1/2) ghat / (1 - (1/2) ghat).
        gh = math.exp(-0.25)
        prof = pair_correlation_closed(WrappedNormalNoise(0.5), 3, 4)
        assert prof.coeff(1) == pytest.approx(0.5 * gh / (1 - 0.5 * gh), rel=1e-14)

    def test_two_particles_profile_is_noise(self):
        # at N=2 the geometric factor drops out and the pair difference has
        # exactly the law of the noise, matching the one-step stationarity of
        # the two-particle transition operator
        g = WrappedNormalNoise(0.3)
        prof = pair_correlation_closed(g, 2, 10)
        assert_allclose(prof.fhat, g.fourier(np.arange(11)), rtol=0, atol=1e-15)

    def test_bounds_when_ghat_in_unit_interval(self):
        for g in (WrappedNormalNoise(0.1), WrappedNormalNoise(2.0), UniformNoise()):
            prof = pair_correlation_closed(g, 9, 32)
            assert np.all(prof.fhat >= 0.0)
            assert np.all(prof.fhat <= 1.0 + 1e-15)

    def test_monotone_in_ghat(self):
        # narrower noise (pointwise larger ghat) gives pointwise larger Fhat
        lo = pair_correlation_closed(WrappedNormalNoise(0.6), 9, 32)
        hi = pair_correlation_closed(WrappedNormalNoise(0.3), 9, 32)
        assert np.all(hi.fhat >= lo.fhat)

    def test_correlations_wash_out_for_fixed_noise(self):
        g = WrappedNormalNoise(0.2)
        gh = g.fourier(1)
        vals = [pair_correlation_closed(g, n, 4).coeff(1) for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # N * Fhat_N(1) converges to ghat/(1 - ghat) from below
        assert vals[-1] * 10_000 == pytest.approx(gh / (1 - gh), rel=2e-3)
        assert vals[-1] * 10_000 <= gh / (1 - gh) + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_particles"):
            pair_correlation_closed(UniformNoise(), 1, 8)
        with pytest.raises(ValueError, match="K"):
            pair_correlation_closed(UniformNoise(), 3, 0)


class TestSeries:
    @pytest.mark.parametrize("n", [3, 10, 100])
    @pytest.mark.parametrize("var", [0.1, 1.0])
    def test_matches_closed_form(self, n, var):
        g = WrappedNormalNoise(var)
        prof, bound = pair_correlation_series(g, n, 64, tol=1e-10)
        assert bound <= 1e-10
        closed = pair_correlation_closed(g, n, 64)
        assert_allclose(prof.fhat, closed.fhat, rtol=0, atol=1e-10)

    def test_truncation_error_bounded_by_tail(self):
        g = WrappedNormalNoise(0.5)
        closed = pair_correlation_closed(g, 10, 32)
        for L in (1, 3, 10):
            prof, bound = pair_correlation_series(g, 10, 32, L=L)
            assert bound == pytest.approx(tail_bound(10, L), rel=1e-14)
            assert np.max(np.abs(prof.fhat - closed.fhat)) <= bound * (1 + 1e-12)

    def test_point_noise_saturates_bound(self):
        # ghat = 1 makes every mode equal the weight sum: the partial sum
        # falls short of the full-series value 1 by exactly the tail bound
        prof, bound = pair_correlation_series(point_noise(), 5, 6, L=7)
        assert_allclose(1.0 - prof.fhat, bound, rtol=1e-12)

    def test_n3_geometric_identity(self):
        g = WrappedNormalNoise(0.3)
        prof, _ = pair_correlation_series(g, 3, 16, tol=1e-13)
        gh = g.fourier(np.arange(17))
        assert_allclose(prof.fhat, (gh / 2) / (1 - gh / 2), rtol=0, atol=1e-12)

    def test_grid_convolution_oracle(self):
        g = WrappedNormalNoise(0.2)
        prof, _ = pair_correlation_series(g, 3, 64, L=34)
        assert_allclose(prof.fhat, grid_series_profile(g, 3, 64, 34), rtol=0, atol=1e-10)

    def test_rejects_n2_and_bad_truncation(self):
        with pytest.raises(ValueError, match="series"):
            pair_correlation_series(UniformNoise(), 2, 8, L=5)
        with pytest.raises(ValueError, match="exactly one"):
            pair_correlation_series(UniformNoise(), 3, 8)
        with pytest.raises(ValueError, match="exactly one"):
            pair_correlation_series(UniformNoise(), 3, 8, L=5, tol=1e-8)
        with pytest.raises(ValueError, match="L"):
            pair_correlation_series(UniformNoise(), 3, 8, L=0)

    @pytest.mark.parametrize("n", [3, 10, 100])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_terms_for_is_minimal(self, n, tol):
        L = series_terms_for(n, tol)
        assert tail_bound(n, L) <= tol
        if L > 1:
            assert tail_bound(n, L - 1) > tol

    def test_terms_for_rejects_bad_input(self):
        with pytest.raises(ValueError):
            series_terms_for(2, 1e-8)
        with pytest.raises(ValueError):
            series_terms_for(5, 0.0)


class TestGamma:
    def test_k0_is_zero(self):
        out = gamma_from_noise(heat_kernel_family(50), 50, 8)
        assert out[0] == 0.0

    def test_heat_kernel_second_order(self):
        # gamma_N(k) + k^2 = (2k^2 + k^4/2)/N + O(1/N^2) for the heat-kernel
        # family; at N=1e4, k=1 the defect is 2.5e-4
        n = 10_000
        out = gamma_from_noise(heat_kernel_family(n), n, 3)
        k = np.arange(4)
        assert_allclose(out + k**2, (2 * k**2 + k**4 / 2) / n, rtol=2e-3, atol=1e-12)

    def test_heat_kernel_converges_like_one_over_n(self):
        k = np.arange(1, 4)
        d3 = gamma_from_noise(heat_kernel_family(10**3), 10**3, 3)[1:] + k**2
        d4 = gamma_from_noise(heat_kernel_family(10**4), 10**4, 3)[1:] + k**2
        assert np.all((d3 / d4 > 9.5) & (d3 / d4 < 10.5))

    def test_fixed_noise_diverges_linearly(self):
        g = WrappedNormalNoise(0.2)
        gh = g.fourier(1)
        out = gamma_from_noise(g, 10**6, 2)
        assert out[1] < 0
        assert out[1] / 10**6 == pytest.approx(gh - 1.0, rel=1e-5)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gamma_from_noise(heat_kernel_family(2), 2, 4)


class TestHeatKernelFamily:
    def test_member_is_the_heat_kernel_at_time_one_over_n(self):
        # the member at N = 20 is the heat kernel at time t = 1/20
        g = heat_kernel_family(20)
        c = fourier_coeffs(g.tabulate(512), 16)
        k = np.arange(-16, 17)
        assert_allclose(c.coeffs, np.exp(-k ** 2 / 20), rtol=0, atol=1e-9)

    def test_refuses_fewer_than_one_particle(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_particles"):
                heat_kernel_family(n)


class TestLimitProfile:
    def test_lorentzian(self):
        k = np.arange(9)
        prof = limit_profile(-k.astype(float) ** 2)
        assert_allclose(prof.fhat, 1.0 / (1.0 + k**2), rtol=1e-15)

    def test_zero_gamma_full_correlation(self):
        prof = limit_profile(np.zeros(5))
        assert np.all(prof.fhat == 1.0)

    def test_rejects_positive_gamma(self):
        with pytest.raises(ValueError, match="nonpositive"):
            limit_profile(np.array([0.0, -1.0, 0.5]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_finite_n_error_decays_like_one_over_n(self, k):
        # Richardson-style ratio: closed-form profile for the heat-kernel
        # family approaches the Lorentzian with error ~ c/N
        lim = 1.0 / (1.0 + k * k)
        errs = [
            abs(pair_correlation_closed(heat_kernel_family(n), n, 4).coeff(k) - lim)
            for n in (10**3, 10**4)
        ]
        assert 8.0 <= errs[0] / errs[1] <= 12.0


class TestCorrelationProfile:
    def test_coeff_is_even_with_range_check(self):
        prof = pair_correlation_closed(WrappedNormalNoise(0.4), 6, 8)
        assert prof.K == 8
        assert prof.coeff(-3) == prof.coeff(3)
        assert_allclose(prof.coeff(np.array([-2, 2])), [prof.coeff(2)] * 2)
        with pytest.raises(ValueError, match="out of range"):
            prof.coeff(9)

    def test_one_term_series_is_half_normalized(self):
        # a 1-term series is far from normalized: Fhat(0) = r/(N-2) = 1/2
        prof, _ = pair_correlation_series(point_noise(), 3, 4, L=1)
        assert prof.coeff(0) == pytest.approx(0.5, rel=1e-14)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            CorrelationProfile(np.array([1.0]))
