"""Stationary pair correlations of the leader model at finite N.

In the stationary state the one-particle law is uniform, and the law of a
pair difference v_1 - v_2 has Fourier coefficients

    Fhat_N(k) = ghat(k) / ((N - 1) * (1 - r * ghat(k))),   r = (N - 2)/(N - 1),

equivalently the geometric noise-convolution series
Fhat_N(k) = (1/(N - 2)) * sum_{l >= 1} r^l ghat(k)^l. Under the scaling
gamma(k) = lim_N (N - 2) * (ghat_N(k) - 1) the profile converges to
Fhat(k) = 1 / (1 - gamma(k)); for the heat-kernel family ghat_N(k) =
exp(-k^2/N) this is the Lorentzian 1 / (1 + k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .circle import NoiseSpec, WrappedNormalNoise

__all__ = [
    "CorrelationProfile",
    "pair_correlation_closed",
    "pair_correlation_series",
    "gamma_from_noise",
    "limit_profile",
    "heat_kernel_family",
]

SERIES_BLOCK = 2 ** 12  # entries in a block of the series' terms, rows of its live modes


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """Real even pair-correlation coefficients Fhat(k), stored for k = 0..K.

    Exact profiles have Fhat(0) = 1; a truncated series may fall short of
    that by its tail bound.
    """

    fhat: np.ndarray

    def __post_init__(self):
        v = np.array(self.fhat, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("profile needs coefficients for at least k = 0, 1")
        object.__setattr__(self, "fhat", v)

    @property
    def K(self) -> int:
        return self.fhat.size - 1

    def coeff(self, k):
        """Fhat(k) for |k| <= K; the profile is even in k."""
        k = np.abs(np.asarray(k))
        if np.any(k > self.K):
            raise ValueError(f"mode index out of range |k| <= {self.K}")
        out = self.fhat[k]
        return float(out) if out.ndim == 0 else out


def pair_correlation_closed(g: NoiseSpec, n_particles: int, K: int) -> CorrelationProfile:
    """Closed-form stationary pair correlation for N >= 2 particles."""
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
    if K < 1:
        raise ValueError("K must be >= 1")
    ghat = np.asarray(g.fourier(np.arange(K + 1)), dtype=float)
    r = (n_particles - 2.0) / (n_particles - 1.0)
    fhat = ghat / ((n_particles - 1.0) * (1.0 - r * ghat))
    return CorrelationProfile(fhat=fhat)


def series_terms_for(n_particles: int, tol: float) -> int:
    """Smallest L with series tail bound ((N-1)/(N-2)) r^{L+1} <= tol."""
    if n_particles < 3:
        raise ValueError("n_particles must be >= 3")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    r = (n_particles - 2.0) / (n_particles - 1.0)
    L = int(math.ceil(math.log(tol * (n_particles - 2.0) / (n_particles - 1.0)) / math.log(r))) - 1
    L = max(L, 1)
    while ((n_particles - 1.0) / (n_particles - 2.0)) * r ** (L + 1) > tol:
        L += 1
    return L


def pair_correlation_series(g: NoiseSpec, n_particles: int, K: int,
                            L: Optional[int] = None,
                            tol: Optional[float] = None) -> Tuple[CorrelationProfile, float]:
    """Partial geometric series for the pair correlation, with its tail bound.

    Exactly one of L (number of terms) and tol (target tail bound) must be
    given. Returns the partial-sum profile and the computable tail bound
    ((N-1)/(N-2)) * r^{L+1}, which dominates the truncation error uniformly
    in k because |ghat| <= 1.
    """
    if n_particles < 3:
        raise ValueError("n_particles must be >= 3 for the series form")
    if (L is None) == (tol is None):
        raise ValueError("give exactly one of L and tol")
    if L is None:
        L = series_terms_for(n_particles, tol)
    if L < 1:
        raise ValueError("L must be >= 1")
    ghat = np.asarray(g.fourier(np.arange(K + 1)), dtype=float)
    r = (n_particles - 2.0) / (n_particles - 1.0)
    base = r * ghat
    # the loop term_l = term_{l-1} * base, acc_l = acc_{l-1} + term_l for l = 1..L,
    # from the identities term_0 = 1 and acc_0 = -0.0, as running products and then
    # running sums down blocks of rows, each block started from the rows the one
    # before ended on. Once a mode's term is 0, adding the zeros that follow keeps
    # its sum bit for bit unless the sum is -0.0, so the mode leaves the blocks.
    term, acc, live, done = np.ones_like(base), np.full_like(base, -0.0), np.arange(base.size), 0
    while done < L and live.size:
        rows = min(L - done, max(1, SERIES_BLOCK // live.size))
        block = np.empty((rows + 1, live.size))
        block[0], block[1:] = term[live], base[live]
        term[live] = np.multiply.accumulate(block, axis=0, out=block)[-1]
        block[0] = acc[live]
        acc[live] = np.add.accumulate(block, axis=0, out=block)[-1]
        live = live[(term[live] != 0.0) | ((acc[live] == 0.0) & np.signbit(acc[live]))]
        done += rows
    bound = ((n_particles - 1.0) / (n_particles - 2.0)) * r ** (L + 1)
    return CorrelationProfile(fhat=acc / (n_particles - 2.0)), bound


def gamma_from_noise(g: NoiseSpec, n_particles: int, K: int) -> np.ndarray:
    """Scaled coefficient defect gamma_N(k) = (N - 2) * (ghat_N(k) - 1), k = 0..K,
    of the noise g used at N particles."""
    if n_particles < 3:
        raise ValueError("n_particles must be >= 3")
    ghat = np.asarray(g.fourier(np.arange(K + 1)), dtype=float)
    return (n_particles - 2.0) * (ghat - 1.0)


def limit_profile(gamma: np.ndarray) -> CorrelationProfile:
    """Limiting profile Fhat(k) = 1 / (1 - gamma(k)) for gamma <= 0."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma > 0.0):
        raise ValueError("gamma must be nonpositive")
    return CorrelationProfile(fhat=1.0 / (1.0 - gamma))


def heat_kernel_family(n_particles: int) -> NoiseSpec:
    """Noise family ghat_N(k) = exp(-k^2/N) whose limit profile is Lorentzian.

    Its member is the heat kernel at time 1/N, a wrapped normal with variance
    parameter 2/N; n_particles < 1 raises ``ValueError``.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    return WrappedNormalNoise(sigma2=2.0 / n_particles)
