"""Angles, noise distributions, and density representations on the circle.

Conventions used throughout the package:

* angles live in [0, 2*pi), wrapped modulo 2*pi;
* the grid of size M is theta_m = 2*pi*m/M with quadrature weight 2*pi/M;
* Fourier coefficients follow fhat(k) = integral exp(-i*k*theta) f(theta) dtheta,
  so fhat(0) = 1 for a probability density and convolution is a plain
  coefficient-wise product;
* noise densities are even, which makes every ghat(k) real and even in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TWO_PI",
    "wrap_angle",
    "NoiseSpec",
    "UniformNoise",
    "WrappedNormalNoise",
    "VonMisesNoise",
    "TabulatedNoise",
    "GridDensity",
    "FourierDensity",
    "sample_grid_density",
    "fourier_coeffs",
    "density_from_coeffs",
]

TWO_PI = 2.0 * np.pi
GUIDE_SLOTS_PER_CELL = 16


def wrap_angle(theta):
    """Wrap angles into [0, 2*pi): ``np.mod(theta, 2*pi)``, bit for bit.

    Works on scalars and arrays; a scalar stays a scalar. A float64 array
    whose entries all lie in [-2*pi, 2*pi) takes a cheaper route: there
    fmod(theta, 2*pi) is theta itself, so numpy's remainder is 0.0 + theta
    (which makes -0.0 into +0.0) where theta >= 0 and 2*pi + theta where
    theta < 0 (a sum that rounds to 2*pi itself for theta such as -1e-17).
    Any other input, |theta| >= 2*pi, NaN or inf among them, goes through
    ``np.mod``.
    """
    if (isinstance(theta, np.ndarray) and theta.ndim and theta.size
            and theta.dtype == np.float64
            and -TWO_PI <= theta.min() and theta.max() < TWO_PI):
        out = (theta < 0.0) * TWO_PI
        out += theta
        return out
    return np.mod(theta, TWO_PI)


# ---------------------------------------------------------------------------
# grid and coefficient representations


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Probability density sampled at the M grid points theta_m = 2*pi*m/M.

    Values are density values (not masses); the midpoint rule
    (2*pi/M) * sum(values) must equal 1 within 1e-12 and all values must be
    nonnegative. M must be a power of two: the sampler's guide table then
    has exact slot arithmetic (u * G and j / G for G = 16 M slots), and the
    i.i.d. chaos floor's quarter-turn phasor table needs M divisible by 4.
    ``TabulatedNoise`` is the even grid density used as jump noise.

    ``sample`` draws from the piecewise-constant carrier, the density that
    is constant on each cell [theta_m - pi/M, theta_m + pi/M): cells come
    from the inverse CDF of the cell masses through a guide table (Chen and
    Asau 1974) built on the first draw and kept, uniform within each cell.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid density needs a 1-d array of at least 2 values")
        if v.size & (v.size - 1):
            raise ValueError(f"grid size M={v.size} must be a power of two")
        if not np.isfinite(v).all():
            raise ValueError("grid density has non-finite values")
        if v.min() < 0.0:
            raise ValueError(f"grid density has negative values (min {v.min():.3e})")
        mass = v.sum() * (TWO_PI / v.size)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"grid density mass {mass!r} is not 1 within 1e-12")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_unnormalized(cls, values) -> "GridDensity":
        v = np.array(values, dtype=float)
        mass = v.sum() * (TWO_PI / v.size)
        if not 0.0 < mass < np.inf:
            raise ValueError("cannot normalize a density with nonpositive or non-finite mass")
        return cls(v / mass)

    @property
    def M(self) -> int:
        return self.values.size

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.M) * (TWO_PI / self.M)

    @property
    def masses(self) -> np.ndarray:
        """Cell masses values * (2*pi/M); they sum to 1."""
        return self.values * (TWO_PI / self.M)

    @cached_property
    def _sampling_table(self):
        """Cumulative cell masses cum, their guide table start of G = 16 M
        slots, lo = (0, cum) and the cell masses.

        start[j] is the first cell whose cumulative mass exceeds j/G, i.e.
        searchsorted(cum, j/G, "right"). Built on the first draw and kept, so
        repeated draws share it.
        """
        masses = self.masses
        lo = np.concatenate(([0.0], np.cumsum(masses)))  # lo[k]: mass below cell k
        cum = lo[1:]
        cum[np.flatnonzero(self.values)[-1]:] = 1.0  # no u < 1 picks a trailing empty cell
        G = GUIDE_SLOTS_PER_CELL * self.M
        return cum, np.searchsorted(cum, np.arange(G) / G, side="right"), lo, masses

    def _cells(self, u: np.ndarray):
        """Cells and in-cell fractions of uniforms u under the inverse CDF of the cell masses.

        Slot j = floor(u*G) gives start[j], then each index steps forward
        while cum[idx] <= u. M and G are powers of two, so u*G and j/G are
        exact and start[j] never lies past the answer: for u in [0, 1) the
        cells equal ``searchsorted(cum, u, "right")`` index for index. Most u
        need no step at all. A draw's angle is (cell - 1/2 + fraction) 2 pi / M.
        """
        cum, start, lo, masses = self._sampling_table
        flat = u.reshape(-1)
        idx = start[(flat * start.size).astype(np.intp)]
        late = np.flatnonzero(cum[idx] <= flat)
        while late.size:
            idx[late] += 1
            late = late[cum[idx[late]] <= flat[late]]
        idx = idx.reshape(u.shape)
        return idx, (u - lo[idx]) / masses[idx]

    def sample(self, rng: np.random.Generator, size):
        """Angles from the carrier, from one ``rng.random(size)``.

        The cells come from ``_cells``, so the angles are those of a binary
        search, bit for bit.
        """
        idx, frac = self._cells(rng.random(size))
        return wrap_angle((idx - 0.5 + frac) * (TWO_PI / self.M))


@dataclass(frozen=True, eq=False)
class FourierDensity:
    """Fourier coefficients fhat(k) of a probability density for k = -K..K.

    coeffs[K + k] stores fhat(k). Invariants checked at construction:
    fhat(0) = 1 within 1e-12, hermitian symmetry fhat(-k) = conj(fhat(k))
    within 1e-10, and |fhat(k)| <= 1 + 1e-10.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 3 or c.size % 2 == 0:
            raise ValueError("coefficient array must have odd length 2K+1 >= 3")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        K = (c.size - 1) // 2
        if abs(c[K] - 1.0) > 1e-12:
            raise ValueError(f"fhat(0) = {c[K]!r} must be 1 within 1e-12")
        herm = np.max(np.abs(c - np.conj(c[::-1])))
        if herm > 1e-10:
            raise ValueError(f"coefficients break hermitian symmetry by {herm:.3e}")
        excess = np.max(np.abs(c)) - 1.0
        if excess > 1e-10:
            raise ValueError(f"|fhat(k)| exceeds 1 by {excess:.3e}")
        object.__setattr__(self, "coeffs", c)

    @property
    def K(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def kvals(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def coeff(self, k):
        """fhat(k) for integer k (scalar or array), |k| <= K."""
        k = np.asarray(k)
        if np.any(np.abs(k) > self.K):
            raise ValueError(f"mode index out of range |k| <= {self.K}")
        out = self.coeffs[self.K + k]
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# noise specifications


class NoiseSpec:
    """Even probability density on the circle used as jump noise.

    The closed-form specs provide coefficients ``fourier``, pointwise
    ``density`` values, exact sampling, and a midpoint-rule ``tabulate``.
    ``TabulatedNoise`` is a grid density instead: it has no ``density``, and
    its ``tabulate`` takes exact cell masses.
    """

    def fourier(self, k):
        raise NotImplementedError

    def density(self, theta):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size):
        raise NotImplementedError

    def tabulate(self, M: int) -> GridDensity:
        theta = np.arange(M) * (TWO_PI / M)
        return GridDensity.from_unnormalized(self.density(theta))


@dataclass(frozen=True)
class UniformNoise(NoiseSpec):
    """Uniform density 1/(2*pi); ghat(k) = 1 if k = 0 else 0."""

    def fourier(self, k):
        k = np.asarray(k)
        out = np.where(k == 0, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def density(self, theta):
        return np.full_like(np.asarray(theta, dtype=float), 1.0 / TWO_PI)

    def sample(self, rng, size):
        return rng.random(size) * TWO_PI


@dataclass(frozen=True)
class WrappedNormalNoise(NoiseSpec):
    """Centered wrapped normal with variance parameter sigma2.

    ghat(k) = exp(-k^2 sigma2 / 2). The density image sum is truncated at
    |j| <= ceil(6 sigma / (2 pi)) + 2, which keeps the truncation error below
    1e-12 for sigma2 <= 10.
    """

    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")

    def fourier(self, k):
        k = np.asarray(k, dtype=float)
        out = np.exp(-0.5 * k * k * self.sigma2)
        return float(out) if out.ndim == 0 else out

    def density(self, theta):
        sigma = np.sqrt(self.sigma2)
        nimg = int(np.ceil(6.0 * sigma / TWO_PI)) + 2
        theta = np.mod(np.asarray(theta, dtype=float) + np.pi, TWO_PI) - np.pi
        shifts = TWO_PI * np.arange(-nimg, nimg + 1)
        x = theta[..., None] + shifts
        dens = np.exp(-0.5 * x * x / self.sigma2).sum(axis=-1)
        return dens / np.sqrt(TWO_PI * self.sigma2)

    def sample(self, rng, size):
        return wrap_angle(rng.normal(0.0, np.sqrt(self.sigma2), size))


@dataclass(frozen=True)
class VonMisesNoise(NoiseSpec):
    """Centered von Mises with concentration kappa; ghat(k) = I_k(kappa)/I_0(kappa)."""

    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("kappa must be nonnegative and finite")

    def fourier(self, k):
        from scipy.special import ive  # here, not at module level: only von Mises needs scipy

        out = ive(np.abs(np.asarray(k)), self.kappa) / ive(0, self.kappa)
        return float(out) if out.ndim == 0 else out

    def density(self, theta):
        from scipy.special import ive

        theta = np.asarray(theta, dtype=float)
        # exp(kappa cos t)/(2 pi I0(kappa)), written with ive for large kappa
        return np.exp(self.kappa * (np.cos(theta) - 1.0)) / (TWO_PI * ive(0, self.kappa))

    def sample(self, rng, size):
        return wrap_angle(rng.vonmises(0.0, self.kappa, size))


@dataclass(frozen=True, eq=False)
class TabulatedNoise(GridDensity, NoiseSpec):
    """Even grid density used as jump noise (piecewise constant).

    Values are normalized on construction; ``M``, ``masses`` and ``sample``
    are the ``GridDensity`` ones. The carrier's cell masses equal the grid
    masses, and ``tabulate`` on another grid returns the carrier's exact
    cell masses there. ``fourier`` returns the grid (DFT) coefficients,
    consistent with ``fourier_coeffs``; the exact oracle and the closed forms
    use them.

    ``sample`` draws from the carrier, whose coefficients are not the grid
    ones: E[exp(-i k X)] = fourier(k) * sinc(k / M), with
    sinc(x) = sin(pi x) / (pi x). A particle run with this noise therefore
    sees slightly weaker high modes than ``fourier`` reports.
    """

    def __post_init__(self):
        v = GridDensity.from_unnormalized(self.values).values
        even_defect = np.max(np.abs(v - v[(-np.arange(v.size)) % v.size]))
        if even_defect > 1e-9:
            raise ValueError(f"tabulated noise must be even; defect {even_defect:.3e}")
        object.__setattr__(self, "values", v)

    def fourier(self, k):
        k = np.asarray(k)
        X = np.fft.fft(self.values) * (TWO_PI / self.M)
        out = X[np.mod(k, self.M)].real
        return float(out) if out.ndim == 0 else out

    def tabulate(self, M: int) -> GridDensity:
        if M == self.M:
            return GridDensity(self.values)
        # the carrier's CDF is linear between the cell edges; extended by one
        # period on each side, it is differenced at the edges of the new cells
        n = self.M
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        cdf = np.concatenate((cum[:-1] - cum[-1], cum[:-1], cum + cum[-1]))
        edges = (np.arange(-n, 2 * n + 1) - 0.5) * (TWO_PI / n)
        new_edges = (np.arange(M + 1) - 0.5) * (TWO_PI / M)
        return GridDensity.from_unnormalized(np.diff(np.interp(new_edges, edges, cdf)))


# ---------------------------------------------------------------------------
# operations


def sample_grid_density(d: GridDensity, rng: np.random.Generator, size):
    """Angles from the piecewise-constant carrier of d: ``d.sample(rng, size)``."""
    return d.sample(rng, size)


def fourier_coeffs(d: GridDensity, K: int) -> FourierDensity:
    """Grid-to-coefficient transform (midpoint rule / DFT).

    Parameters
    ----------
    d : GridDensity
        Density on the M-point grid.
    K : int
        Mode cutoff; requires 1 <= K <= M/2 - 1 so the modes are unaliased.

    Returns
    -------
    FourierDensity
        fhat(k) = (2*pi/M) * sum_m exp(-i*k*theta_m) d(theta_m), k = -K..K.
    """
    if K < 1 or K > d.M // 2 - 1:
        raise ValueError(f"cutoff K={K} out of range; need 1 <= K <= M/2 - 1 = {d.M // 2 - 1}")
    X = np.fft.fft(d.values) * (TWO_PI / d.M)
    c = X[np.mod(np.arange(-K, K + 1), d.M)]
    c = 0.5 * (c + np.conj(c[::-1]))  # exact hermitian symmetry
    return FourierDensity(c)


def density_from_coeffs(f: FourierDensity, M: int) -> GridDensity:
    """Invert ``fourier_coeffs`` onto an M-point grid (M >= 2K + 2).

    Small negative excursions (>= -1e-9) from truncation are clipped and the
    result renormalized; anything more negative raises, since the coefficient
    set then does not resolve a density at this resolution.
    """
    if M < 2 * f.K + 2:
        raise ValueError(f"grid size M={M} too small for K={f.K}; need M >= 2K + 2")
    spectrum = np.zeros(M, dtype=complex)
    spectrum[np.mod(f.kvals, M)] = f.coeffs
    vals = np.fft.ifft(spectrum).real * (M / TWO_PI)
    if vals.min() < -1e-9:
        raise ValueError(
            f"coefficients give negative density (min {vals.min():.3e}); not resolvable at M={M}"
        )
    vals = np.clip(vals, 0.0, None)
    return GridDensity.from_unnormalized(vals)

