"""Kinetic (large-N) limit equations for the circle models.

The one-particle density solves df/dt = RATE_FACTOR * (G(f) - f), where G is
the model's gain operator:

* leader model (cl): G(f) = (f + g * f) / 2, which in Fourier modes gives the
  closed form fhat(k, t) = fhat(k, 0) * exp((ghat(k) - 1) * t);
* midpoint model (bdg): G(f) = g * mu_f, where mu_f is the pushforward of the
  product f x f under the shorter-arc midpoint map.

RATE_FACTOR = 2 is fixed by the particle dynamics, not a setting: events
arrive at total rate N and each picks a uniform pair, which contains a tagged
particle with probability 2/N, so a tagged particle takes part in events at
rate 2. Under cl it follows in half of them, so its mode k relaxes at rate
1 - ghat(k). Any other factor only relabels time; the flow-matching scenario
(A5) checks this normalization against particle data.

The grid solver deposits midpoint mass on the nearest cell; when the exact
midpoint falls on a cell boundary (odd cell difference) the mass is split
evenly between the two adjacent cells, which keeps the scheme translation
invariant and free of directional drift. The antipodal tie takes the arc
counterclockwise from the first cell, matching the bdg update of the particle
engines (``models._apply_events`` and ``models._advance``).
``bisector_tables`` states this rule per cell pair (for ``oracle`` and A6's
O(M^3) gain quadrature); the solver (``_Pushforward``) takes each unordered
cell pair once, as two dot products per cell over contiguous windows of p,
one over the even and one over the odd cell differences: about M^2/2
products per right-hand side instead of M^2 (M^2/4 each, the antipodal pair
once) and O(M) memory, equal to the tables to rounding. BLAS sums each dot
in its own order (OpenBLAS: several SIMD partial sums, then their total), so
results move from any other summation at the level of an ulp, but they do
not depend on where the window starts: a rotated density gives the rotated
masses bit for bit.
The deposition error is O(1/M^2): against the spectral midpoint law
mu_hat(k) = sum_p fhat(p) fhat(k - p) sinc((k - 2p) / 2), the pushforward of
a wrapped normal (variance 0.5) has max mode errors (|k| <= 8) of 1.76e-3,
4.41e-4, 1.10e-4, 2.76e-5 and 6.89e-6 at M = 64, 128, 256, 512 and 1024.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .circle import TWO_PI, FourierDensity, GridDensity, NoiseSpec

__all__ = [
    "RATE_FACTOR",
    "KineticConfig",
    "bisector_tables",
    "cl_evolve",
    "bdg_gain",
    "bdg_evolve",
]

RATE_FACTOR = 2.0  # events per unit time that involve a tagged particle


@dataclass(frozen=True)
class KineticConfig:
    """RK4 step of the grid (bdg) solver: 0 < dt <= 0.1 / RATE_FACTOR = 0.05.

    The grid is that of the initial density.
    """

    dt: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.dt <= 0.1 / RATE_FACTOR + 1e-15:
            raise ValueError(f"dt={self.dt} out of range; need 0 < dt <= {0.1 / RATE_FACTOR:g}")


def cl_evolve(f0: FourierDensity, g: NoiseSpec, t: float) -> FourierDensity:
    """Exact mode-wise solution of the leader-model kinetic equation.

    Every mode decays independently:
    fhat(k, t) = fhat(k, 0) * exp((ghat(k) - 1) * t), since a tagged particle
    follows at rate RATE_FACTOR / 2 = 1.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    ghat = np.asarray(g.fourier(f0.kvals), dtype=float)
    decay = np.exp((ghat - 1.0) * t)
    return FourierDensity(f0.coeffs * decay)


@lru_cache(maxsize=None)
def bisector_tables(M: int):
    """Midpoint deposition tables for every ordered cell pair.

    The shorter-arc midpoint of cells (a, b) sits either on a cell center or
    exactly on a cell boundary (odd cell difference). Returns (lo, hi, w_hi):
    midpoint mass goes to cell lo[a, b] with weight 1 - w_hi[a, b] and to
    cell hi[a, b] with weight w_hi[a, b]; centered midpoints have w_hi = 0
    and boundary ties split evenly (w_hi = 1/2). The even split is the only
    deterministic choice that is both translation invariant (so rotations
    commute with the deposition and uniform stays exactly uniform) and free
    of the half-cell drift a one-sided rounding would inject.

    Arc conventions match the particle engines' bdg update, including the
    antipodal case (a quarter turn counterclockwise from the first cell).

    Read by ``oracle`` (the seed cell of a departing pair) and the O(M^3) gain
    quadrature (24 M^2 bytes); the solver applies the rule by per-cell dot
    products (``_Pushforward``).
    """
    d = (np.arange(M)[None, :] - np.arange(M)[:, None]) % M
    signed = np.where(d <= M // 2, d, d - M).astype(float)
    pos = np.arange(M)[:, None] + 0.5 * signed
    base = np.floor(pos)
    w_hi = pos - base  # 0.0 at cell centers, 0.5 at boundary ties
    lo = base.astype(np.int64) % M
    hi = (base.astype(np.int64) + 1) % M
    for a in (lo, hi, w_hi):
        a.setflags(write=False)
    return lo, hi, w_hi


class _Pushforward:
    """Midpoint deposition of p x p on M cells (a power of two), on a workspace
    made once per grid: ``push = _Pushforward(M)``, then ``push(p)`` per call.

    A signed cell difference 2j in (-M/2, M/2] puts the pair (c - j, c + j) on
    cell c, and 2j + 1 splits (c - j, c + j + 1) evenly between c and c + 1.
    The mirror pairs j, -j (even) and j, -j - 1 (odd) carry equal products, so
    each is summed once and doubled; the antipodal difference M/2 has no mirror
    and is counted once (even for M >= 4, odd for M = 2).

    ``fwd`` holds p three times over and ``rev`` the same reversed, so row k
    (k = 0 .. M) of the views F and R is p[k + j] and p[k - 1 - j] for j = 0 ..
    M/4: unit-stride windows, as BLAS needs. Cell c's even sum is
    R[c] . F[c + 1] over j < (M/2 - 1) // 2 and its odd sum R[c + 1] . F[c + 1]
    over j < M/4, the antipodal pair in the next column; the odd sums run over
    c = -1 .. M - 1, so the split onto c + 1 needs no roll. A call refills the
    copies and does one batched dot per parity: ``np.matmul`` of (M, 1, J) by
    (M, J, 1) stacks, which numpy hands to BLAS ``ddot`` row by row.

    OpenBLAS splits a dot longer than 10^4 entries across its threads, so at
    M >= 2^16 (rows of M/4 entries) the masses depend, at the ulp level, on
    the BLAS thread count; below that, on nothing but p.
    """

    def __init__(self, M: int):
        h = M // 2
        self.M, self.je, self.jo = M, (h - 1) // 2, h // 2
        self.fwd, self.rev = np.empty(3 * M), np.empty(3 * M)
        step = self.fwd.itemsize
        J = self.jo + 1  # the sums' columns and the antipodal one
        self.F = as_strided(self.fwd[M:], shape=(M + 1, J), strides=(step, step))
        self.R = as_strided(self.rev[2 * M:], shape=(M + 1, J), strides=(-step, step))
        self.even, self.odd = np.empty((M, 1, 1)), np.empty((M + 1, 1, 1))

    def __call__(self, p: np.ndarray) -> np.ndarray:
        M, je, jo, F, R = self.M, self.je, self.jo, self.F, self.R
        self.fwd.reshape(3, M)[...] = p
        self.rev.reshape(3, M)[...] = p[::-1]
        even = np.matmul(R[:M, None, :je], F[1:, :je, None], out=self.even).ravel()
        odd = np.matmul(R[:, None, :jo], F[:, :jo, None], out=self.odd).ravel()
        masses = p * p + 2.0 * even
        if (M // 2) % 2 == 0:
            masses += R[:M, je] * F[1:, je]
        else:
            odd += 0.5 * (R[:, jo] * F[:, jo])
        # half of each doubled odd sum to either cell: 0.5 * (2a + 2b) = a + b exactly
        masses += np.add(odd[1:], odd[:-1], out=even)
        return masses


def _gain_masses(p: np.ndarray, gm_hat: np.ndarray, push: _Pushforward) -> np.ndarray:
    # midpoint law of p x p convolved with the noise, whose rfft is gm_hat
    return np.fft.irfft(np.fft.rfft(push(p)) * gm_hat, p.size)


def bdg_gain(f: GridDensity, g: NoiseSpec, stats: dict | None = None) -> GridDensity:
    """Gain term of the midpoint model: noise convolved with the midpoint law.

    Rounding-level undershoots of the FFT convolution, down to -1e-12, are
    clipped to 0 before normalizing; a lower value raises. Adds to ``stats``,
    if given, ``clipped_cells`` and ``min_pre_clip`` (the least mass before
    clipping, negative iff a cell was clipped).
    """
    masses = _gain_masses(f.masses, np.fft.rfft(g.tabulate(f.M).masses), _Pushforward(f.M))
    low = float(masses.min())
    if low < -1e-12:
        raise ValueError(f"gain came out negative (min {low:.3e})")
    if stats is not None:
        stats["clipped_cells"] = stats.get("clipped_cells", 0) + int(np.count_nonzero(masses < 0.0))
        stats["min_pre_clip"] = min(stats.get("min_pre_clip", low), low)
    masses = np.clip(masses, 0.0, None)
    return GridDensity.from_unnormalized(masses * (f.M / TWO_PI))


def _gain_rhs(p: np.ndarray, gm_hat: np.ndarray, push: _Pushforward) -> np.ndarray:
    # d p / dt in mass space. The gain has mass sum(p)^2, so a loss of sum(p) * p
    # keeps any mass still; a loss of p would make mass 1 repelling, and rounding
    # would grow like e^(RATE_FACTOR * t) into the drift abort by t ~ 7-9
    return RATE_FACTOR * (_gain_masses(p, gm_hat, push) - p.sum() * p)


def bdg_evolve(f0: GridDensity, g: NoiseSpec, t: float,
               config: KineticConfig = KineticConfig(), stats: dict | None = None) -> GridDensity:
    """Integrate the midpoint-model kinetic equation to time t with RK4.

    After each step tiny negative undershoots are clipped and the density is
    renormalized; a value below -1e-6 or a mass drift beyond 1e-10 aborts,
    since either indicates the step size is too large for this data. Adds to
    ``stats``, if given, ``rk4_steps``, ``clipped_steps`` and ``min_pre_clip``
    (the least mass, initial or pre-clip, negative iff a step clipped).
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    p = f0.masses.copy()
    steps = 0 if t == 0.0 else max(1, int(np.ceil(t / config.dt - 1e-12)))
    clipped, lowest, h = 0, float(p.min()), t / max(steps, 1)
    gm_hat, push = np.fft.rfft(g.tabulate(f0.M).masses), _Pushforward(f0.M)
    for _ in range(steps):
        k1 = _gain_rhs(p, gm_hat, push)
        k2 = _gain_rhs(p + 0.5 * h * k1, gm_hat, push)
        k3 = _gain_rhs(p + 0.5 * h * k2, gm_hat, push)
        k4 = _gain_rhs(p + h * k3, gm_hat, push)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mass = p.sum()
        if abs(mass - 1.0) > 1e-10:
            raise RuntimeError(f"mass drifted to {mass!r}; reduce dt")
        low = float(p.min())
        if low < -1e-6:
            raise RuntimeError(f"density undershoot {low:.3e}; reduce dt")
        lowest = min(lowest, low)
        if low < 0.0:
            clipped += 1
            p = np.clip(p, 0.0, None)
            p /= p.sum()
    if stats is not None:
        stats["rk4_steps"] = stats.get("rk4_steps", 0) + steps
        stats["clipped_steps"] = stats.get("clipped_steps", 0) + clipped
        stats["min_pre_clip"] = min(stats.get("min_pre_clip", lowest), lowest)
    if not steps:
        return GridDensity(f0.values)
    return GridDensity.from_unnormalized(p * (f0.M / TWO_PI))
