"""Ensemble estimators linking particle data to the kinetic predictions.

For each checkpoint and mode k the summary holds

* f1(k): mean over replicas of the per-replica particle average of
  exp(-i k theta); its standard error is computed across replicas only,
  never across particles, since particles within a replica are correlated;
* C(k): unbiased pair statistic mean over replicas of
  (|S_k|^2 - N) / (N (N - 1)) with S_k the per-replica phasor sum, which
  estimates E exp(-i k (theta_1 - theta_2)) and is real by symmetry.

The chaos distance D = sum_{0 < |k| <= K} |C(k) - |fhat(k)|^2|^2 measures
how far the ensemble is from a product law with marginal f; it vanishes in
probability as N grows when propagation of chaos holds.

The phasors exp(-i theta) come from a table rather than from the complex
``np.exp``, which spends most of its time in libm's sine and cosine:
exp(-i theta) = T[j] * (cos x - i sin x) with T[j] = exp(-i h j), h = 2 pi / M,
|x| <= h / 2, and cos, sin replaced by their Taylor polynomials to x^4 and x^5
(``_rotate``). ``summarize`` finds j and x by table-driven range reduction
(Cody and Waite 1980; Tang 1989) with M = PHASOR_TABLE: m = rint(theta / h),
x = theta - m h and j = m mod M, so the truncation is below 1.3e-18. Each
phasor is within 8.9e-16 (4 ulp of 1) of ``np.exp(-1j * theta)`` for
|theta| <= 1e3 (measured: 2.5e-16), so the statistics move at ulp level
against an exp-based evaluation, not bit for bit. The i.i.d. floor draws each
angle as theta = (c - 1/2 + u) h from a cell c of its M-cell grid and an
in-cell fraction u, so it takes j = c and x = (u - 1/2) h directly and never
forms theta; there M >= FLOOR_GRID, |x| <= pi / 512 and the truncation is
below 7.4e-17.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, FourierDensity, density_from_coeffs
from .models import EnsembleResult

__all__ = [
    "EnsembleSummary",
    "summarize",
    "chaos_distance",
    "compare_flow",
    "iid_chaos_samples",
    "iid_chaos_mean",
    "summary_rows",
    "SUMMARY_COLUMNS",
]

DEFAULT_KMAX = 16
FLOOR_GRID = 512  # cells of the grid the i.i.d. floor draws its angles from
MODE_BLOCK = 1 << 15  # angles per block of the mode recurrence; 512 KiB of phasors
PHASOR_TABLE = 1024  # entries of the phasor table; 16 KiB


def _turn_split(M: int):
    # h = 2 pi / M as a float32 head, so that m * head is exact for |m| < 2^29,
    # plus the remainder, which includes the 2.449e-16 by which the double
    # TWO_PI falls short of 2 pi
    head = float(np.float32(TWO_PI / M))
    return head, (TWO_PI / M - head) + 2.4492935982947064e-16 / M


def _turn_table(M: int) -> np.ndarray:
    # T[j] = exp(-i 2 pi j / M) for M a multiple of 4, from a quarter turn of
    # angles below pi/2 rotated exactly by powers of -i, so that no entry
    # carries the rounding of an angle near 2 pi
    h1, h2 = _turn_split(M)
    j = np.arange(M // 4)
    quarter = np.exp(-1j * (j * h1 + j * h2))
    return np.concatenate((quarter, -1j * quarter, -quarter, 1j * quarter))


_H1, _H2 = _turn_split(PHASOR_TABLE)
_TABLE = _turn_table(PHASOR_TABLE)


def _rotate(j: np.ndarray, x: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = table[j] * (cos x - i sin x) elementwise, for small |x|. Each
    # polynomial is evaluated in one contiguous buffer, which is faster than
    # updating out's strided real and imaginary parts in place.
    x2 = np.multiply(x, x)
    p = np.multiply(x2, 1.0 / 24.0)  # cos x = 1 - x^2/2 + x^4/24
    p -= 0.5
    p *= x2
    p += 1.0
    out.real = p
    np.multiply(x2, -1.0 / 120.0, out=p)  # -sin x = x (x^2/6 - x^4/120 - 1)
    p += 1.0 / 6.0
    p *= x2
    p -= 1.0
    p *= x
    out.imag = p
    out *= table[j]
    return out


def _phasors(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    # exp(-i theta) elementwise into the complex array out of theta's shape
    m = np.multiply(theta, PHASOR_TABLE / TWO_PI)
    np.rint(m, out=m)
    index = m.astype(np.intp)
    index &= PHASOR_TABLE - 1
    x = np.multiply(m, -_H1)
    x += theta  # exact (Sterbenz): m * _H1 is within a factor 2 of theta
    x -= np.multiply(m, _H2, out=m)
    return _rotate(index, x, _TABLE, out)


def _power_sums(z: np.ndarray, S: np.ndarray) -> None:
    # S[k-1] = sum of z^k over z's last axis for k = 1..len(S), by the
    # recurrence z^k = z^(k-1) * z, updated in place from k = 2 on
    powers = z
    for k in range(len(S)):
        if k == 1:
            powers = z * z
        elif k:
            np.multiply(powers, z, out=powers)
        powers.sum(axis=-1, out=S[k])


def _pair_stats(S: np.ndarray, N: int):
    # a(k) = S_k / N and b(k) = (|S_k|^2 - N) / (N (N - 1)) per row for
    # k = 0..kmax, from the power sums S of shape (kmax, rows)
    kmax, rows = S.shape
    a = np.empty((rows, kmax + 1), dtype=complex)
    b = np.empty((rows, kmax + 1))
    a[:, 0] = 1.0
    b[:, 0] = 1.0
    a[:, 1:] = (S / N).T
    b[:, 1:] = ((np.abs(S) ** 2 - N) / (N * (N - 1))).T
    return a, b


def _mode_stats(snapshots: np.ndarray, kmax: int):
    # per-replica statistics a_r(k) and b_r(k) for k = 0..kmax. Rows of
    # (replica, checkpoint) go through the power sums in blocks of about
    # MODE_BLOCK angles, so the phasors stay in cache and no array of the full
    # ensemble's size is allocated per mode.
    R, T, N = snapshots.shape
    rows = snapshots.reshape(R * T, N)
    S = np.empty((kmax, R * T), dtype=complex)
    step = max(1, MODE_BLOCK // N)
    for r0 in range(0, R * T, step):
        block = rows[r0:r0 + step]
        _power_sums(_phasors(block, np.empty(block.shape, dtype=complex)), S[:, r0:r0 + step])
    a, b = _pair_stats(S, N)
    return a.reshape(R, T, kmax + 1), b.reshape(R, T, kmax + 1)


@dataclass(eq=False)
class EnsembleSummary:
    times: np.ndarray        # (T,)
    kmax: int
    f1: np.ndarray           # (T, kmax+1) complex, mean one-particle coefficient
    f1_se: np.ndarray        # (T, kmax+1)
    pair: np.ndarray         # (T, kmax+1) real pair statistic C(k)
    pair_se: np.ndarray


def summarize(result: EnsembleResult, kmax: int = DEFAULT_KMAX) -> EnsembleSummary:
    """Mode statistics with across-replica standard errors.

    Needs at least 2 replicas and finite angles.
    """
    snaps = result.snapshots
    if snaps.ndim != 3 or snaps.shape[0] < 2:
        raise ValueError("need an ensemble with at least 2 replicas")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not np.isfinite(snaps).all():
        raise ValueError("snapshots hold non-finite angles")
    R = snaps.shape[0]
    a, b = _mode_stats(snaps, kmax)
    f1 = a.mean(axis=0)
    f1_se = np.sqrt((a.real.var(axis=0, ddof=1) + a.imag.var(axis=0, ddof=1)) / R)
    pair = b.mean(axis=0)
    pair_se = np.sqrt(b.var(axis=0, ddof=1) / R)
    return EnsembleSummary(times=result.times, kmax=kmax, f1=f1, f1_se=f1_se, pair=pair,
                           pair_se=pair_se)


def _reference_pair_power(f: FourierDensity, kmax: int) -> np.ndarray:
    if kmax > f.K:
        raise ValueError(f"reference density resolves only |k| <= {f.K}")
    return np.abs(f.coeffs[f.K:f.K + kmax + 1]) ** 2


def _distance(pair: np.ndarray, ref: np.ndarray) -> float:
    # D = 2 sum_{0 < k <= K} (C(k) - |fhat(k)|^2)^2; the factor 2 counts -k
    return float(2.0 * np.sum((pair - ref) ** 2))


def chaos_distance(summary: EnsembleSummary, f: FourierDensity) -> float:
    """Distance D of the last checkpoint's pair statistic from the product law, k = 1..kmax."""
    ref = _reference_pair_power(f, summary.kmax)
    return _distance(summary.pair[-1, 1:], ref[1:])


def compare_flow(summary: EnsembleSummary, kinetic_coeffs: np.ndarray) -> np.ndarray:
    """Standardized deviations z(t, k) = (f1 - kinetic) / SE for the summary's k = 0..kmax.

    kinetic_coeffs has shape (T, kmax+1) with the predicted fhat(k, t). At
    k = 0 both sides are 1 and z is set to 0. A zero standard error with a
    nonzero deviation yields inf, so it cannot pass unnoticed.
    """
    ref = np.asarray(kinetic_coeffs)
    if ref.shape != summary.f1.shape:
        raise ValueError(f"kinetic coefficients must have shape (T, {summary.kmax + 1})")
    dev = summary.f1 - ref
    se = summary.f1_se
    z = np.zeros_like(dev)
    ok = se > 0.0
    z[ok] = dev[ok] / se[ok]
    bad = (~ok) & (np.abs(dev) > 1e-12)
    z[bad] = np.inf
    z[:, 0] = 0.0
    return z


def _floor_grid(f: FourierDensity):
    # a power of two, as the guide table and the quarter-turn table need
    M = 1 << (max(FLOOR_GRID, 2 * f.K + 2) - 1).bit_length()
    return density_from_coeffs(f, M)


def _check_floor(n_particles: int, n_replicas: int, kmax: int) -> None:
    if n_particles < 2 or n_replicas < 1:
        raise ValueError("need n_particles >= 2 and n_replicas >= 1")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")


def iid_chaos_samples(f: FourierDensity, n_particles: int, n_replicas: int, kmax: int,
                      n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of D for i.i.d. ensembles from f (the noise floor).

    Each draw builds a fresh ensemble of n_replicas x n_particles independent
    angles from f, one checkpoint per replica, and evaluates the chaos
    distance against f itself with the same estimator as ``chaos_distance``.
    The angles are drawn from f tabulated on FLOOR_GRID cells (the next power
    of two if f has more modes); the grid's sampling table is built on the
    first draw and shared by the rest. ``iid_chaos_mean`` gives the draws'
    exact mean.

    The draws take n_boot * n_replicas * n_particles uniforms from ``rng``,
    replica after replica and draw after draw, and nothing else: ``rng`` is
    left where ``rng.random(n_boot * n_replicas * n_particles)`` would leave
    it. Too few particles or replicas, or kmax < 1, raise ``ValueError``
    before anything is drawn.
    """
    _check_floor(n_particles, n_replicas, kmax)
    N, R = n_particles, n_replicas
    ref = _reference_pair_power(f, kmax)[1:]
    grid = _floor_grid(f)
    table, h = _turn_table(grid.M), TWO_PI / grid.M
    S = np.empty((kmax, R), dtype=complex)
    step = max(1, MODE_BLOCK // N)
    out = np.empty(n_boot)
    for bi in range(n_boot):
        for r0 in range(0, R, step):
            rows = min(step, R - r0)
            cells, x = grid._cells(rng.random(rows * N))
            x -= 0.5  # the in-cell fraction u becomes x = (u - 1/2) h
            x *= h
            z = _rotate(cells, x, table, np.empty(x.shape, dtype=complex))
            _power_sums(z.reshape(rows, N), S[:, r0:r0 + rows])
        _, b = _pair_stats(S, N)
        out[bi] = _distance(b[:, 1:].mean(axis=0), ref)
    return out


def iid_chaos_mean(f: FourierDensity, n_particles: int, n_replicas: int, kmax: int) -> float:
    """Exact mean of the ``iid_chaos_samples`` draws, the chaos estimator's bias.

    The draws come from the piecewise-constant carrier of f on the floor's
    grid, whose coefficients c(k) are exact: the DFT of the cell masses times
    sinc(k h / 2), h the cell width. A replica's pair statistic is then a
    U-statistic (Hoeffding 1948) with kernel Re(z conj(w)), z = exp(-i k theta),
    mean |c(k)|^2 and variance Var_k = (4 (N - 2) zeta1 + 2 zeta2) / (N (N - 1)),
    where, with a = c(k) and b = c(2k),

        zeta1 = (|a|^2 + Re(b conj(a)^2)) / 2 - |a|^4,
        zeta2 = (1 + |b|^2) / 2 - |a|^4.

    Averaging R replicas divides the variance by R, so
    E D = 2 sum_{k=1..K} [Var_k / R + (|c(k)|^2 - |fhat(k)|^2)^2].
    """
    _check_floor(n_particles, n_replicas, kmax)
    N, R = n_particles, n_replicas
    grid = _floor_grid(f)
    k = np.arange(1, 2 * kmax + 1)
    c = np.fft.fft(grid.masses)[k % grid.M] * np.sinc(k / grid.M)
    a, b = c[:kmax], c[1::2]  # c(k) and c(2k) for k = 1..kmax
    a2 = np.abs(a) ** 2
    zeta1 = (a2 + (b * np.conj(a) ** 2).real) / 2 - a2 ** 2
    zeta2 = (1 + np.abs(b) ** 2) / 2 - a2 ** 2
    var = (4 * (N - 2) * zeta1 + 2 * zeta2) / (N * (N - 1))
    bias = a2 - _reference_pair_power(f, kmax)[1:]
    return float(2.0 * np.sum(var / R + bias ** 2))


SUMMARY_COLUMNS = ("t", "k", "re_f1", "im_f1", "se_f1", "re_C", "se_C")


def summary_rows(summary: EnsembleSummary):
    """Rows for the summary CSV, one per (checkpoint, mode); C is real."""
    for ti, t in enumerate(summary.times):
        for k in range(summary.kmax + 1):
            yield (float(t), k,
                   float(summary.f1[ti, k].real), float(summary.f1[ti, k].imag),
                   float(summary.f1_se[ti, k]),
                   float(summary.pair[ti, k]), float(summary.pair_se[ti, k]))
