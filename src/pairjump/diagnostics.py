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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circle import FourierDensity, density_from_coeffs, sample_grid_density
from .models import EnsembleResult

__all__ = [
    "EnsembleSummary",
    "summarize",
    "chaos_distance",
    "compare_flow",
    "iid_chaos_samples",
    "resample_chaos_samples",
    "summary_rows",
    "SUMMARY_COLUMNS",
]

DEFAULT_KMAX = 16
FLOOR_GRID = 512  # cells of the grid the i.i.d. floor draws its angles from
MODE_BLOCK = 1 << 15  # angles per block of _mode_stats; 512 KiB of complex phasors


def _mode_stats(snapshots: np.ndarray, kmax: int):
    # per-replica statistics a_r(k) and b_r(k) for k = 0..kmax. Rows of
    # (replica, checkpoint) go through the recurrence z^k = z^(k-1) * z in
    # blocks of about MODE_BLOCK angles, updated in place, so the phasors stay
    # in cache and no array of the full ensemble's size is allocated per mode.
    R, T, N = snapshots.shape
    rows = snapshots.reshape(R * T, N)
    S = np.empty((kmax, R * T), dtype=complex)  # S[k-1] = sum_n z^k per row
    step = max(1, MODE_BLOCK // N)
    for r0 in range(0, R * T, step):
        powers = np.multiply(rows[r0:r0 + step], -1j)
        np.exp(powers, out=powers)
        z = powers.copy()
        for k in range(kmax):
            if k:
                np.multiply(powers, z, out=powers)
            powers.sum(axis=-1, out=S[k, r0:r0 + step])
    a = np.empty((R * T, kmax + 1), dtype=complex)
    b = np.empty((R * T, kmax + 1))
    a[:, 0] = 1.0
    b[:, 0] = 1.0
    a[:, 1:] = (S / N).T
    b[:, 1:] = ((np.abs(S) ** 2 - N) / (N * (N - 1))).T
    return a.reshape(R, T, kmax + 1), b.reshape(R, T, kmax + 1)


@dataclass(eq=False)
class EnsembleSummary:
    times: np.ndarray        # (T,)
    n_replicas: int
    n_particles: int
    kmax: int
    f1: np.ndarray           # (T, kmax+1) complex, mean one-particle coefficient
    f1_se: np.ndarray        # (T, kmax+1)
    pair: np.ndarray         # (T, kmax+1) real pair statistic C(k)
    pair_se: np.ndarray
    pair_reps: np.ndarray    # (R, T, kmax+1) per-replica b_r(k)


def summarize(result: EnsembleResult, kmax: int = DEFAULT_KMAX) -> EnsembleSummary:
    """Mode statistics with across-replica standard errors (needs >= 2 replicas)."""
    snaps = result.snapshots
    if snaps.ndim != 3 or snaps.shape[0] < 2:
        raise ValueError("need an ensemble with at least 2 replicas")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    R, T, N = snaps.shape
    a, b = _mode_stats(snaps, kmax)
    f1 = a.mean(axis=0)
    f1_se = np.sqrt((a.real.var(axis=0, ddof=1) + a.imag.var(axis=0, ddof=1)) / R)
    pair = b.mean(axis=0)
    pair_se = np.sqrt(b.var(axis=0, ddof=1) / R)
    return EnsembleSummary(times=result.times, n_replicas=R, n_particles=N, kmax=kmax,
                           f1=f1, f1_se=f1_se, pair=pair, pair_se=pair_se,
                           pair_reps=b)


def _reference_pair_power(f: FourierDensity, kmax: int) -> np.ndarray:
    if kmax > f.K:
        raise ValueError(f"reference density resolves only |k| <= {f.K}")
    return np.abs(f.coeffs[f.K:f.K + kmax + 1]) ** 2


def _distance(pair: np.ndarray, ref: np.ndarray) -> float:
    # D = 2 sum_{0 < k <= K} (C(k) - |fhat(k)|^2)^2; the factor 2 counts -k
    return float(2.0 * np.sum((pair - ref) ** 2))


def chaos_distance(summary: EnsembleSummary, f: FourierDensity,
                   kmax: Optional[int] = None, checkpoint: int = -1) -> float:
    """Distance D between the pair statistic and the product-law prediction."""
    K = summary.kmax if kmax is None else kmax
    if K < 1 or K > summary.kmax:
        raise ValueError(f"kmax must be in 1..{summary.kmax}")
    ref = _reference_pair_power(f, K)
    return _distance(summary.pair[checkpoint, 1:K + 1], ref[1:])


def compare_flow(summary: EnsembleSummary, kinetic_coeffs: np.ndarray,
                 kmax: Optional[int] = None) -> np.ndarray:
    """Standardized deviations z(t, k) = (f1 - kinetic) / SE for k = 0..kmax.

    kinetic_coeffs has shape (T, kmax+1) with the predicted fhat(k, t). At
    k = 0 both sides are 1 and z is set to 0. A zero standard error with a
    nonzero deviation yields inf, so it cannot pass unnoticed.
    """
    K = summary.kmax if kmax is None else kmax
    if K < 1 or K > summary.kmax:
        raise ValueError(f"kmax must be in 1..{summary.kmax}")
    ref = np.asarray(kinetic_coeffs)
    if ref.shape != (summary.times.size, K + 1):
        raise ValueError(f"kinetic coefficients must have shape (T, {K + 1})")
    dev = summary.f1[:, :K + 1] - ref
    se = summary.f1_se[:, :K + 1]
    z = np.zeros_like(dev)
    ok = se > 0.0
    z[ok] = dev[ok] / se[ok]
    bad = (~ok) & (np.abs(dev) > 1e-12)
    z[bad] = np.inf
    z[:, 0] = 0.0
    return z


def iid_chaos_samples(f: FourierDensity, n_particles: int, n_replicas: int, kmax: int,
                      n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of D for i.i.d. ensembles from f (the noise floor).

    Each draw builds a fresh ensemble of n_replicas x n_particles independent
    angles from f, one checkpoint per replica, and evaluates the chaos
    distance against f itself with the same estimator as ``chaos_distance``.
    The angles are drawn from f tabulated on FLOOR_GRID cells (more if f has
    more modes); the grid's sampling table is built on the first draw and
    shared by the rest.
    """
    grid = density_from_coeffs(f, max(FLOOR_GRID, 2 * f.K + 2))
    ref = _reference_pair_power(f, kmax)[1:]
    out = np.empty(n_boot)
    for bi in range(n_boot):
        angles = sample_grid_density(grid, rng, (n_replicas, 1, n_particles))
        _, b = _mode_stats(angles, kmax)
        out[bi] = _distance(b[:, 0, 1:].mean(axis=0), ref)
    return out


def resample_chaos_samples(summary: EnsembleSummary, f: FourierDensity, n_boot: int,
                           rng: np.random.Generator, kmax: Optional[int] = None,
                           checkpoint: int = -1) -> np.ndarray:
    """Bootstrap draws of D by resampling replicas with replacement."""
    K = summary.kmax if kmax is None else kmax
    ref = _reference_pair_power(f, K)[1:]
    b = summary.pair_reps[:, checkpoint, 1:K + 1]
    R = b.shape[0]
    out = np.empty(n_boot)
    for bi in range(n_boot):
        pick = rng.integers(R, size=R)
        out[bi] = _distance(b[pick].mean(axis=0), ref)
    return out


SUMMARY_COLUMNS = ("t", "k", "re_f1", "im_f1", "se_f1", "re_C", "im_C", "se_C", "z_kinetic")


def summary_rows(summary: EnsembleSummary, z: Optional[np.ndarray] = None):
    """Rows for the summary CSV; z_kinetic is |z| when provided, else nan."""
    for ti, t in enumerate(summary.times):
        for k in range(summary.kmax + 1):
            zk = float("nan") if z is None else float(np.abs(z[ti, k]))
            yield (float(t), k,
                   float(summary.f1[ti, k].real), float(summary.f1[ti, k].imag),
                   float(summary.f1_se[ti, k]),
                   float(summary.pair[ti, k]), 0.0, float(summary.pair_se[ti, k]),
                   zk)
