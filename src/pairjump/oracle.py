"""Exact finite-state reference for the circle models.

The circle is replaced by the M-point cyclic grid, which turns a model into
a finite Markov chain on M^N states whose one-jump transition matrix can be
assembled exactly (noise tabulated to cell masses, midpoints via the shared
bisector table). A jump moves one of the N(N-1)/2 pairs, picked uniformly as
in Kac's model, by one two-particle kernel K (``_pair_kernel``), so P is
(2/(N(N-1))) * sum over i < j of K acting on coordinates (i, j) and the
identity on the others. Everything downstream — stationary laws, marginals,
the generator N*(Q* - I) — is then plain sparse linear algebra, independent
of the event-driven simulator, which is what makes this a trustworthy oracle
for small N and M.

States are flattened with coordinate c contributing digit (x // M**c) % M,
i.e. mixed-radix little-endian order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .kinetic import bisector_tables
from .models import ModelSpec

__all__ = [
    "TransitionMatrix",
    "JointDensity",
    "build_transition",
    "stationary",
    "marginal",
    "apply_generator",
    "pair_difference_profile",
]

# Cap on the entries build_transition emits: M^N states times N(N-1)/2 pairs
# times 2M (cl) or M^2 (bdg). Assembly holds about 20 bytes per entry (int64
# columns, values, the CSR's int32 copy; bdg N=5, M=8), so about 0.7 GB.
ENTRY_CAP = 2 ** 25


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic one-jump matrix P[x, y] on the M^N grid states."""

    n_particles: int
    grid_size: int
    P: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return self.grid_size ** self.n_particles


@dataclass(eq=False)
class JointDensity:
    """Probability weights on grid states, flat shape (M^N,), summing to 1."""

    n_particles: int
    grid_size: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid_size ** self.n_particles,):
            raise ValueError("weights must be flat with M^N entries")
        if w.min() < -1e-15 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        self.weights = w

    def tensor(self) -> np.ndarray:
        """Weights reshaped to one axis per particle; axis c is coordinate c."""
        M, N = self.grid_size, self.n_particles
        return self.weights.reshape((M,) * N, order="F")

    @classmethod
    def uniform(cls, n_particles: int, grid_size: int) -> "JointDensity":
        S = grid_size ** n_particles
        return cls(n_particles, grid_size, np.full(S, 1.0 / S))

    @classmethod
    def product(cls, n_particles: int, cell_masses: np.ndarray) -> "JointDensity":
        """Product (chaotic) law with the same single-coordinate masses."""
        m = np.asarray(cell_masses, dtype=float)
        out = m.copy()
        for _ in range(n_particles - 1):
            # prepend a slower coordinate: flat index i + out.size * j
            out = (m[:, None] * out[None, :]).ravel()
        return cls(n_particles, m.size, out)


def _pair_kernel(model: ModelSpec, M: int):
    """Two-particle kernel: cells (a, b) jump to (C, D)[a, b, t] with probability
    W[a, b, t], arrays (M, M, T). cl (T = 2M): a fair coin picks the leader and
    the follower lands on leader + z, z ~ g. bdg (T = M^2): both land on the
    midpoint, deposited as in ``kinetic``, plus independent noise.
    """
    g = model.noise.tabulate(M).masses
    if model.kind == "cl":
        a, b, z = np.broadcast_arrays(*np.ix_(range(M), range(M), range(M)))
        C = np.concatenate([a, (b + z) % M], axis=2)
        D = np.concatenate([(a + z) % M, b], axis=2)
        return C, D, np.broadcast_to(np.concatenate([g, g]) / 2, C.shape)
    lo, hi, w_hi = bisector_tables(M)
    G = g[(np.arange(M)[None, :] - np.arange(M)[:, None]) % M]  # G[m, c] = g[c - m]
    W = sum(q[:, :, None, None] * G[mid][:, :, :, None] * G[mid][:, :, None, :]
            for mid, q in ((lo, 1.0 - w_hi), (hi, w_hi)))
    # target t = c*M + d; C and D are broadcast views of shape (M, M, M^2)
    return tuple(np.broadcast_arrays(*np.divmod(np.arange(M * M), M), W.reshape(M, M, M * M)))


def build_transition(model: ModelSpec, n_particles: int, grid_size: int) -> TransitionMatrix:
    """Assemble the exact one-jump transition matrix.

    Covers the circle models (cl, bdg); the energy sphere of the kac model
    is not a grid discretization target. Raises, before allocating anything,
    if the assembly would emit more than ENTRY_CAP matrix entries.

    Parameters
    ----------
    model : ModelSpec
    n_particles, grid_size : int
        N >= 2 particles on the M-point grid.
    """
    N, M = n_particles, grid_size
    if model.kind == "kac":
        raise ValueError("grid oracle covers circle models only (cl, bdg)")
    if N < 2:
        raise ValueError("n_particles must be >= 2")
    n_states = M ** N
    pairs = list(itertools.combinations(range(N), 2))
    T = 2 * M if model.kind == "cl" else M * M
    n_entries = n_states * len(pairs) * T
    if n_entries > ENTRY_CAP:
        raise ValueError(f"state space M^N = {n_states} needs {n_entries} matrix "
                         f"entries, over the cap of {ENTRY_CAP}")

    C, D, W = _pair_kernel(model, M)
    x = np.arange(n_states, dtype=np.int64)
    stride = M ** np.arange(N, dtype=np.int64)
    digit = (x[:, None] // stride) % M
    # every row holds T entries per pair, so the CSR rows have equal width
    cols = np.empty((n_states, len(pairs), T), dtype=np.int64)
    vals = np.empty((n_states, len(pairs), T))
    for p, (i, j) in enumerate(pairs):
        di, dj = digit[:, i], digit[:, j]
        base = x - di * stride[i] - dj * stride[j]
        cols[:, p] = base[:, None] + C[di, dj] * stride[i] + D[di, dj] * stride[j]
        vals[:, p] = 2.0 / (N * (N - 1)) * W[di, dj]
    indptr = np.arange(0, n_entries + 1, len(pairs) * T)
    P = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n_states, n_states))
    P.sum_duplicates()
    return TransitionMatrix(n_particles=N, grid_size=M, P=P)


def stationary(tm: TransitionMatrix, tol: float = 1e-12,
               max_iter: int = 1_000_000, start: np.ndarray = None,
               stats: dict | None = None) -> JointDensity:
    """Stationary law by power iteration (from uniform, or from ``start``).

    Stops when successive iterates differ by less than tol in L1 norm; at
    return the residual ||Q*F - F||_1 is below tol. Raises if the iteration
    cap is hit first. Sets ``power_iterations`` and ``final_gap`` (the last
    L1 difference) in ``stats``, if given.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    PT = tm.P.T.tocsr()
    if start is None:
        d = np.full(tm.n_states, 1.0 / tm.n_states)
    else:
        d = np.asarray(start, dtype=float)
        if d.shape != (tm.n_states,) or d.min() < 0.0 or d.sum() <= 0.0:
            raise ValueError("start must be a nonnegative vector on the state space")
        d = d / d.sum()
    for it in range(1, max_iter + 1):
        d_next = PT @ d
        d_next /= d_next.sum()
        gap = np.abs(d_next - d).sum()
        d = d_next
        if gap < tol:
            if stats is not None:
                stats.update(power_iterations=it, final_gap=float(gap))
            return JointDensity(tm.n_particles, tm.grid_size, d)
    raise RuntimeError(f"power iteration did not reach tol={tol} (last gap {gap:.3e})")


def marginal(d: JointDensity, coords: Sequence[int]) -> np.ndarray:
    """Marginal weights on the given coordinates, axes in the order requested."""
    coords = list(coords)
    if len(set(coords)) != len(coords) or not coords:
        raise ValueError("coords must be a nonempty set of distinct coordinates")
    if min(coords) < 0 or max(coords) >= d.n_particles:
        raise ValueError(f"coords out of range 0..{d.n_particles - 1}")
    t = d.tensor()
    drop = tuple(a for a in range(d.n_particles) if a not in coords)
    out = t.sum(axis=drop)
    kept = [a for a in range(d.n_particles) if a in coords]
    return np.transpose(out, [kept.index(c) for c in coords])


def apply_generator(tm: TransitionMatrix, d: JointDensity) -> np.ndarray:
    """Master-equation right-hand side N * (Q* d - d) as flat signed weights."""
    flow = tm.P.T @ d.weights - d.weights
    return tm.n_particles * flow


def pair_difference_profile(pair_weights: np.ndarray) -> np.ndarray:
    """Distribution of the cell difference (m1 - m2) mod M of a pair marginal."""
    pw = np.asarray(pair_weights)
    M = pw.shape[0]
    if pw.shape != (M, M):
        raise ValueError("pair marginal must be square")
    m2 = np.arange(M)
    return np.array([pw[(m2 + delta) % M, m2].sum() for delta in range(M)])
