"""Exact finite-state reference for the circle models.

The circle is replaced by the M-point cyclic grid, which turns a model into
a finite Markov chain on M^N states whose one-jump transition matrix can be
assembled exactly (noise tabulated to cell masses, midpoints via the shared
bisector table). Everything downstream — stationary laws, marginals, the
generator N*(Q* - I) — is then plain sparse linear algebra, independent of
the event-driven simulator, which is what makes this a trustworthy oracle
for small N and M.

States are flattened with coordinate c contributing digit (x // M**c) % M,
i.e. mixed-radix little-endian order.
"""

from __future__ import annotations

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

# Cap on the COO entries build_transition emits: M^N states times N(N-1)
# times M (cl) or M^2 (bdg). Assembly holds about 48 bytes per entry (the
# per-block lists, then their concatenation), so the cap is about 1.6 GB.
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
    n_entries = n_states * N * (N - 1) * (M if model.kind == "cl" else M * M)
    if n_entries > ENTRY_CAP:
        raise ValueError(f"state space M^N = {n_states} needs {n_entries} matrix "
                         f"entries, over the cap of {ENTRY_CAP}")

    gm = model.noise.tabulate(M).masses
    x = np.arange(n_states, dtype=np.int64)
    stride = [M ** c for c in range(N)]
    digit = [(x // stride[c]) % M for c in range(N)]

    rows, cols, vals = [], [], []
    if model.kind == "cl":
        w_pair = 1.0 / (N * (N - 1))  # unordered pair times the fair coin
        for follower in range(N):
            base = x - digit[follower] * stride[follower]
            for leader in range(N):
                if leader == follower:
                    continue
                for z in range(M):
                    target = (digit[leader] + z) % M
                    rows.append(x)
                    cols.append(base + target * stride[follower])
                    vals.append(np.full(n_states, w_pair * gm[z]))
    else:
        w_pair = 2.0 / (N * (N - 1))
        lo, hi, w_hi = bisector_tables(M)
        for i in range(N):
            for j in range(i + 1, N):
                base = x - digit[i] * stride[i] - digit[j] * stride[j]
                di, dj = digit[i], digit[j]
                # boundary midpoints split over two cells, matching kinetic
                for mid, q in ((lo[di, dj], 1.0 - w_hi[di, dj]),
                               (hi[di, dj], w_hi[di, dj])):
                    if not np.any(q):
                        continue
                    for wi in range(M):
                        ci = ((mid + wi) % M) * stride[i]
                        for wj in range(M):
                            rows.append(x)
                            cols.append(base + ci + ((mid + wj) % M) * stride[j])
                            vals.append(w_pair * gm[wi] * gm[wj] * q)

    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_states, n_states),
    ).tocsr()
    return TransitionMatrix(n_particles=N, grid_size=M, P=P)


def stationary(tm: TransitionMatrix, tol: float = 1e-12,
               max_iter: int = 1_000_000, start: np.ndarray = None) -> JointDensity:
    """Stationary law by power iteration (from uniform, or from ``start``).

    Stops when successive iterates differ by less than tol in L1 norm; at
    return the residual ||Q*F - F||_1 is below tol. Raises if the iteration
    cap is hit first.
    """
    PT = tm.P.T.tocsr()
    if start is None:
        d = np.full(tm.n_states, 1.0 / tm.n_states)
    else:
        d = np.asarray(start, dtype=float)
        if d.shape != (tm.n_states,) or d.min() < 0.0 or d.sum() <= 0.0:
            raise ValueError("start must be a nonnegative vector on the state space")
        d = d / d.sum()
    for _ in range(max_iter):
        d_next = PT @ d
        d_next /= d_next.sum()
        gap = np.abs(d_next - d).sum()
        d = d_next
        if gap < tol:
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
