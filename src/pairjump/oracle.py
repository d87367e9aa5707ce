"""Exact finite-state reference for the circle models.

The circle is replaced by the M-point cyclic grid, which turns a model into
a finite Markov chain on M^N states whose one-jump transition matrix can be
assembled exactly (noise tabulated to cell masses, midpoints via the shared
bisector table). A jump moves one of the N(N-1)/2 pairs, picked uniformly as
in Kac's model, by one two-particle kernel K, so P is (2/(N(N-1))) * sum over
i < j of K acting on coordinates (i, j) and the identity on the others. K is
kept as two small sparse factors, K = D @ H (``_pair_factors``): D takes the
pair to a pre-noise state and H applies the noise. The stationary law and
the generator N*(Q* - I) apply P^T pair by pair through those factors
(``TransitionMatrix.rmatvec``) and never read P, which stays for row-sum
checks and entry counts. All of it is plain sparse linear algebra,
independent of the event-driven simulator, which is what makes this a
trustworthy oracle for small N and M.

States are flattened with coordinate c contributing digit (x // M**c) % M,
i.e. mixed-radix little-endian order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .kinetic import bisector_tables
from .models import ModelSpec

if TYPE_CHECKING:  # the builders import scipy.sparse when called, not at import
    import scipy.sparse as sp

__all__ = [
    "TransitionMatrix",
    "JointDensity",
    "build_transition",
    "stationary",
    "marginal",
    "pair_difference_profile",
]

# Cap on the entries build_transition emits: M^N states times N(N-1)/2 pairs
# times 2M (cl) or M^2 (bdg). Assembly peaks at about 10 bytes per entry (bdg
# N=5, M=8, resident memory: P's int32 column and float64 value for the 82% of
# entries left after merging, plus one block of rows), so about 0.35 GB.
ENTRY_CAP = 2 ** 25
BLOCK_ENTRIES = 2 ** 18  # entries assembled per block of rows, over all pairs


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic one-jump matrix P[x, y] on the M^N grid states, and the
    factors D, H of the pair kernel K = D @ H it is assembled from."""

    n_particles: int
    grid_size: int
    P: sp.csr_matrix
    D: sp.csr_matrix
    H: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return self.grid_size ** self.n_particles

    @cached_property
    def _pair_layout(self):
        # src[a + M*b, (p, rest)]: the state whose cells on pair p = (i, j)
        # are (a, b), the other coordinates in order; pos[p, x]: where state
        # x sits in pair p's columns of src, flattened; then D^T and H^T
        N, M = self.n_particles, self.grid_size
        pairs = list(itertools.combinations(range(N), 2))
        states = np.arange(self.n_states).reshape((M,) * N, order="F")
        src = np.stack([states.transpose((j, i) + tuple(c for c in range(N) if c not in (i, j)))
                        for i, j in pairs], axis=2).reshape(M * M, -1)
        pos = np.empty((len(pairs), self.n_states), dtype=np.intp)
        pos[np.arange(src.size) // (self.n_states // (M * M)) % len(pairs), src.ravel()] = \
            np.arange(src.size)
        return src, pos, self.D.T, self.H.T

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """P^T w for flat weights w (the law after one jump): H^T D^T applied
        to every pair's (i, j) axes at once, then summed; P is not read."""
        N, w = self.n_particles, np.asarray(w, dtype=float)
        if w.shape != (self.n_states,):
            raise ValueError(f"weights must be flat with M^N = {self.n_states} entries")
        src, pos, DT, HT = self._pair_layout
        Z = HT @ (DT @ w[src])
        return Z.ravel()[pos].sum(axis=0) * (2.0 / (N * (N - 1)))


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
        if not np.isfinite(w).all() or w.min() < -1e-15 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a finite probability vector")
        self.weights = w

    def tensor(self) -> np.ndarray:
        """Weights reshaped to one axis per particle; axis c is coordinate c."""
        M, N = self.grid_size, self.n_particles
        return self.weights.reshape((M,) * N, order="F")

    @classmethod
    def product(cls, n_particles: int, cell_masses: np.ndarray) -> "JointDensity":
        """Product (chaotic) law with the same single-coordinate masses."""
        m = np.asarray(cell_masses, dtype=float)
        out = m.copy()
        for _ in range(n_particles - 1):
            # prepend a slower coordinate: flat index i + out.size * j
            out = (m[:, None] * out[None, :]).ravel()
        return cls(n_particles, m.size, out)


def _sparse(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR from (row, column, value) triplets, leaving out zero values."""
    import scipy.sparse as sp

    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _pair_factors(model: ModelSpec, M: int):
    """The two-particle kernel as K = D @ H, both CSR. Pair cells (a, b) and
    targets (c, d) are indexed a + M*b, as in the state order.

    cl: D (M^2 x 2M) takes (a, b) to the pre-noise state (leader, leader
    cell), a fair coin picking i (state a) or j (state M + b); H (2M x M^2)
    puts the follower on leader + z with probability g[z]. bdg: D (M^2 x M)
    deposits the midpoint as ``bisector_tables`` does; H (M x M^2) moves both
    to it plus independent noise, H[m, (c, d)] = g[c - m] * g[d - m].
    """
    import scipy.sparse as sp

    g = model.noise.tabulate(M).masses
    if model.kind == "cl":
        b, a = np.divmod(np.arange(M * M), M)
        D = _sparse(np.tile(np.arange(M * M), 2), np.concatenate([a, M + b]),
                    np.full(2 * M * M, 0.5), (M * M, 2 * M))
        # row s = a (i leads): (a, a + z); row s = M + b (j leads): (b + z, b)
        lead, z = np.divmod(np.arange(M * M), M)
        cols = np.concatenate([lead + M * ((lead + z) % M), (lead + z) % M + M * lead])
        H = _sparse(np.arange(2 * M * M) // M, cols, np.tile(g, 2 * M), (2 * M, M * M))
        return D, H
    lo, hi, w_hi = (t.ravel(order="F") for t in bisector_tables(M))
    D = _sparse(np.tile(np.arange(M * M), 2), np.concatenate([lo, hi]),
                np.concatenate([1.0 - w_hi, w_hi]), (M * M, M))
    G = g[(np.arange(M)[None, :] - np.arange(M)[:, None]) % M]  # G[m, c] = g[c - m]
    H = sp.csr_matrix((G[:, :, None] * G[:, None, :]).reshape(M, M * M))  # [m, d, c]
    return D, H


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
    import scipy.sparse as sp

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

    D, H = _pair_factors(model, M)
    # K's columns c + M*d sorted means (d, c) order, in which the state
    # index base + c*M^i + d*M^j (i < j) increases: every pair's rows come
    # out sorted, so each pair's CSR is canonical and + merges them linearly
    K = D @ H
    K.sort_indices()
    K.data *= 2.0 / (N * (N - 1))
    width = np.diff(K.indptr)
    strides = [(M ** i, M ** j) for i, j in pairs]
    shifts = [(K.indices % M) * si + (K.indices // M) * sj for si, sj in strides]
    # rows are merged a block at a time into buffers sized for every pair's
    # entries, so the whole P is never held twice
    upper = len(pairs) * (n_states // (M * M)) * K.nnz
    indices, data = np.empty(upper, dtype=np.int32), np.empty(upper)
    indptr = np.zeros(n_states + 1, dtype=np.int32)
    step, nnz = max(1, BLOCK_ENTRIES // (len(pairs) * T)), 0
    for x0 in range(0, n_states, step):
        x = np.arange(x0, min(x0 + step, n_states), dtype=np.int32)
        block = None
        for (si, sj), shift in zip(strides, shifts):
            a, b = x // si % M, x // sj % M
            row_width = width[a + M * b]
            ptr = np.zeros(x.size + 1, dtype=np.int32)
            np.cumsum(row_width, out=ptr[1:])
            # entry e of row x is entry K.indptr[a + M*b] + e - ptr[x - x0] of K
            k = (np.repeat(K.indptr[a + M * b] - ptr[:-1], row_width)
                 + np.arange(ptr[-1], dtype=np.int32))
            cols = np.repeat(x - a * si - b * sj, row_width) + shift[k]
            part = sp.csr_matrix((K.data[k], cols, ptr), shape=(x.size, n_states))
            block = part if block is None else block + part
        indices[nnz:nnz + block.nnz] = block.indices
        data[nnz:nnz + block.nnz] = block.data
        indptr[x0 + 1:x0 + x.size + 1] = nnz + block.indptr[1:]
        nnz += block.nnz
    indices.resize(nnz, refcheck=False)  # in place: the unused tail was never touched
    data.resize(nnz, refcheck=False)
    P = sp.csr_matrix((data, indices, indptr), shape=(n_states, n_states))
    return TransitionMatrix(n_particles=N, grid_size=M, P=P, D=D, H=H)


def stationary(tm: TransitionMatrix, tol: float = 1e-12,
               stats: dict | None = None) -> JointDensity:
    """Stationary law by power iteration from the uniform law.

    Stops once successive iterates differ by less than tol in L1 norm; at return
    the residual ||Q*F - F||_1 is below tol. P^T never lengthens an L1 difference
    (Dobrushin), so a gap not below the last means rounding (1e-16 to 1e-14) or a
    non-mixing chain ended the fall: it raises then, even if a later fluctuation
    might meet tol. Sets ``power_iterations`` and ``final_gap`` in ``stats``, if given.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    d, gap = np.full(tm.n_states, 1.0 / tm.n_states), np.inf
    for it in itertools.count(1):
        d_next = tm.rmatvec(d)
        d_next /= d_next.sum()
        last, gap, d = gap, np.abs(d_next - d).sum(), d_next
        if gap < tol:
            if stats is not None:
                stats.update(power_iterations=it, final_gap=float(gap))
            return JointDensity(tm.n_particles, tm.grid_size, d)
        if not gap < last:  # also a NaN gap
            raise RuntimeError(f"power iteration stalled at L1 gap {gap:.3e} after {it} steps")


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


def pair_difference_profile(pair_weights: np.ndarray) -> np.ndarray:
    """Distribution of the cell difference (m1 - m2) mod M of a pair marginal."""
    pw = np.asarray(pair_weights)
    M = pw.shape[0]
    if pw.shape != (M, M):
        raise ValueError("pair marginal must be square")
    m2 = np.arange(M)
    return np.array([pw[(m2 + delta) % M, m2].sum() for delta in range(M)])
