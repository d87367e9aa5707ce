"""Exact finite-state reference for the circle models.

The circle is replaced by the M-point cyclic grid, which turns a model into
a finite Markov chain whose one-jump transition matrix can be assembled
exactly (noise tabulated to cell masses, midpoints via the shared bisector
table). A jump moves one of the N(N-1)/2 pairs, picked uniformly as in Kac's
model, by one two-particle kernel K = D @ H (``_pair_factors``: D takes the
pair to a pre-noise state, H applies the noise). The chain commutes with the
permutations of the particles, so it lumps exactly onto their orbits (Kemeny
and Snell, *Finite Markov Chains*, 1960), and every law served here is
exchangeable. So a state is one of the C(M+N-1, N) multisets of cells, an
ascending tuple x_0 <= ... <= x_{N-1} numbered by its colex rank
sum_i C(x_i + i, i + 1), and its weight is the mass of all its orderings.
The stationary law and the generator N*(Q* - I) apply P^T
(``TransitionMatrix.rmatvec``). All of it is plain sparse linear algebra,
independent of the event-driven simulator, which is what makes this a
trustworthy oracle for small N and M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    "check_marginal",
    "pair_difference_profile",
]

# Cap on the entries build_transition lists (C(M+N-1, N) states times N(N-1)/2
# pairs times 2M for cl, M^2 for bdg) and a marginal lists (``check_marginal``).
# Peak resident memory of the build: up to 50 bytes per entry above the
# interpreter's 50 MB (cl N=2); the admitted shape that peaks highest is bdg
# N=2, M=64 at 0.25 GB, while 2^25 would admit cl N=2, M=256 at 0.83 GB.
ENTRY_CAP = 2 ** 24


def _multisets(N: int, M: int) -> np.ndarray:
    """Every N-multiset of the M cells, ascending down a column: X[i, r] is
    the i-th smallest cell of the state of rank r."""
    X = np.array(list(itertools.combinations_with_replacement(range(M), N)), dtype=np.int32).T
    return X[:, np.lexsort(X)]  # the last row is the primary key: colex order


def _rank(X, M: int) -> np.ndarray:
    """Colex rank sum_i C(x_i + i, i + 1) of the ascending tuples with cells X[i]."""
    rank = 0
    for i, x in enumerate(X):
        rank = rank + np.array([math.comb(v + i, i + 1) for v in range(M)], dtype=np.int32)[x]
    return rank


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic one-jump matrix P[x, y] on the multisets of N cells."""

    n_particles: int
    grid_size: int
    P: sp.csr_matrix

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """P^T w for weights w on the states (the law after one jump)."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_states,):
            raise ValueError(f"weights must be flat with C(M+N-1, N) = {self.n_states} entries")
        return self.P.T @ w


@dataclass(eq=False)
class JointDensity:
    """Probability weights on the multisets of N cells in rank order, summing to 1."""

    n_particles: int
    grid_size: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (math.comb(self.grid_size + self.n_particles - 1, self.n_particles),):
            raise ValueError("weights must be flat with C(M+N-1, N) entries")
        if not np.isfinite(w).all() or w.min() < -1e-15 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a finite probability vector")
        self.weights = w

    @classmethod
    def product(cls, n_particles: int, cell_masses: np.ndarray) -> "JointDensity":
        """Product (chaotic) law with the same single-coordinate masses: the
        multinomial N! / prod_c n_c! * prod_i m[x_i]."""
        m = np.asarray(cell_masses, dtype=float)
        X = _multisets(n_particles, m.size)
        run = repeats = 1.0  # prod_c n_c!, as prod_i #{i' <= i: x_i' = x_i}
        for lo, hi in zip(X[:-1], X[1:]):
            run = np.where(hi == lo, run + 1, 1.0)
            repeats = repeats * run
        return cls(n_particles, m.size, math.factorial(n_particles) / repeats * m[X].prod(axis=0))


def _sparse(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR from (row, column, value) triplets, leaving out zero values."""
    import scipy.sparse as sp

    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _pair_factors(model: ModelSpec, M: int):
    """The two-particle kernel of an ordered pair as K = D @ H, both CSR.
    Pair cells (a, b) and targets (c, d) are indexed a + M*b.

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
    """Assemble the exact one-jump transition matrix on multisets.

    Covers the circle models (cl, bdg); the energy sphere of the kac model
    is not a grid discretization target. Raises, before listing the states,
    if the assembly would list more than ENTRY_CAP matrix entries.

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
    n_states = math.comb(M + N - 1, N)
    pairs = list(itertools.combinations(range(N), 2))
    n_entries = n_states * len(pairs) * (2 * M if model.kind == "cl" else M * M)
    if n_entries > ENTRY_CAP:
        raise ValueError(f"state space C(M+N-1, N) = {n_states} needs {n_entries} matrix "
                         f"entries, over the cap of {ENTRY_CAP}")

    # the kernel of an unordered pair to an unordered pair: a row for each
    # pair a <= b, in rank order, with D's rows (a, b) and (b, a) averaged,
    # which splits bdg's antipodal tie evenly between both quarter turns, and
    # H's targets (c, d) and (d, c) summed onto c <= d
    D, H = _pair_factors(model, M)
    lo, hi = _multisets(2, M)
    d, c = np.divmod(np.arange(M * M), M)
    H = sp.csr_matrix((H.data, (np.minimum(c, d) + M * np.maximum(c, d))[H.indices], H.indptr),
                      shape=H.shape)
    K = (0.5 * (D[lo + M * hi] + D[hi + M * lo])) @ H
    X, P = _multisets(N, M), None
    for i, j in pairs:
        # entry e of Kx moves the cells (x_i, x_j) of its state to (c[e], d[e]),
        # landing in the state whose cells Y holds
        Kx = K[_rank(X[[i, j]], M)]
        d, c = np.divmod(Kx.indices, M)
        Y = [c, d] + [np.repeat(X[k], np.diff(Kx.indptr)) for k in range(N) if k not in (i, j)]
        for r in range(N):  # sort Y's tuples: N rounds of odd-even transposition
            for a in range(r % 2, N - 1, 2):
                Y[a], Y[a + 1] = np.minimum(Y[a], Y[a + 1]), np.maximum(Y[a], Y[a + 1])
        Kx = sp.csr_matrix((Kx.data, _rank(Y, M), Kx.indptr), shape=(n_states, n_states))
        Kx.sum_duplicates()
        P = Kx if P is None else P + Kx
    P.data *= 2.0 / (N * (N - 1))
    return TransitionMatrix(n_particles=N, grid_size=M, P=P)


def stationary(tm: TransitionMatrix, tol: float = 1e-12,
               stats: dict | None = None) -> JointDensity:
    """Stationary law by power iteration from the uniform law (on multisets,
    the multinomial of i.i.d. uniform cells).

    Stops once successive iterates differ by less than tol in L1 norm; at return
    the residual ||Q*F - F||_1 is below tol. P^T never lengthens an L1 difference
    (Dobrushin), so a gap not below the last means rounding (1e-16 to 1e-14) or a
    non-mixing chain ended the fall: it raises then, even if a later fluctuation
    might meet tol. Sets ``power_iterations`` and ``final_gap`` in ``stats``, if given.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    uniform = np.full(tm.grid_size, 1.0 / tm.grid_size)
    d, gap = JointDensity.product(tm.n_particles, uniform).weights, np.inf
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


def check_marginal(n_particles: int, grid_size: int, coords: Sequence[int]) -> None:
    """Raise ValueError unless coords are k distinct coordinates in 0..N-1 and
    the marginal on them lists at most ENTRY_CAP entries: N!/(N-k)! ordered
    draws from each of the C(M+N-1, N) states, and M^k cells."""
    coords = list(coords)
    N, M, k = n_particles, grid_size, len(coords)
    if not coords or len(set(coords)) != k or min(coords) < 0 or max(coords) >= N:
        raise ValueError(f"coordinates must be distinct and in 0..{N - 1}, got {coords!r}")
    n_entries = math.perm(N, k) * math.comb(M + N - 1, N) + M ** k
    if n_entries > ENTRY_CAP:
        raise ValueError(f"a marginal on {k} coordinates lists {n_entries} entries, "
                         f"over the cap of {ENTRY_CAP}")


def marginal(d: JointDensity, coords: Sequence[int]) -> np.ndarray:
    """Marginal weights on the given coordinates, one axis per coordinate.

    The law is exchangeable, so only k = len(coords) matters: it is the law
    of k particles drawn in order without replacement from each multiset.
    Raises (``check_marginal``) before allocating.
    """
    check_marginal(d.n_particles, d.grid_size, coords)
    N, M, k = d.n_particles, d.grid_size, len(coords)
    X = _multisets(N, M)
    drawn = sum(np.bincount(np.ravel_multi_index(X[list(p)], (M,) * k), d.weights, minlength=M ** k)
                for p in itertools.permutations(range(N), k))
    return drawn.reshape((M,) * k) / math.perm(N, k)


def pair_difference_profile(pair_weights: np.ndarray) -> np.ndarray:
    """Distribution of the cell difference (m1 - m2) mod M of a pair marginal."""
    pw = np.asarray(pair_weights)
    M = pw.shape[0]
    if pw.shape != (M, M):
        raise ValueError("pair marginal must be square")
    m2 = np.arange(M)
    return np.array([pw[(m2 + delta) % M, m2].sum() for delta in range(M)])
