"""Exact finite-state reference for the circle models.

The circle is replaced by the M-point cyclic grid, which turns a model into
a finite Markov chain whose one-jump transition matrix can be assembled
exactly (noise tabulated to cell masses, midpoints via the shared bisector
table). The chain commutes with the permutations of the particles, so it
lumps exactly onto their orbits (Kemeny and Snell, *Finite Markov Chains*,
1960), and every law served here is exchangeable. So a state is one of the
C(M+N-1, N) multisets of cells, an ascending tuple x_0 <= ... <= x_{N-1}
numbered by its colex rank sum_i C(x_i + i, i + 1), and its weight is the
mass of all its orderings. A jump moves a uniformly picked pair, as in Kac's
model: two particles leave the multiset and two come in. Four sparse factors
each take one particle out or put one in, with a seed cell between them (cl:
the leader's cell; bdg: the pair's midpoint); the chain keeps their products
two by two, the two halves of a jump, out (a state to the rest of N - 2
particles and the seed) and into (rest and seed back to a state), and never
forms P = out @ into, which is dense in its rows for bdg. The stationary law
and the generator N*(Q* - I) apply P^T = into^T out^T
(``TransitionMatrix.rmatvec``). All of it is plain sparse linear algebra,
independent of the event-driven simulator, which is what makes this a
trustworthy oracle for small N and M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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

# Caps on the entries a build holds (``_stored_entries``; by ru_maxrss with the stationary
# law, 9 to 34 bytes each over 30 MB, cl N=3, M=64 and N=78, M=4 peaking highest at
# 0.22 GB) and a marginal lists.
BUILD_CAP, ENTRY_CAP = 12 * 2 ** 20, 2 ** 24


def _multisets(N: int, M: int) -> np.ndarray:
    """Every N-multiset of the M cells, ascending down a column: X[i, r] is
    the i-th smallest cell of the state of rank r (shape (0, 1) for N = 0)."""
    n = math.comb(M + N - 1, N)
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(M), N))
    X = np.fromiter(flat, dtype=np.int32, count=n * N).reshape(n, N).T
    return X[:, np.argsort(_rank(X, M))]


def _rank(X, M: int, place: int = 0):
    """Colex rank sum_i C(x_i + i, i + 1) of ascending tuples, or its share from
    places i >= place, whose cells there are the rows of X (any iterable)."""
    rank = 0
    for i, x in enumerate(X, place):
        rank = rank + np.array([math.comb(v + i, i + 1) for v in range(M)], dtype=np.int32)[x]
    return rank


@dataclass(eq=False)
class TransitionMatrix:
    """One-jump chain on the multisets of N cells, kept as the two halves of a
    jump: ``out`` takes a pair out (row: a state; column: the rest of N - 2
    particles times M plus the seed cell) and ``into`` puts two back (row: rest
    and seed; column: a state). The row-stochastic P = out @ into is not stored.
    The halves are CSC so that their transposes, which ``rmatvec`` applies, are
    CSR views of the same arrays, made once with the matrix."""

    n_particles: int
    grid_size: int
    out: sp.csc_matrix
    into: sp.csc_matrix
    _out_T: sp.csr_matrix = field(init=False, repr=False)
    _into_T: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self._out_T, self._into_T = self.out.T, self.into.T

    @property
    def n_states(self) -> int:
        return self.out.shape[0]

    @property
    def P(self) -> sp.csr_matrix:
        """P = out @ into as CSR with unsorted rows, formed on each access (for row
        sums and tests)."""
        return self.out.tocsr() @ self.into.tocsr()

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """P^T w for weights w on the states (the law after one jump)."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_states,):
            raise ValueError(f"weights must be flat with C(M+N-1, N) = {self.n_states} entries")
        return self._into_T @ (self._out_T @ w)


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


def _take_out(k: int, M: int, n_seeds: int, rule) -> sp.csr_matrix:
    """Factor taking one of k particles out, each with weight 1/k: row r * n_seeds
    + a (the state of rank r, seed a) goes to column rank(rest) * M + m with weight
    w for each (m, w) in rule(a, b), b the cell out; equal cells merge."""
    import scipy.sparse as sp

    X, n_rows, out = _multisets(k, M), math.comb(M + k - 1, k) * n_seeds, 0
    rest = np.zeros(X.shape[1], dtype=np.int32) + _rank(X[1:], M)  # without place 0
    for j in range(k):
        if j:  # the gap moves up: x_{j-1} takes place j-1 back from x_j
            rest = rest + _rank(X[j - 1:j], M, j - 1) - _rank(X[j:j + 1], M, j - 1)
        for m, w in rule(np.arange(n_seeds), X[j][:, None]):
            cols, vals = np.broadcast_arrays(rest[:, None] * M + m, np.divide(w, k))
            out = out + sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(n_rows + 1)),
                                      shape=(n_rows, math.comb(M + k - 2, k - 1) * M))
    return out


def _put_in(k: int, M: int, h: np.ndarray, keep_seed: bool) -> sp.csr_matrix:
    """Factor putting one particle into the k-multisets on cell m + z with
    probability h[z], m the seed: row r * M + m (the state of rank r) goes to the
    state with the new cell, times M plus m if keep_seed. One compare-exchange
    pass carries the new cell c up to its place, ranking as it goes."""
    import scipy.sparse as sp

    # int32 cells: this pass's temporaries set the build's peak memory
    m, z = np.arange(M, dtype=np.int32)[:, None], np.flatnonzero(h).astype(np.int32)
    rank, c = 0, (m + z) % M
    for i, x in enumerate(_multisets(k, M)[:, :, None, None]):
        rank, c = rank + _rank([np.minimum(x, c)], M, i), np.maximum(x, c)
    rank, n_cols = rank + _rank([c], M, k), math.comb(M + k, k + 1)
    if keep_seed:
        rank, n_cols = rank * M + m, n_cols * M
    return sp.csr_matrix((np.broadcast_to(h[z], rank.shape).ravel(), rank.ravel(),
                          np.arange(0, rank.size + 1, z.size)), shape=(rank.size // z.size, n_cols))


def _factors(model: ModelSpec, N: int, M: int) -> list:
    """P's factors as they apply: a leaves, then b, and m is a (cl: a leads) or the
    midpoint of (a, b) (bdg: both orders occur, so the antipodal tie splits evenly);
    then one particle lands on m (cl) or m + z (bdg), and one on m + z."""
    g = model.noise.tabulate(M).masses
    if model.kind == "cl":
        rule, first = (lambda a, b: [(a, 1.0)]), np.eye(M)[0]
    else:
        lo, hi, w_hi = bisector_tables(M)
        rule, first = (lambda a, b: [(lo[a, b], 1.0 - w_hi[a, b]), (hi[a, b], w_hi[a, b])]), g
    return [_take_out(N, M, 1, lambda a, b: [(b, 1.0)]), _take_out(N - 1, M, M, rule),
            _put_in(N - 2, M, first, True), _put_in(N - 1, M, g, False)]


def _stored_entries(kind: str, N: int, M: int) -> int:
    """Entries the build holds: the listed states' cells, the four factors' entries
    and bounds on the two halves': out has a column per ordered pair of cells (cl)
    or two per unordered pair (bdg: the midpoint's two cells), into one per landing
    cell (cl: the leader stays on the seed) or unordered pair of cells (bdg)."""
    n_out, n_rest, n_pair = (math.comb(M + N - 1 - i, N - i) for i in range(3))
    pairs = math.comb(M + 1, 2)
    fan, branches, out_row, into_row = ((1, 1, min(N, M) * min(N - 1, M), M) if kind == "cl"
                                        else (M, 2, 2 * min(math.comb(N, 2), pairs), pairs))
    return (n_out * (N + min(N, M) + out_row) + n_pair * M * (fan + into_row)
            + n_rest * M * (min(N - 1, M) * branches + M))


def build_transition(model: ModelSpec, n_particles: int, grid_size: int) -> TransitionMatrix:
    """Assemble the exact one-jump chain on multisets as the two halves of a jump.

    Covers the circle models (cl, bdg); the energy sphere of the kac model
    is not a grid discretization target. Raises, before listing the states,
    if the build would hold more than BUILD_CAP entries (``_stored_entries``).

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
    n_entries = _stored_entries(model.kind, N, M)
    if n_entries > BUILD_CAP:
        raise ValueError(f"state space C(M+N-1, N) = {math.comb(M + N - 1, N)} needs "
                         f"{n_entries} stored entries, over the cap of {BUILD_CAP}")

    out1, out2, in1, in2 = _factors(model, N, M)
    return TransitionMatrix(N, M, (out1 @ out2).tocsc(), (in1 @ in2).tocsc())


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
