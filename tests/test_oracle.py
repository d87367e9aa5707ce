import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from pairjump import oracle
from pairjump.circle import TabulatedNoise, UniformNoise, WrappedNormalNoise
from pairjump.invariant import pair_correlation_closed
from pairjump.kinetic import bisector_tables
from pairjump.models import ModelSpec
from pairjump.oracle import (
    JointDensity,
    _factors,
    _put_in,
    _stored_entries,
    build_transition,
    marginal,
    pair_difference_profile,
    stationary,
)


def tabulated_wn(sigma2, M):
    return TabulatedNoise(WrappedNormalNoise(sigma2).tabulate(M).values)


def noise_masses(g, M):
    return g.tabulate(M).masses


def direct_cl_matrix(M, g_mass):
    """Dense N=2 CL kernel built straight from the definition: fair coin picks
    the leader, follower lands on leader + z with z ~ g."""
    P = np.zeros((M * M, M * M))
    for i in range(M):
        for j in range(M):
            x = i + M * j
            for z in range(M):
                P[x, i + M * ((i + z) % M)] += 0.5 * g_mass[z]      # i leads
                P[x, (j + z) % M + M * j] += 0.5 * g_mass[z]        # j leads
    return P


def direct_bdg_matrix(M, g_mass):
    """Dense N=2 BDG kernel: both members move to midpoint + independent
    noise, with boundary midpoints split over the two adjacent cells."""
    lo, hi, w_hi = bisector_tables(M)
    P = np.zeros((M * M, M * M))
    for i in range(M):
        for j in range(M):
            x = i + M * j
            for mid, q in ((lo[i, j], 1.0 - w_hi[i, j]), (hi[i, j], w_hi[i, j])):
                if q == 0.0:
                    continue
                for wi in range(M):
                    a = (mid + wi) % M
                    for wj in range(M):
                        b = (mid + wj) % M
                        P[x, a + M * b] += q * g_mass[wi] * g_mass[wj]
    return P


def lifted_pair_sum(K, N, M):
    """Dense (2/(N(N-1))) * sum over i < j of the N=2 kernel K acting on
    coordinates (i, j) and the identity on the others, in state order."""
    K4 = K.reshape((M,) * 4, order="F")  # K4[x_i, x_j, y_i, y_j]
    xs, ys = "abcdef"[:N], "ABCDEF"[:N]
    T = np.zeros((M,) * (2 * N))
    for i, j in itertools.combinations(range(N), 2):
        terms = [xs[i] + xs[j] + ys[i] + ys[j]]
        terms += [xs[k] + ys[k] for k in range(N) if k not in (i, j)]
        ops = [K4] + [np.eye(M)] * (N - 2)
        T += np.einsum(",".join(terms) + "->" + xs + ys, *ops)
    return 2.0 / (N * (N - 1)) * T.reshape(M ** N, M ** N, order="F")


def sorted_assembly(model, N, M):
    """P as assembled before the pair kernel was factored: every (state, pair,
    target) entry listed with int64 columns, then one global sum_duplicates."""
    g = model.noise.tabulate(M).masses
    if model.kind == "cl":
        a, b, z = np.broadcast_arrays(*np.ix_(range(M), range(M), range(M)))
        C = np.concatenate([a, (b + z) % M], axis=2)
        D = np.concatenate([(a + z) % M, b], axis=2)
        W = np.broadcast_to(np.concatenate([g, g]) / 2, C.shape)
    else:
        lo, hi, w_hi = bisector_tables(M)
        G = g[(np.arange(M)[None, :] - np.arange(M)[:, None]) % M]
        W = sum(q[:, :, None, None] * G[mid][:, :, :, None] * G[mid][:, :, None, :]
                for mid, q in ((lo, 1.0 - w_hi), (hi, w_hi))).reshape(M, M, M * M)
        C, D = np.broadcast_arrays(*np.divmod(np.arange(M * M), M), W)[:2]
    pairs = list(itertools.combinations(range(N), 2))
    T = C.shape[2]
    x = np.arange(M ** N, dtype=np.int64)
    stride = M ** np.arange(N, dtype=np.int64)
    digit = (x[:, None] // stride) % M
    cols = np.empty((M ** N, len(pairs), T), dtype=np.int64)
    vals = np.empty((M ** N, len(pairs), T))
    for p, (i, j) in enumerate(pairs):
        di, dj = digit[:, i], digit[:, j]
        base = x - di * stride[i] - dj * stride[j]
        cols[:, p] = base[:, None] + C[di, dj] * stride[i] + D[di, dj] * stride[j]
        vals[:, p] = 2.0 / (N * (N - 1)) * W[di, dj]
    indptr = np.arange(0, cols.size + 1, len(pairs) * T)
    P = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(M ** N, M ** N))
    P.sum_duplicates()
    return P


def multiset_ranks(N, M):
    """The multiset of each labelled state (first coordinate fastest), as its
    index among the multisets in colex order: by the largest cell, then the next."""
    order = sorted(itertools.combinations_with_replacement(range(M), N), key=lambda t: t[::-1])
    rank = {t: r for r, t in enumerate(order)}
    return np.array([rank[tuple(sorted(s // M ** c % M for c in range(N)))]
                     for s in range(M ** N)])


def lump(P, N, M):
    """A labelled matrix on the M^N states lumped onto multisets: from each
    multiset, the mean over its orderings of the mass sent into each multiset.
    For bdg, whose labelled kernel breaks the antipodal tie toward the first of
    the pair, that mean is the even split between both orders of each pair."""
    r = multiset_ranks(N, M)
    U = sp.csr_matrix((np.ones(M ** N), (np.arange(M ** N), r)))
    return (sp.diags(1.0 / np.bincount(r)) @ (U.T @ sp.csr_matrix(P) @ U)).toarray()


def lump_weights(w, N, M):
    """Labelled weights summed over each multiset's orderings."""
    return np.bincount(multiset_ranks(N, M), w)


def symmetrized(T):
    """The mean of T over all permutations of its axes."""
    perms = list(itertools.permutations(range(T.ndim)))
    return sum(T.transpose(p) for p in perms) / len(perms)


OPERATOR_SIZES = [(2, 8), (3, 8), (3, 16), (4, 8)]


def colex_multisets(k, M):
    """The k-multisets of M cells as ascending tuples, in colex order."""
    return sorted(itertools.combinations_with_replacement(range(M), k), key=lambda t: t[::-1])


def summed_take_out(k, M, n_seeds, rule):
    """A take-out factor as a running sum of CSR matrices, one per particle j and
    rule branch with one entry a row, ranked through the colex listing: each sum
    adds a column's entries in that order and drops the zeros."""
    states = colex_multisets(k, M)
    rank = {t: r for r, t in enumerate(colex_multisets(k - 1, M))}
    X = np.array(states, dtype=np.int32).reshape(len(states), k).T
    n_rows, out = len(states) * n_seeds, 0
    for j in range(k):
        rest = np.array([rank[t[:j] + t[j + 1:]] for t in states], dtype=np.int32)
        for m, w in rule(np.arange(n_seeds), X[j][:, None]):
            cols, vals = np.broadcast_arrays(rest[:, None] * M + m, np.divide(w, k))
            out = out + sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(n_rows + 1)),
                                      shape=(n_rows, len(rank) * M))
    return out


def summed_factors(model, N, M):
    """The four factors, the two that take a particle out from summed_take_out."""
    if model.kind == "cl":
        rule = lambda a, b: [(a, 1.0)]  # noqa: E731
    else:
        lo, hi, w_hi = bisector_tables(M)
        rule = lambda a, b: [(lo[a, b], 1.0 - w_hi[a, b]), (hi[a, b], w_hi[a, b])]  # noqa: E731
    return [summed_take_out(N, M, 1, lambda a, b: [(b, 1.0)]), summed_take_out(N - 1, M, M, rule),
            *_factors(model, N, M)[2:]]


class TestPairFactors:
    # a jump is two particles out and two in: P = out1 @ out2 @ in1 @ in2
    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    def test_product_is_the_dense_kernel(self, kind):
        # at N = 2 the rest between the factors is the one empty multiset
        M = 8
        g = tabulated_wn(0.5, M)
        out1, out2, in1, in2 = _factors(ModelSpec(kind, g), 2, M)
        assert out2.shape == (M * M, M) and in1.shape == (M, M * M)
        direct = direct_cl_matrix if kind == "cl" else direct_bdg_matrix
        want = lump(direct(M, noise_masses(g, M)), 2, M)
        assert np.abs((out1 @ out2 @ in1 @ in2).toarray() - want).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("M", [16, 64])
    def test_factor_rows_and_nnz(self, kind, M):
        # stochastic factors; with the two halves they hold no more than the cap counts
        N = 3 if M == 16 else 2  # N = 3 on 64 cells is over the cap for bdg
        model = ModelSpec(kind, tabulated_wn(0.5, M))
        factors = _factors(model, N, M)
        for f in factors:
            assert_allclose(np.asarray(f.sum(axis=1)).ravel(), 1.0, rtol=0, atol=1e-15)
        tm = build_transition(model, N, M)
        held = tm.n_states * N + sum(f.nnz for f in factors) + tm.out.nnz + tm.into.nnz
        assert held <= _stored_entries(kind, N, M)

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("N, M", [(2, 4), (3, 16), (4, 8), (5, 8), (12, 2), (9, 4)])
    def test_take_out_factors_match_the_summed_build_byte_for_byte(self, kind, N, M):
        # one CSR build per factor: particles on one cell share a slot, whose
        # weights add in particle order as the running sum adds them (cl 12x2 and
        # 9x4 have runs of up to 12 equal cells)
        model = ModelSpec(kind, tabulated_wn(0.5, M))
        got, want = _factors(model, N, M), summed_factors(model, N, M)
        for f, ref in zip(got[:2], want[:2]):
            assert f.format == "csr" and f.shape == ref.shape and f.has_canonical_format
            for name in ("indptr", "indices", "data"):
                a, b = getattr(f, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for f in got:
            assert np.all(f.data != 0.0)  # no stored zeros, such as bdg's w_hi = 0 branch

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("N, M", [(3, 16), (4, 8)])
    def test_reference_stationary_law_matches_the_summed_build(self, kind, N, M):
        model = ModelSpec(kind, tabulated_wn(0.5, M))
        out1, out2, in1, in2 = summed_factors(model, N, M)
        want = stationary(oracle.TransitionMatrix(N, M, (out1 @ out2).tocsc(),
                                                  (in1 @ in2).tocsc()))
        got = stationary(build_transition(model, N, M))
        assert got.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("M", [4, 8])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_insertion_ranks_like_sorting(self, k, M):
        # the compare-exchange pass and _rank against sorted() and the colex index
        h = np.random.default_rng(k * M).random(M)
        rank = {t: r for r, t in enumerate(colex_multisets(k + 1, M))}
        rows = colex_multisets(k, M)
        want = np.zeros((len(rows) * M, len(rank)))
        seeded = np.zeros((len(rows) * M, len(rank) * M))
        for r, t in enumerate(rows):
            for m in range(M):
                for z in range(M):
                    y = rank[tuple(sorted(t + ((m + z) % M,)))]
                    want[r * M + m, y] += h[z]
                    seeded[r * M + m, y * M + m] += h[z]
        assert_array_equal(_put_in(k, M, h, False).toarray(), want)
        assert_array_equal(_put_in(k, M, h, True).toarray(), seeded)

    def test_empty_multiset(self):
        X = oracle._multisets(0, 5)
        assert X.shape == (0, 1)  # one state, with no cells
        assert oracle._rank(X, 5) == 0

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("N, M", OPERATOR_SIZES)
    def test_rmatvec_matches_transposed_matrix(self, kind, N, M):
        # the two halves against the four factors multiplied out in order
        model = ModelSpec(kind, tabulated_wn(0.5, M))
        out1, out2, in1, in2 = _factors(model, N, M)
        tm = build_transition(model, N, M)
        w = np.random.default_rng(N * M).random(tm.n_states)
        assert np.abs(tm.rmatvec(w) - (out1 @ out2 @ in1 @ in2).T @ w).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    def test_rmatvec_applies_transposes_kept_with_the_matrix(self, kind, monkeypatch):
        # out^T and into^T are CSR views of the halves' own arrays, made with
        # the matrix: a power step transposes nothing and gives the same bits
        tm = build_transition(ModelSpec(kind, tabulated_wn(0.5, 8)), 4, 8)
        w = np.random.default_rng(5).random(tm.n_states)
        want = tm.into.T @ (tm.out.T @ w)
        for half, kept in ((tm.out, tm._out_T), (tm.into, tm._into_T)):
            assert kept.format == "csr" and kept.shape == half.shape[::-1]
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(kept, name), getattr(half, name))

        def no_transpose(self, *args, **kwargs):
            raise AssertionError("rmatvec transposed a half")

        monkeypatch.setattr(type(tm.out), "transpose", no_transpose)
        kept = tm._out_T, tm._into_T
        for _ in range(2):
            assert tm.rmatvec(w).tobytes() == want.tobytes()
            assert tm._out_T is kept[0] and tm._into_T is kept[1]

    def test_rmatvec_rejects_wrong_length(self):
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, 4)), 3, 4)
        assert tm.n_states == 20  # C(6, 3) multisets, against 4^3 labelled states
        with pytest.raises(ValueError, match="20"):
            tm.rmatvec(np.ones(19))

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("N, M", OPERATOR_SIZES)
    def test_matches_sorted_assembly(self, kind, N, M):
        model = ModelSpec(kind, tabulated_wn(0.5, M))
        P = build_transition(model, N, M).P
        assert P.indices.dtype == np.int32
        assert np.abs(P.toarray() - lump(sorted_assembly(model, N, M), N, M)).max() <= 1e-14


class TestBuildTransition:
    def test_cl_rows_stochastic(self):
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, 8)), 2, 8)
        rows = np.asarray(tm.P.sum(axis=1)).ravel()
        assert_allclose(rows, 1.0, rtol=0, atol=1e-12)

    def test_cl_uniform_doubly_stochastic(self):
        # the labelled chain is doubly stochastic, so it keeps the uniform
        # law; on multisets that is the multinomial of i.i.d. uniform cells,
        # 1/4, 1/2, 1/4 on {0, 0}, {0, 1}, {1, 1}
        tm = build_transition(ModelSpec("cl", UniformNoise()), 2, 2)
        labelled = direct_cl_matrix(2, noise_masses(UniformNoise(), 2))
        assert_allclose(labelled.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        assert_allclose(tm.rmatvec([0.25, 0.5, 0.25]), [0.25, 0.5, 0.25], rtol=0, atol=1e-15)
        f = stationary(tm)
        assert_allclose(f.weights, [0.25, 0.5, 0.25], rtol=0, atol=1e-12)

    def test_cl_matches_direct_kernel(self):
        M = 8
        g = tabulated_wn(0.5, M)
        tm = build_transition(ModelSpec("cl", g), 2, M)
        want = lump(direct_cl_matrix(M, noise_masses(g, M)), 2, M)
        assert np.abs(tm.P.toarray() - want).max() <= 1e-14

    def test_bdg_matches_direct_kernel(self):
        M = 8
        g = tabulated_wn(0.5, M)
        tm = build_transition(ModelSpec("bdg", g), 2, M)
        want = lump(direct_bdg_matrix(M, noise_masses(g, M)), 2, M)
        assert np.abs(tm.P.toarray() - want).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    @pytest.mark.parametrize("N, M", [(3, 8), (4, 4)])
    def test_matches_lifted_pair_sum(self, kind, N, M):
        g = tabulated_wn(0.5, M)
        direct = direct_cl_matrix if kind == "cl" else direct_bdg_matrix
        want = lump(lifted_pair_sum(direct(M, noise_masses(g, M)), N, M), N, M)
        tm = build_transition(ModelSpec(kind, g), N, M)
        assert np.abs(tm.P.toarray() - want).max() <= 1e-14

    def test_preserves_symmetry(self):
        # Kemeny-Snell: one labelled jump of an exchangeable law, lumped, is
        # one jump of the lumped chain. bdg's labelled kernel breaks the
        # antipodal tie toward the first of the pair, yet keeps exchangeable
        # laws exchangeable: its lumping splits the tie evenly
        M, N = 8, 3
        w = symmetrized(np.random.default_rng(1).random((M,) * N)).ravel(order="F")
        w /= w.sum()
        for kind in ("cl", "bdg"):
            model = ModelSpec(kind, tabulated_wn(0.5, M))
            out = (sorted_assembly(model, N, M).T @ w).reshape((M,) * N, order="F")
            assert np.abs(out - symmetrized(out)).max() <= 1e-17
            tm = build_transition(model, N, M)
            want = lump_weights(out.ravel(order="F"), N, M)
            assert np.abs(tm.rmatvec(lump_weights(w, N, M)) - want).max() <= 1e-15

    def test_preserves_mass_and_positivity(self):
        M = 8
        tm = build_transition(ModelSpec("bdg", tabulated_wn(0.3, M)), 2, M)
        rng = np.random.default_rng(2)
        w = rng.random(tm.n_states)
        w /= w.sum()
        out = tm.P.T @ w
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.min() >= 0.0

    def test_state_cap(self):
        # 170544 multisets of 7 particles on 16 cells: their cells, the factors
        # and up to 7 * 6 ordered pairs a row of out would hold 32.9M entries
        with pytest.raises(ValueError, match="32868480"):
            build_transition(ModelSpec("cl", UniformNoise()), 7, 16)

    def test_entry_cap_refuses_bdg_before_assembly(self, monkeypatch):
        # C(21, 6) = 54264 states is small, but each rest and seed of into may
        # land on 136 unordered pairs of cells: 18.2M entries held
        def unlisted(*args):
            raise AssertionError("states listed before the cap was checked")

        monkeypatch.setattr(oracle, "_multisets", unlisted)
        with pytest.raises(ValueError, match="18155184"):
            build_transition(ModelSpec("bdg", UniformNoise()), 6, 16)

    def test_admits_bdg_five_particles_on_sixteen_cells(self):
        # refused while P was stored (22.9M entries counted); its halves hold 1.9M
        M, N = 16, 5
        assert _stored_entries("bdg", N, M) <= oracle.BUILD_CAP
        tm = build_transition(ModelSpec("bdg", WrappedNormalNoise(0.2)), N, M)
        f = stationary(tm)
        assert tm.n_states == 15504
        assert np.abs(tm.rmatvec(f.weights) - f.weights).sum() < 1e-12
        assert_allclose(marginal(f, [0]), 1.0 / M, rtol=0, atol=1e-12)
        # above the alignment threshold the law is not chaotic: C_1 = 0.7099
        prof = pair_difference_profile(marginal(f, [0, 1]))
        c1 = np.exp(-2j * np.pi * np.arange(M) / M) @ prof
        assert abs(c1.real - 0.70993) < 1e-5

    @pytest.mark.parametrize("kind", ["cl", "bdg"])
    def test_cap_admits_every_shape_the_pair_listing_did(self, kind):
        # the former cap: states * pairs * (2M for cl, M^2 for bdg) <= 2^24
        for M in (2, 4, 8, 16, 32, 64, 128):
            targets, N = 2 * M if kind == "cl" else M * M, 2
            while math.comb(M + N - 1, N) * math.comb(N, 2) * targets <= 2 ** 24:
                assert _stored_entries(kind, N, M) <= oracle.BUILD_CAP, (N, M)
                N += 1

    def test_kac_rejected(self):
        with pytest.raises(ValueError):
            build_transition(ModelSpec("kac", UniformNoise()), 2, 8)


class TestStationary:
    def test_uniform_noise_gives_uniform(self):
        tm = build_transition(ModelSpec("cl", UniformNoise()), 3, 8)
        f = stationary(tm)
        uniform = JointDensity.product(3, np.full(8, 1.0 / 8))
        assert_allclose(f.weights, uniform.weights, rtol=0, atol=1e-12)

    def test_residual_below_tol(self):
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, 16)), 3, 16)
        f = stationary(tm, tol=1e-12)
        res = np.abs(tm.P.T @ f.weights - f.weights).sum()
        assert res < 1e-12

    def test_one_variable_marginal_uniform(self):
        M = 16
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, M)), 3, M)
        f = stationary(tm)
        m1 = marginal(f, [0])
        assert_allclose(m1, 1.0 / M, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("kind,N,M,steps", [
        ("cl", 3, 16, 53), ("cl", 4, 8, 98), ("bdg", 3, 16, 45), ("bdg", 4, 8, 83)])
    def test_reference_shape_iteration_counts(self, kind, N, M, steps):
        stats = {}
        stationary(build_transition(ModelSpec(kind, tabulated_wn(0.5, M)), N, M), stats=stats)
        assert stats["power_iterations"] == steps

    def test_unreachable_tol_stalls_within_a_thousand_steps(self, monkeypatch):
        # the gap falls strictly from the uniform start until rounding stops
        # it; the bound makes a run that would grind on fail fast instead
        assert not hasattr(oracle, "MAX_POWER_ITERATIONS")
        tm = build_transition(ModelSpec("bdg", WrappedNormalNoise(0.5)), 4, 8)
        seen, rmatvec = [], type(tm).rmatvec

        def bounded(self, w):
            if len(seen) == 1000:
                raise AssertionError("power iteration ran past 1000 steps")
            seen.append(w.copy())
            return rmatvec(self, w)

        monkeypatch.setattr(type(tm), "rmatvec", bounded)
        with pytest.raises(RuntimeError, match="stalled at L1 gap") as refused:
            stationary(tm, tol=1e-300)
        assert f"after {len(seen)} steps" in str(refused.value)
        assert_array_equal(seen[0], JointDensity.product(4, np.full(8, 1.0 / 8)).weights)
        gaps = [np.abs(b - a).sum() for a, b in zip(seen, seen[1:])]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-14

    def test_non_mixing_chain_is_refused_at_once(self):
        # 0 -> 1, 1 -> 0, 2 -> 0: periodic, so the gap never falls
        P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        calls = []

        class Periodic:
            n_particles, grid_size, n_states = 1, 3, 3

            def rmatvec(self, w):
                calls.append(1)
                assert len(calls) <= 3, "power iteration ran past 3 steps"
                return P.T @ w

        with pytest.raises(RuntimeError, match="stalled at L1 gap 6.667e-01 after 2 steps"):
            stationary(Periodic())
        assert len(calls) == 2

    def test_pair_correlation_at_four_particles(self):
        # A1's check at N=4: the exact stationary pair correlation equals
        # the closed form up to the power iteration's tolerance
        M, N = 16, 4
        g = tabulated_wn(0.5, M)
        f = stationary(build_transition(ModelSpec("cl", g), N, M))
        prof = pair_difference_profile(marginal(f, [0, 1]))
        theta = np.arange(M) * (2 * np.pi / M)
        emp = (np.exp(-1j * np.outer(np.arange(5), theta)) @ prof).real
        closed = pair_correlation_closed(g, N, 4).fhat
        assert np.abs(emp[1:] - closed[1:]).max() < 1e-9

    def test_pair_correlation_at_five_particles(self):
        # beyond the M^N labelled chain's reach (335M entries): 15504 multisets
        M, N = 16, 5
        g = tabulated_wn(0.5, M)
        f = stationary(build_transition(ModelSpec("cl", g), N, M))
        prof = pair_difference_profile(marginal(f, [0, 1]))
        theta = np.arange(M) * (2 * np.pi / M)
        emp = (np.exp(-1j * np.outer(np.arange(5), theta)) @ prof).real
        closed = pair_correlation_closed(g, N, 4).fhat
        assert np.abs(emp[1:] - closed[1:]).max() < 1e-9

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_rejects_bad_tolerance_before_iterating(self, tol, monkeypatch):
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, 4)), 2, 4)

        def no_work(self, d):
            raise AssertionError("iterated")

        monkeypatch.setattr(type(tm), "rmatvec", no_work)
        with pytest.raises(ValueError, match="tol"):
            stationary(tm, tol=tol)

    def test_stats_record_iterations_and_final_gap(self, monkeypatch):
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, 8)), 3, 8)
        stats = {"power_iterations": -1}
        f = stationary(tm, tol=1e-10, stats=stats)
        assert set(stats) == {"power_iterations", "final_gap"}
        assert 0.0 <= stats["final_gap"] < 1e-10
        # one rmatvec per step, and the gap first falls below tol at the last
        seen, rmatvec = [], type(tm).rmatvec

        def recording(self, w):
            seen.append(w.copy())
            return rmatvec(self, w)

        monkeypatch.setattr(type(tm), "rmatvec", recording)
        assert f.weights.tobytes() == stationary(tm, tol=1e-10).weights.tobytes()
        assert len(seen) == stats["power_iterations"]
        gaps = [np.abs(b - a).sum() for a, b in zip(seen, seen[1:] + [f.weights])]
        assert min(gaps[:-1]) >= 1e-10 and gaps[-1] == stats["final_gap"]

    def test_n2_stationary_in_one_step(self):
        # for N=2 the pair-difference law of the stationary density is the
        # noise itself, reached after a single jump from independence
        M = 8
        g = tabulated_wn(0.5, M)
        tm = build_transition(ModelSpec("cl", g), 2, M)
        stats = {}
        f = stationary(tm, tol=1e-12, stats=stats)
        assert stats["power_iterations"] == 2  # one jump, then a step that moves nothing
        prof = pair_difference_profile(marginal(f, [0, 1]))
        assert_allclose(prof, noise_masses(g, M), rtol=0, atol=1e-12)

    def test_pair_marginal_translation_invariant(self):
        M = 16
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, M)), 3, M)
        f = stationary(tm)
        pw = marginal(f, [0, 1])
        prof = pair_difference_profile(pw)
        for d in range(M):
            col = np.array([pw[(m2 + d) % M, m2] for m2 in range(M)])
            assert_allclose(col, prof[d] / M, rtol=0, atol=1e-10)

    def test_bdg_stationary_exists(self):
        M = 8
        tm = build_transition(ModelSpec("bdg", tabulated_wn(0.5, M)), 2, M)
        f = stationary(tm, tol=1e-12)
        res = np.abs(tm.P.T @ f.weights - f.weights).sum()
        assert res < 1e-12
        assert f.weights.min() > 0.0


class TestMarginal:
    def test_product_density_factorizes(self):
        M = 8
        rng = np.random.default_rng(3)
        m = rng.random(M)
        m /= m.sum()
        d = JointDensity.product(3, m)
        assert_allclose(marginal(d, [0]), m, rtol=0, atol=1e-14)
        assert_allclose(marginal(d, [2]), m, rtol=0, atol=1e-14)
        assert_allclose(marginal(d, [0, 2]), np.outer(m, m), rtol=0, atol=1e-14)

    def test_marginal_over_all_is_identity(self):
        # on all coordinates, the labelled law: each multiset's mass spread
        # evenly over its orderings
        M, N = 4, 3
        rng = np.random.default_rng(4)
        w = rng.random(math.comb(M + N - 1, N))
        w /= w.sum()
        rank = multiset_ranks(N, M).reshape((M,) * N, order="F")
        orderings = np.bincount(rank.ravel())
        want = w[rank] / orderings[rank]
        assert_allclose(marginal(JointDensity(N, M, w), [0, 1, 2]), want, rtol=0, atol=1e-17)

    def test_order_respected(self):
        M = 4
        rng = np.random.default_rng(5)
        w = rng.random(math.comb(M + 1, 2))
        w /= w.sum()
        d = JointDensity(2, M, w)
        a = marginal(d, [0, 1])
        b = marginal(d, [1, 0])
        assert_allclose(a, b.T, rtol=0, atol=1e-17)

    def test_depends_only_on_how_many_coordinates(self):
        M = 8
        tm = build_transition(ModelSpec("bdg", tabulated_wn(0.5, M)), 4, M)
        f = stationary(tm)
        for k in (1, 2, 3):
            want = marginal(f, list(range(k)))
            for coords in itertools.permutations(range(4), k):
                assert_array_equal(marginal(f, coords), want)
        pair = marginal(f, [0, 1])
        assert_allclose(pair, pair.T, rtol=0, atol=1e-17)

    def test_normalization_preserved(self):
        M = 8
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, M)), 3, M)
        f = stationary(tm)
        assert marginal(f, [1]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_coords(self):
        d = JointDensity.product(2, np.full(4, 0.25))
        with pytest.raises(ValueError):
            marginal(d, [])
        with pytest.raises(ValueError):
            marginal(d, [0, 0])
        with pytest.raises(ValueError):
            marginal(d, [2])

    def test_cap_refuses_before_listing_states(self, monkeypatch):
        # 12!/2! ordered draws of 10 from each of the 455 states
        d = JointDensity.product(12, np.full(4, 0.25))

        def unlisted(*args):
            raise AssertionError("states listed before the cap was checked")

        monkeypatch.setattr(oracle, "_multisets", unlisted)
        with pytest.raises(ValueError, match="over the cap"):
            marginal(d, range(10))


def generator(tm, d):
    """Master-equation right-hand side N * (Q* d - d) as flat signed weights."""
    return tm.n_particles * (tm.rmatvec(d.weights) - d.weights)


class TestGenerator:
    def test_annihilates_stationary(self):
        M = 16
        tm = build_transition(ModelSpec("cl", tabulated_wn(0.5, M)), 2, M)
        f = stationary(tm, tol=1e-12)
        out = generator(tm, f)
        assert np.abs(out).sum() < 2 * 1e-12

    def test_mass_conservation(self):
        M = 8
        tm = build_transition(ModelSpec("bdg", tabulated_wn(0.3, M)), 2, M)
        rng = np.random.default_rng(6)
        w = rng.random(tm.n_states)
        w /= w.sum()
        out = generator(tm, JointDensity(2, M, w))
        assert abs(out.sum()) < 1e-12

    def test_uniform_noise_uniformizes_any_start(self):
        # with uniform g the only stationary density is uniform: the jump
        # law iterated from arbitrary densities lands there, and the
        # generator vanishes on the limit
        M = 8
        tm = build_transition(ModelSpec("cl", UniformNoise()), 2, M)
        rng = np.random.default_rng(7)
        uniform = JointDensity.product(2, np.full(M, 1.0 / M))
        for _ in range(5):
            w = rng.random(tm.n_states)
            w /= w.sum()
            for _ in range(100):
                w = tm.rmatvec(w)
            f = JointDensity(2, M, w)
            assert_allclose(f.weights, uniform.weights, rtol=0, atol=1e-12)
            assert np.abs(generator(tm, f)).sum() < 2 * 1e-12


class TestJointDensity:
    def test_states_in_colex_order(self):
        # by the largest cell, then the next: {0,0}, {0,1}, {1,1}, {0,2}, ...
        X = oracle._multisets(2, 3)
        assert X.T.tolist() == [[0, 0], [0, 1], [1, 1], [0, 2], [1, 2], [2, 2]]
        assert_array_equal(oracle._rank(X, 3), np.arange(6))

    @pytest.mark.parametrize("N, M", [(0, 5), (1, 4), (3, 4), (4, 8), (2, 16), (6, 3)])
    def test_listing_is_the_sorted_colex_order(self, N, M):
        X = oracle._multisets(N, M)
        assert X.dtype == np.int32 and X.shape == (N, math.comb(M + N - 1, N))
        assert [tuple(c) for c in X.T.tolist()] == colex_multisets(N, M)
        assert_array_equal(oracle._rank(X, M), np.arange(X.shape[1]))

    def test_product_layout(self):
        # the multinomial, in rank order
        m = np.array([0.25, 0.75, 0.0, 0.0])
        d = JointDensity.product(2, m)
        want = np.zeros(10)
        want[:3] = [0.25 ** 2, 2 * 0.25 * 0.75, 0.75 ** 2]  # {0,0}, {0,1}, {1,1}
        assert_allclose(d.weights, want, rtol=0, atol=0)
        assert_allclose(marginal(d, [0, 1]), np.outer(m, m), rtol=0, atol=1e-17)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            JointDensity(2, 4, np.full(10, 1.0))  # sums to 10
        with pytest.raises(ValueError):
            JointDensity(2, 4, np.full(16, 1.0 / 16))  # M^N entries, not C(M+N-1, N)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        w = np.full(10, 1.0 / 10)
        w[5] = bad
        with pytest.raises(ValueError, match="finite"):
            JointDensity(2, 4, w)
