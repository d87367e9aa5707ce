import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairjump.circle import (
    TWO_PI,
    GridDensity,
    TabulatedNoise,
    UniformNoise,
    WrappedNormalNoise,
    wrap_angle,
)
from pairjump import models
from pairjump.models import (
    EVENT_BLOCK,
    EventLog,
    ModelSpec,
    kac_state,
    replay,
    replica_rng,
    sample_initial_chaotic,
    sample_kac_state,
    simulate,
    simulate_ensemble,
)


def vector_sum_angle(vi, vj):
    """Oracle for the shorter-arc bisector: angle of the unit-vector sum."""
    return np.arctan2(np.sin(vi) + np.sin(vj), np.cos(vi) + np.cos(vj)) % TWO_PI


def arc_distance(a, b):
    """Distance between two angles along the circle."""
    return abs(wrap_angle(a - b + np.pi) - np.pi)


def replay_one(kind, pair, d1, d2=None):
    """Replay a one-event log on a two-particle state: the engine's pair rule."""
    log = EventLog(np.array([1.0]), np.array([0]), np.array([1]), np.array([d1]),
                   None if d2 is None else np.array([d2]))
    return replay(ModelSpec(kind, UniformNoise()), np.asarray(pair, dtype=float), log)


class TestMidpoint:
    """bdg: both particles move to the shorter-arc midpoint, then add their noise."""

    @pytest.mark.parametrize("theta0", [0.0, 1.0, np.pi, 5.5])
    def test_aligned_pair_fixed(self, theta0):
        assert np.array_equal(replay_one("bdg", [theta0, theta0], 0.0, 0.0), [theta0, theta0])

    def test_quarter_pair(self):
        assert_allclose(replay_one("bdg", [0.0, np.pi / 2], 0.0, 0.0), [np.pi / 4] * 2,
                        rtol=0, atol=1e-15)

    def test_additive_noise(self):
        assert_allclose(replay_one("bdg", [0.0, np.pi / 2], 0.1, -0.1),
                        [np.pi / 4 + 0.1, np.pi / 4 - 0.1], rtol=0, atol=1e-12)

    def test_matches_vector_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            vi, vj = rng.random(2) * TWO_PI
            if arc_distance(vi, vj + np.pi) < 1e-6:
                continue
            out = replay_one("bdg", [vi, vj], 0.0, 0.0)
            assert out[0] == out[1]
            assert arc_distance(out[0], vector_sum_angle(vi, vj)) < 1e-10

    def test_shorter_arc_through_zero(self):
        out = replay_one("bdg", [0.1, TWO_PI - 0.1], 0.0, 0.0)
        assert out[0] == out[1] and arc_distance(out[0], 0.0) < 1e-12

    def test_antipodal_convention(self):
        # the two arcs tie; the midpoint is a quarter turn counterclockwise
        # from particle i of the pair i < j
        assert np.array_equal(replay_one("bdg", [0.0, np.pi], 0.0, 0.0), [np.pi / 2] * 2)
        assert np.array_equal(replay_one("bdg", [np.pi, 0.0], 0.0, 0.0), [3 * np.pi / 2] * 2)

    def test_near_antipodal_never_crashes(self):
        for eps in (1e-13, -1e-13, 1e-15):
            out = replay_one("bdg", [0.0, np.pi + eps], 0.0, 0.0)
            assert np.all(np.isfinite(out) & (0.0 <= out) & (out < TWO_PI))


class TestCLUpdate:
    """cl: coin d1 = 1 makes i the leader; the follower moves to leader + z."""

    def test_noiseless_follow(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vi, vj = rng.random(2) * TWO_PI
            assert np.array_equal(replay_one("cl", [vi, vj], 1, 0.0), [vi, vi])
            assert np.array_equal(replay_one("cl", [vi, vj], 0, 0.0), [vj, vj])

    def test_follower_copies_leader(self):
        assert_allclose(replay_one("cl", [1.0, 2.0], 0, 0.3), [2.3, 2.0], rtol=0, atol=1e-15)
        assert_allclose(replay_one("cl", [1.0, 2.0], 1, 0.3), [1.0, 1.3], rtol=0, atol=1e-15)

    def test_leader_unchanged_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pair = rng.random(2) * TWO_PI
            z = rng.normal()
            b = int(rng.integers(2))
            leader, follower = (0, 1) if b == 1 else (1, 0)
            out = replay_one("cl", pair, b, z)
            assert out[leader] == pair[leader]
            assert arc_distance(out[follower], pair[leader] + z) < 1e-12

    def test_fair_coin(self):
        # the coins simulate draws and logs: 1 (i leads) with probability 1/2
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        rng = replica_rng(8, 0)
        res = simulate(model, rng.random(10) * TWO_PI, 10_000.0, rng, record_events=True)
        coins = res.events.d1
        n = coins.size
        assert n == res.n_events > 90_000
        assert np.all((coins == 0) | (coins == 1))
        se = np.sqrt(0.25 / n)
        assert abs(np.count_nonzero(coins) / n - 0.5) < 4 * se


class TestKacUpdate:
    """kac: the velocity pair is rotated by the angle d1."""

    def test_identity_rotation(self):
        v = kac_state([1.3, -0.7])
        assert np.array_equal(replay_one("kac", v, 0.0), v)

    def test_quarter_rotation(self):
        v = kac_state([1.0, 0.0])
        assert_allclose(replay_one("kac", v, np.pi / 2), [0.0, -v[0]], rtol=0, atol=1e-15)

    def test_matches_rotation_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = kac_state(rng.normal(size=2))
            th = rng.random() * TWO_PI
            R = np.array([[np.cos(th), np.sin(th)],
                          [-np.sin(th), np.cos(th)]])
            assert_allclose(replay_one("kac", v, th), R @ v, rtol=0, atol=1e-15)

    def test_energy_example(self):
        v = kac_state([1.3, -0.7])
        out = replay_one("kac", v, 0.9)
        assert out @ out == pytest.approx(2.0, abs=1e-14)
        assert not np.allclose(out, v)


class TestKacState:
    def test_constructor_normalizes(self):
        v = kac_state([1.0, 2.0, 3.0, 4.0])
        assert np.sum(v ** 2) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            kac_state([0.0, 0.0])

    def test_sampler_on_sphere(self):
        rng = np.random.default_rng(5)
        v = sample_kac_state(100, rng)
        assert np.sum(v ** 2) == pytest.approx(100.0, abs=1e-10)

    def test_energy_conserved_over_many_events(self):
        n = 50
        rng = replica_rng(123, 0)
        model = ModelSpec("kac", UniformNoise())
        v0 = sample_kac_state(n, rng)
        # t chosen so the event count is about 10^6
        res = simulate(model, v0, 1_000_000 / n, rng)
        assert res.n_events > 900_000
        drift = abs(np.sum(res.final_state ** 2) - n) / n
        assert drift < 1e-12


class TestSimulate:
    def test_event_count_matches_poisson_mean(self):
        # rate N Poisson clock: mean count N*t = 200; SE over 200 replicas
        # is sqrt(200/200) = 1
        model = ModelSpec("cl", UniformNoise())
        counts = []
        for r in range(200):
            rng = replica_rng(77, r)
            init = rng.random(100) * TWO_PI
            counts.append(simulate(model, init, 2.0, rng).n_events)
        assert abs(np.mean(counts) - 200.0) < 4.0

    def test_cl_uniform_noise_relaxes_to_uniform(self):
        # kinetic prediction e^{-t} ~ 2e-9 at t=20, so the residual is pure
        # Monte Carlo noise; 20 replicas of N=50 put 4 sigma well under 0.1
        model = ModelSpec("cl", UniformNoise())
        acc = 0.0
        for r in range(20):
            rng = replica_rng(300, r)
            init = rng.random(50) * TWO_PI
            res = simulate(model, init, 20.0, rng)
            acc += np.mean(np.exp(-1j * res.final_state))
        assert abs(acc / 20) < 0.1

    def test_participation_rate_two(self):
        n, t_end = 100, 10.0
        model = ModelSpec("cl", UniformNoise())
        rng = replica_rng(55, 0)
        res = simulate(model, rng.random(n) * TWO_PI, t_end, rng,
                       record_events=True)
        part = np.bincount(res.events.i, minlength=n) + np.bincount(res.events.j, minlength=n)
        rate = part.mean() / t_end
        assert rate == pytest.approx(2.0, rel=0.05)

    def test_event_times_strictly_increasing(self):
        model = ModelSpec("bdg", WrappedNormalNoise(0.3))
        rng = replica_rng(9, 0)
        res = simulate(model, rng.random(20) * TWO_PI, 5.0, rng,
                       record_events=True)
        times = res.events.time
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0 and times[-1] <= 5.0

    # checkpoint rows come from the fixed-start ensemble; its replica 0 is
    # simulate on replica_rng(seed, 0)

    def test_checkpoints(self):
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        init = replica_rng(2, 0).random(30) * TWO_PI
        ens = simulate_ensemble(model, 30, 1.0, [0.0, 0.5, 1.0], 1, 2, initial=init)
        res = simulate(model, init, 1.0, replica_rng(2, 0))
        assert ens.snapshots.shape == (1, 3, 30)
        assert np.array_equal(ens.snapshots[0, 0], init)
        assert np.array_equal(ens.snapshots[0, 2], res.final_state)

    def test_snapshot_angles_in_range(self):
        model = ModelSpec("bdg", WrappedNormalNoise(0.5))
        init = replica_rng(21, 0).random(40) * TWO_PI
        ens = simulate_ensemble(model, 40, 3.0, [1.0, 3.0], 2, 21, initial=init)
        assert np.all((ens.snapshots >= 0.0) & (ens.snapshots < TWO_PI))

    def test_determinism_bit_identical(self):
        model = ModelSpec("bdg", WrappedNormalNoise(0.4))
        init = sample_initial_chaotic(WrappedNormalNoise(0.5), 50, replica_rng(1234, 7))
        runs = [simulate_ensemble(model, 50, 2.0, [1.0, 2.0], 2, 1234, initial=init)
                for _ in range(2)]
        assert np.array_equal(runs[0].snapshots, runs[1].snapshots)
        assert np.array_equal(runs[0].n_events, runs[1].n_events)

    def test_event_log_cap(self, monkeypatch):
        monkeypatch.setattr(models, "EVENT_LOG_CAP", 10)
        model = ModelSpec("cl", UniformNoise())
        rng = replica_rng(0, 0)
        res = simulate(model, rng.random(10) * TWO_PI, 20.0, rng, record_events=True)
        assert len(res.events) == 10
        assert res.events_truncated
        assert res.n_events > 10

    def test_replay_reproduces_trajectory(self):
        model = ModelSpec("bdg", WrappedNormalNoise(0.3))
        rng = replica_rng(31, 0)
        init = rng.random(15) * TWO_PI
        res = simulate(model, init.copy(), 4.0, rng, record_events=True)
        assert np.array_equal(replay(model, init.copy(), res.events),
                              res.final_state)

    def test_event_log_columns(self):
        # one entry per event in every column across three blocks, pairs
        # ordered i < j; kac has a single draw column
        for kind in ("cl", "bdg", "kac"):
            model = ModelSpec(kind, WrappedNormalNoise(0.3))
            rng = replica_rng(31, 0)
            init = sample_kac_state(15, rng) if kind == "kac" else rng.random(15) * TWO_PI
            res = simulate(model, init, 150.0, rng, record_events=True)
            log = res.events
            assert len(log) == res.n_events > 2 * EVENT_BLOCK
            draws = (log.d1,) if kind == "kac" else (log.d1, log.d2)
            for col in (log.time, log.i, log.j, *draws):
                assert col.shape == (res.n_events,)
            assert (log.d2 is None) == (kind == "kac")
            assert np.all((0 <= log.i) & (log.i < log.j) & (log.j < 15))

    def test_rejects_bad_checkpoints(self):
        model = ModelSpec("cl", UniformNoise())
        init = replica_rng(1, 0).random(5) * TWO_PI
        with pytest.raises(ValueError):
            simulate_ensemble(model, 5, 1.0, [0.5, 0.2], 1, 1, initial=init)
        with pytest.raises(ValueError):
            simulate_ensemble(model, 5, 1.0, [2.0], 1, 1, initial=init)

    def test_n2_degenerate(self):
        model = ModelSpec("cl", UniformNoise())
        rng = replica_rng(6, 0)
        res = simulate(model, np.array([0.0, 1.0]), 5.0, rng, record_events=True)
        assert len(res.events) == res.n_events > 0
        assert np.all(res.events.i == 0) and np.all(res.events.j == 1)


def permuted_events(log, sigma, kind):
    """Relabel an event log by the particle permutation sigma, adjusting the
    recorded draws where the ordered pair flips."""
    a, b = sigma[log.i], sigma[log.j]
    flip = a > b
    d1 = log.d1.copy()
    d2 = None if log.d2 is None else log.d2.copy()
    if kind == "cl":
        d1[flip] = 1 - d1[flip]
    elif kind == "bdg":
        d1[flip], d2[flip] = log.d2[flip], log.d1[flip]
    else:
        d1[flip] = -d1[flip]
    return EventLog(log.time, np.minimum(a, b), np.maximum(a, b), d1, d2)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind,atol", [
        ("cl", 0.0),
        ("kac", 0.0),
        ("bdg", 1e-12),  # swapped-argument bisector differs in the last ulp
    ])
    def test_relabeled_trajectory(self, kind, atol):
        noise = WrappedNormalNoise(0.4)
        model = ModelSpec(kind, noise)
        rng = replica_rng(99, 0)
        n = 6
        if kind == "kac":
            init = sample_kac_state(n, rng)
        else:
            init = rng.random(n) * TWO_PI
        res = simulate(model, init.copy(), 8.0, rng, record_events=True)

        sigma = np.random.default_rng(1).permutation(n)
        relabeled_init = np.empty(n)
        relabeled_init[sigma] = init
        final = replay(model, relabeled_init, permuted_events(res.events, sigma, kind))

        want = np.empty(n)
        want[sigma] = res.final_state
        if atol == 0.0:
            assert np.array_equal(final, want)
        else:
            assert_allclose(final, want, rtol=0, atol=atol)


class TestInitialSampling:
    def test_uniform_initial(self):
        rng = replica_rng(10, 0)
        x = sample_initial_chaotic(UniformNoise(), 10_000, rng)
        assert x.shape == (10_000,)
        assert np.all((x >= 0.0) & (x < TWO_PI))
        assert abs(np.mean(np.exp(-1j * x))) < 4.0 / np.sqrt(10_000)

    def test_recentered_wrapped_normal_mode(self):
        # rolling the table by M/2 cells recenters the density at pi, which
        # flips the sign of the first coefficient: fhat(1) = -e^{-0.25}
        table = WrappedNormalNoise(0.5).tabulate(512)
        shifted = GridDensity(np.roll(table.values, 256))
        rng = replica_rng(11, 0)
        x = sample_initial_chaotic(shifted, 10_000, rng)
        z = np.exp(-1j * x)
        se = np.sqrt((np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)) / x.size)
        assert abs(np.mean(z) - (-np.exp(-0.25))) < 4 * se

    def test_pair_independence(self):
        # E[e^{-i(th1 - th2)}] = |fhat(1)|^2 for product initial data
        g = WrappedNormalNoise(0.5)
        rng = replica_rng(12, 0)
        vals = np.empty(10_000, dtype=complex)
        for r in range(vals.size):
            x = sample_initial_chaotic(g, 2, rng)
            vals[r] = np.exp(-1j * (x[0] - x[1]))
        se = np.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1))
                     / vals.size)
        assert abs(np.mean(vals) - np.exp(-0.5)) < 4 * se


class TestEnsemble:
    def test_shapes_and_determinism(self):
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        a = simulate_ensemble(model, 40, 1.0, [0.0, 0.5, 1.0], 5, master_seed=42)
        b = simulate_ensemble(model, 40, 1.0, [0.0, 0.5, 1.0], 5, master_seed=42)
        assert a.snapshots.shape == (5, 3, 40)
        assert np.array_equal(a.snapshots, b.snapshots)
        assert np.array_equal(a.n_events, b.n_events)

    def test_replicas_differ(self):
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        a = simulate_ensemble(model, 40, 1.0, [1.0], 3, master_seed=42)
        assert not np.array_equal(a.snapshots[0], a.snapshots[1])

    def test_master_seed_matters(self):
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        a = simulate_ensemble(model, 40, 1.0, [1.0], 2, master_seed=1)
        b = simulate_ensemble(model, 40, 1.0, [1.0], 2, master_seed=2)
        assert not np.array_equal(a.snapshots, b.snapshots)

    def test_kac_ensemble(self):
        model = ModelSpec("kac", UniformNoise())
        a = simulate_ensemble(model, 30, 1.0, [1.0], 2, master_seed=3)
        energies = np.sum(a.snapshots[:, 0, :] ** 2, axis=1)
        assert_allclose(energies, 30.0, rtol=1e-12)


def log_columns(log):
    return (log.time, log.i, log.j, log.d1, log.d2)


def log_head(log, n):
    """The first n events of a log."""
    return EventLog(*(None if col is None else col[:n] for col in log_columns(log)))


def same_log(a, b):
    """Event logs with equal columns (d2 None in both, or equal)."""
    return len(a) == len(b) and all(
        x is y if x is None or y is None else np.array_equal(x, y)
        for x, y in zip(log_columns(a), log_columns(b)))


def pair_rule(kind, vi, vj, d1, d2):
    """The three pair rules on scalars: the reference both engines are checked against."""
    if kind == "cl":  # coin d1 = 1: i leads and j moves to vi + d2
        return (vi, (vi + d2) % TWO_PI) if d1 else ((vj + d2) % TWO_PI, vj)
    if kind == "bdg":  # shorter-arc midpoint; the antipodal tie turns counterclockwise from vi
        delta = (vj - vi) % TWO_PI
        vbar = (vi + 0.5 * (delta if delta <= np.pi else delta - TWO_PI)) % TWO_PI
        return (vbar + d1) % TWO_PI, (vbar + d2) % TWO_PI
    c, s = np.cos(d1), np.sin(d1)
    return c * vi + s * vj, -s * vi + c * vj


def apply_pair_updates(model, x0, log):
    """Apply an event log one event at a time with the scalar pair rules."""
    state = np.array(x0, dtype=float) if model.kind == "kac" else wrap_angle(x0)
    d2 = [None] * len(log) if log.d2 is None else log.d2.tolist()
    for i, j, d in zip(log.i.tolist(), log.j.tolist(), zip(log.d1.tolist(), d2)):
        state[i], state[j] = pair_rule(model.kind, state[i], state[j], *d)
    return state


def contract_v2_reference(model, n, t_end, checkpoints, seed, r, initial=None):
    """Scalar reading of draw-order contract v2 for replica r of an ensemble.

    The block draws become an EventLog (pairs decoded with triu_indices,
    which enumerates pairs in the same lexicographic order), and each
    checkpoint row is the events at or before it applied with ``pair_rule``.
    Returns the rows and the event log.
    """
    rng = replica_rng(seed, r)
    if initial is not None:
        x0 = sample_initial_chaotic(initial, n, rng)
    elif model.kind == "kac":
        x0 = sample_kac_state(n, rng)
    else:
        x0 = rng.random(n) * TWO_PI
    first, second = np.triu_indices(n, 1)
    B = EVENT_BLOCK
    cols = ([], [], [], [], [])  # time, i, j, d1, d2
    t = 0.0
    while True:
        waits = rng.exponential(1.0 / n, B)
        pairs = rng.integers(n * (n - 1) // 2, size=B)
        if model.kind == "cl":
            coins = rng.integers(2, size=B)
            draws = list(zip(coins.tolist(), model.noise.sample(rng, B).tolist()))
        elif model.kind == "bdg":
            w = model.noise.sample(rng, 2 * B).tolist()
            draws = list(zip(w[0::2], w[1::2]))
        else:
            draws = [(th, None) for th in model.noise.sample(rng, B).tolist()]
        for w, m, (d1, d2) in zip(waits, pairs, draws):
            t = t + w
            if t > t_end:
                log = EventLog(*map(np.array, cols[:4]),
                               None if model.kind == "kac" else np.array(cols[4]))
                rows = [apply_pair_updates(
                            model, x0, log_head(log, np.searchsorted(log.time, c, side="right")))
                        for c in checkpoints]
                return np.array(rows).reshape(len(checkpoints), n), log
            for col, value in zip(cols, (float(t), int(first[m]), int(second[m]), d1, d2)):
                col.append(value)


EVERY_MODEL = pytest.mark.parametrize("kind,noise", [
    ("cl", WrappedNormalNoise(0.5)),
    ("cl", TabulatedNoise(WrappedNormalNoise(0.5).tabulate(16).values)),
    ("bdg", WrappedNormalNoise(0.3)),
    ("kac", UniformNoise()),
], ids=["cl_wn", "cl_tab", "bdg_wn", "kac"])


def forbid(monkeypatch, name):
    """Make models.<name> raise, so a test can show that no work started."""
    def started(*args):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(models, name, started)


class TestLockstepEnsemble:
    N, T_END, SEED, R = 6, 400.0, 515, 3  # about 2400 events: three blocks

    def checkpoints(self, model):
        # 0, repeated values, t_end, and two of replica 0's event times: one
        # mid-block and the last of its first block (a checkpoint the next
        # block must resolve)
        _, events = contract_v2_reference(model, self.N, self.T_END, [], self.SEED, 0)
        mid, edge = events.time[EVENT_BLOCK // 2], events.time[EVENT_BLOCK - 1]
        return sorted([0.0, 0.0, mid, 123.4, 123.4, edge, edge, self.T_END])

    @pytest.mark.parametrize("kind,noise", [
        ("cl", WrappedNormalNoise(0.5)),
        ("cl", TabulatedNoise(WrappedNormalNoise(0.5).tabulate(16).values)),
        ("bdg", WrappedNormalNoise(0.3)),
    ], ids=["cl_wn", "cl_tab", "bdg_wn"])
    def test_bit_identical_to_scalar_reference(self, kind, noise):
        model = ModelSpec(kind, noise)
        cps = self.checkpoints(model)
        init = WrappedNormalNoise(0.5) if kind == "bdg" else None
        ens = simulate_ensemble(model, self.N, self.T_END, cps, self.R, self.SEED,
                                initial=init)
        for r in range(self.R):
            rows, events = contract_v2_reference(model, self.N, self.T_END, cps,
                                                 self.SEED, r, initial=init)
            assert len(events) > 2 * EVENT_BLOCK
            assert ens.n_events[r] == len(events)
            assert np.array_equal(ens.snapshots[r], rows)

    def test_kac_energy_and_reference(self):
        model = ModelSpec("kac", UniformNoise())
        cps = self.checkpoints(model)
        ens = simulate_ensemble(model, self.N, self.T_END, cps, self.R, self.SEED)
        energies = np.sum(ens.snapshots ** 2, axis=2)
        assert np.max(np.abs(energies - self.N)) < 1e-12 * self.N
        for r in range(self.R):
            rows, events = contract_v2_reference(model, self.N, self.T_END, cps,
                                                 self.SEED, r)
            assert ens.n_events[r] == len(events)
            # block cos/sin and scalar cos/sin may differ in the last bit
            assert_allclose(ens.snapshots[r], rows, rtol=0, atol=1e-12)

    @EVERY_MODEL
    def test_simulate_is_ensemble_replica(self, kind, noise):
        # replica r of the ensemble is simulate on replica_rng(s, r) after the
        # initial draw: same final row and event count, the reference's event
        # log, and replay of the log lands on the same final state
        model = ModelSpec(kind, noise)
        cps = self.checkpoints(model)
        init = WrappedNormalNoise(0.5) if kind == "bdg" else None
        ens = simulate_ensemble(model, self.N, self.T_END, cps, self.R, self.SEED,
                                initial=init)
        for r in range(self.R):
            rng = replica_rng(self.SEED, r)
            x0 = models._draw_initial(model, init, self.N, rng)
            res = simulate(model, x0, self.T_END, rng, record_events=True)
            _, events = contract_v2_reference(model, self.N, self.T_END, [], self.SEED, r,
                                              initial=init)
            assert res.n_events == ens.n_events[r] == len(events) > 2 * EVENT_BLOCK
            assert np.array_equal(res.final_state, ens.snapshots[r, -1])
            assert same_log(res.events, events)
            assert np.array_equal(replay(model, x0, res.events), res.final_state)

    def test_event_log_cap_mid_block(self, monkeypatch):
        cap = 1500
        assert cap % EVENT_BLOCK != 0
        model = ModelSpec("cl", WrappedNormalNoise(0.5))
        runs = []
        for record, log_cap in ((True, cap), (True, 10 * cap), (False, cap)):
            monkeypatch.setattr(models, "EVENT_LOG_CAP", log_cap)
            rng = replica_rng(self.SEED, 0)
            x0 = rng.random(self.N) * TWO_PI
            runs.append(simulate(model, x0, self.T_END, rng, record_events=record))
        capped, full, unlogged = runs
        assert full.n_events > 2 * EVENT_BLOCK and not full.events_truncated
        assert len(capped.events) == cap and capped.events_truncated
        assert same_log(capped.events, log_head(full.events, cap))
        for res in (full, unlogged):
            assert res.n_events == capped.n_events
            assert np.array_equal(res.final_state, capped.final_state)

    @pytest.mark.parametrize("kind", ["cl", "bdg", "kac"])
    def test_rows_independent_of_replica_count_and_workers(self, kind):
        model = ModelSpec(kind, WrappedNormalNoise(0.4))
        run = lambda reps, workers: simulate_ensemble(  # noqa: E731
            model, 30, 60.0, [0.0, 30.0, 60.0], reps, 9, workers=workers)
        five, three, split = run(5, 1), run(3, 1), run(5, 2)
        assert np.array_equal(three.snapshots, five.snapshots[:3])
        assert np.array_equal(three.n_events, five.n_events[:3])
        assert np.array_equal(split.snapshots, five.snapshots)
        assert np.array_equal(split.n_events, five.n_events)

    def test_mean_event_count(self):
        # Poisson(N t) per replica: mean 200, SE sqrt(200 / 200) = 1
        model = ModelSpec("cl", UniformNoise())
        ens = simulate_ensemble(model, 100, 2.0, [2.0], 200, 77)
        assert abs(ens.n_events.mean() - 200.0) < 4.0


class TestFixedStart:
    N, T_END, SEED, R = 6, 400.0, 515, 3  # about 2400 events per replica: three blocks

    def start(self, kind):
        """A start vector and its checked form (angles wrapped into [0, 2 pi))."""
        x0 = np.random.default_rng(4).normal(scale=5.0, size=self.N)
        if kind == "kac":
            x0 = kac_state(x0)
            return x0, x0
        return x0, wrap_angle(x0)

    @EVERY_MODEL
    def test_replica_is_simulate_on_its_stream(self, kind, noise):
        # every replica starts at the checked x0 and draws nothing for it, so
        # replica r is simulate(model, x0, T, replica_rng(s, r)); the rows do
        # not depend on the worker count
        model = ModelSpec(kind, noise)
        x0, checked = self.start(kind)
        cps = [0.0, self.T_END / 4, self.T_END]
        ens = simulate_ensemble(model, self.N, self.T_END, cps, self.R, self.SEED, initial=x0)
        split = simulate_ensemble(model, self.N, self.T_END, cps, self.R, self.SEED,
                                  initial=x0, workers=2)
        assert np.array_equal(split.snapshots, ens.snapshots)
        assert np.array_equal(split.n_events, ens.n_events)
        assert np.array_equal(ens.snapshots[:, 0], np.broadcast_to(checked, (self.R, self.N)))
        for r in range(self.R):
            res = simulate(model, x0, self.T_END, replica_rng(self.SEED, r), record_events=True)
            assert res.n_events == ens.n_events[r] > 2 * EVENT_BLOCK
            assert np.array_equal(res.final_state, ens.snapshots[r, -1])
            assert np.array_equal(replay(model, x0, res.events), ens.snapshots[r, -1])
        assert not np.array_equal(ens.snapshots[0, -1], ens.snapshots[1, -1])

    def test_antipodal_tie_in_the_lockstep_engine(self):
        # an antipodal fixed start, checkpointed at the first event: the row is
        # the tie's midpoint pi/2 (counterclockwise from particle i) plus the
        # logged noise, bit for bit
        model = ModelSpec("bdg", WrappedNormalNoise(0.3))
        x0 = np.array([0.0, np.pi])
        log = simulate(model, x0, 5.0, replica_rng(self.SEED, 0), record_events=True).events
        assert len(log) > 1
        ens = simulate_ensemble(model, 2, 5.0, [log.time[0]], 1, self.SEED, initial=x0)
        want = [(np.pi / 2 + log.d1[0]) % TWO_PI, (np.pi / 2 + log.d2[0]) % TWO_PI]
        assert np.array_equal(ens.snapshots[0, 0], want)

    @pytest.mark.parametrize("kind,bad", [
        ("cl", np.zeros(5)),                         # length 5, N = 6
        ("kac", np.ones(7)),                         # length 7 on its own sphere
        ("kac", 2.0 * np.ones(6)),                   # off the sphere sum v^2 = 6
        ("cl", np.array([0.0, 1.0, np.nan, 2.0, 3.0, 4.0])),
        ("bdg", np.array([0.0, 1.0, 2.0, np.inf, 3.0, 4.0])),
    ])
    def test_rejects_bad_start_before_any_work(self, kind, bad, monkeypatch):
        forbid(monkeypatch, "_replica_job")
        with pytest.raises(ValueError):
            simulate_ensemble(ModelSpec(kind, UniformNoise()), 6, 1.0, [1.0], 2, 0, initial=bad)


class TestPairDecode:
    def test_every_pair_matches_triu_indices(self):
        for n in range(2, 301):
            i, j = models._decode_pairs(np.arange(n * (n - 1) // 2), models._pair_offsets(n))
            first, second = np.triu_indices(n, 1)
            assert np.array_equal(i, first) and np.array_equal(j, second), n

    @pytest.mark.parametrize("n", [1000, 4097, (1 << 16) + 1, 10**6, 3 * 10**6])
    def test_every_row_boundary(self, n):
        # each row's first and last pair index, where the root is nearest an integer
        offsets = models._pair_offsets(n)
        for rows in np.array_split(np.arange(n - 1), max(1, n >> 20)):
            for m, j in ((offsets[rows], rows + 1), (offsets[rows + 1] - 1, np.full(rows.size, n - 1))):
                got_i, got_j = models._decode_pairs(m, offsets)
                assert np.array_equal(got_i, rows) and np.array_equal(got_j, j)

    def test_refuses_n_above_the_bound_before_any_draw(self, monkeypatch):
        with pytest.raises(ValueError, match="exceeds"):
            models._pair_offsets(models.MAX_PARTICLES + 1)
        forbid(monkeypatch, "_replica_job")
        with pytest.raises(ValueError, match="exceeds"):
            simulate_ensemble(ModelSpec("cl", UniformNoise()), models.MAX_PARTICLES + 1, 1.0,
                              [1.0], 2, 0)
        # simulate takes N from its start; a lowered bound shows where it refuses
        monkeypatch.setattr(models, "MAX_PARTICLES", 10)
        assert simulate(ModelSpec("cl", UniformNoise()), np.zeros(10), 0.5,
                        replica_rng(0, 0)).n_events > 0
        forbid(monkeypatch, "_draw_block")
        with pytest.raises(ValueError, match="exceeds"):
            simulate(ModelSpec("cl", UniformNoise()), np.zeros(11), 1.0, replica_rng(0, 0))


class TestNonFiniteTimes:
    BAD_T_END = [float("nan"), float("inf"), -1.0]

    @pytest.mark.parametrize("t_end", BAD_T_END)
    def test_simulate_refuses_t_end(self, t_end, monkeypatch):
        forbid(monkeypatch, "_draw_block")
        with pytest.raises(ValueError, match="t_end"):
            simulate(ModelSpec("cl", UniformNoise()), np.zeros(4), t_end, replica_rng(0, 0))

    @pytest.mark.parametrize("t_end,checkpoints", [
        *((t, []) for t in BAD_T_END),
        (1.0, [0.5, float("nan")]),
        (1.0, [float("nan")]),
        (1.0, [0.5, float("inf")]),
        (1.0, [-float("inf"), 0.5]),
    ])
    def test_ensemble_refuses_times(self, t_end, checkpoints, monkeypatch):
        forbid(monkeypatch, "_replica_job")
        with pytest.raises(ValueError):
            simulate_ensemble(ModelSpec("cl", UniformNoise()), 4, t_end, checkpoints, 2, 0)


class TestRateConsistency:
    def test_single_decay_constant_across_modes(self):
        """With uniform noise every mode k >= 1 must decay at the same rate c
        (ghat(k) = 0 for all of them); c near 1 also pins the convention that
        a tagged particle is refreshed at rate 1."""
        model = ModelSpec("cl", UniformNoise())
        f0 = WrappedNormalNoise(0.25)
        t_end = 0.5
        n, reps = 2000, 100
        acc0 = np.zeros(3, dtype=complex)
        acc1 = np.zeros(3, dtype=complex)
        k = np.arange(1, 4)
        for r in range(reps):
            rng = replica_rng(2026_08, r)
            init = sample_initial_chaotic(f0, n, rng)
            res = simulate(model, init, t_end, rng)
            acc0 += np.exp(-1j * np.outer(k, init)).mean(axis=1)
            acc1 += np.exp(-1j * np.outer(k, res.final_state)).mean(axis=1)
        ratio = np.abs(acc1 / acc0)
        c = -np.log(ratio) / t_end
        assert np.all(np.abs(c - 1.0) < 0.1)
        assert c.max() - c.min() < 0.15
