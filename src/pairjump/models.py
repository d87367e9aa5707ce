"""Interacting particle systems driven by pairwise jump events.

Three models share one event skeleton: events arrive at total rate N, the
pair is uniform over the N(N-1)/2 unordered pairs, and only the chosen pair
changes state.

* ``bdg``: both particles jump to the shorter-arc angular midpoint of the
  pair, then each adds independent noise. An antipodal pair i < j ties; its
  midpoint is a quarter turn counterclockwise from particle i.
* ``cl``: a fair coin picks a leader; the follower moves to the leader's
  angle plus noise, the leader keeps its angle.
* ``kac``: state is a velocity vector on the energy sphere sum(v_i^2) = N;
  the pair is rotated by a noise angle, which conserves the energy exactly.

Simulation is event-driven and exact (no time discretization): waiting times
are Exp(N), and each replica owns a counter-based generator derived from
(master_seed, replica_index), so results are reproducible and independent of
scheduling.

Draw-order contract v2 governs both engines, the scalar ``simulate`` and the
replica-batched ``simulate_ensemble``. After whatever the caller drew from
the generator (for replica r of an ensemble: ``replica_rng(master_seed, r)``,
then the initial state), events are drawn in blocks of B = EVENT_BLOCK. Each
block draws, in this order:

* ``exponential(1/N, B)`` waiting times;
* ``integers(N(N-1)/2, B)`` pair indices, decoded lexicographically (in
  closed form, ``_decode_pairs``, for N <= MAX_PARTICLES);
* the model draws: cl ``integers(2, B)`` coins (1: i leads), then
  ``noise.sample(rng, B)``; bdg ``noise.sample(rng, 2B)``, event-major
  (w_i, w_j); kac ``noise.sample(rng, B)`` rotation angles.

Event times are the running sum of the waiting times. The first time past
t_end ends the trajectory, and the rest of that block is discarded. Both
engines update with the same correctly rounded operations and ``%``, and
take kac's cos/sin over a block's whole angle column, so ``simulate`` on
``replica_rng(master_seed, r)`` after replica r's initial draw (none for a
fixed start) has replica r's end state, event count and event log (the
blocks' draw columns, an ``EventLog``), bit for bit. Checkpoint rows come
from ``simulate_ensemble`` only: a row is the state after every event at or
before the checkpoint. ``replay`` applies a log through the same update
table in the same blocks, reproducing the final state bit for bit.

Decoding pairs in closed form left contract v2 unchanged: a pair index
maps to the same lexicographic pair (i, j) as a search of the row offsets,
so every trajectory is the same, bit for bit. The closed form is proven
exact up to N = MAX_PARTICLES; both engines refuse a larger N before they
draw anything.

kac's update table holds (cos, -sin) of each angle, so neither engine
negates per event: the pair goes to (c v_i - ns v_j, ns v_i + c v_j) with
ns = -sin, which in IEEE arithmetic is (c v_i + s v_j, -s v_i + c v_j) bit
for bit. Contract v2 is unchanged by it.

Contract v1, retired when ``simulate`` moved to v2, drew per event the
waiting time, the pair index and the model draws with scalar calls. A
trajectory recorded under v1 has the same law as its v2 counterpart but is
not the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .circle import TWO_PI, GridDensity, NoiseSpec, UniformNoise, wrap_angle

__all__ = [
    "ModelSpec",
    "EventLog",
    "SimulationResult",
    "EnsembleResult",
    "kac_state",
    "sample_kac_state",
    "sample_initial_chaotic",
    "replica_rng",
    "simulate",
    "replay",
    "simulate_ensemble",
]

MODEL_KINDS = ("bdg", "cl", "kac")
EVENT_BLOCK = 1024  # events drawn per trajectory at a time (draw-order contract v2)
EVENT_LOG_CAP = 1_000_000  # events an EventLog keeps; the rest are counted, not logged
# column dtypes of an EventLog (time, i, j, d1, d2) as simulate writes it; int32
# pairs are exact because N <= MAX_PARTICLES = 2^24
LOG_DTYPES = {"cl": (np.float64, np.int32, np.int32, np.uint8, np.float64),
              "bdg": (np.float64, np.int32, np.int32, np.float64, np.float64),
              "kac": (np.float64, np.int32, np.int32, np.float64, None)}
MAX_PARTICLES = 1 << 24  # largest N whose pairs _decode_pairs decodes exactly


@dataclass(frozen=True)
class ModelSpec:
    """Model kind ("bdg", "cl", or "kac") plus its jump-noise distribution.

    Pair selection is always uniform over unordered pairs and the total event
    rate is N; neither is configurable.
    """

    kind: str
    noise: NoiseSpec

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if not isinstance(self.noise, NoiseSpec):
            raise ValueError("noise must be a NoiseSpec")


@dataclass(frozen=True, eq=False)
class EventLog:
    """A trajectory's event log: one column entry per event.

    time holds the event times and (i, j) the pair, i < j. The draw columns
    are, for cl, d1 the coin (1: particle i leads) and d2 the follower's
    noise z; for bdg, d1 = w_i and d2 = w_j; for kac, d1 the rotation angle
    and d2 None. ``simulate`` writes the columns at ``LOG_DTYPES``: float64
    times and draws, int32 pairs and cl's coin as uint8, so an event takes 25
    bytes for cl, 32 for bdg and 24 for kac. ``replay`` also takes any other
    integer pairs and coins and floating draws.
    """

    time: np.ndarray
    i: np.ndarray
    j: np.ndarray
    d1: np.ndarray
    d2: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.time)


@dataclass(eq=False)
class SimulationResult:
    final_state: np.ndarray      # state at t_end, shape (N,)
    n_events: int
    events: Optional["EventLog"] = None
    events_truncated: bool = False


@dataclass(eq=False)
class EnsembleResult:
    times: np.ndarray            # shape (T,)
    snapshots: np.ndarray        # shape (R, T, N)
    n_events: np.ndarray         # events per replica, shape (R,)

    @property
    def n_replicas(self) -> int:
        return self.snapshots.shape[0]


# ---------------------------------------------------------------------------
# states and seeding


def kac_state(velocities) -> np.ndarray:
    """Project velocities onto the energy sphere sum(v_i^2) = N."""
    v = np.array(velocities, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d velocity vector with at least 2 entries")
    e = np.dot(v, v)
    if e <= 0.0:
        raise ValueError("cannot normalize the zero velocity vector")
    return v * np.sqrt(v.size / e)


def sample_kac_state(n_particles: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the energy sphere (rescaled standard normals)."""
    return kac_state(rng.normal(size=n_particles))


def sample_initial_chaotic(f: Union[GridDensity, NoiseSpec], n_particles: int,
                           rng: np.random.Generator) -> np.ndarray:
    """N i.i.d. angles from f: the chaotic (product) initial condition."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if not isinstance(f, (GridDensity, NoiseSpec)):
        raise ValueError("initial law must be a GridDensity or NoiseSpec")
    return np.asarray(f.sample(rng, n_particles))


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Counter-based generator for one replica; streams never overlap."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([master_seed, replica])))


def _pair_offsets(n: int) -> np.ndarray:
    # offsets[i] = number of pairs (a, b) with a < i, for lexicographic decode
    if n > MAX_PARTICLES:
        raise ValueError(f"N = {n} exceeds {MAX_PARTICLES}, the largest N whose pairs "
                         "decode exactly")
    i = np.arange(n)
    return i * (n - 1) - (i * (i - 1)) // 2


def _decode_pairs(m: np.ndarray, offsets: np.ndarray):
    """Pair indices m to their lexicographic pairs (i, j), i < j, in closed form.

    With b = 2N - 1 the offsets are off[i] = i (b - i) / 2, so row i, the
    largest i with off[i] <= m, is the floor of r(m) = b/2 - sqrt(b^2/4 - 2m),
    the smaller root of i^2 - b i + 2m = 0, nudged up by 1/(2b):
    i = floor((b + 1/b)/2 - sqrt(b^2/4 - 2m)). In exact arithmetic r(off[i])
    = i, and dr/dm = 1/sqrt(b^2/4 - 2m) >= 2/b, so the last index of row i
    has r <= i + 1 - 2/b: the nudged root lies in [i + 1/(2b), i + 1 - 3/(2b)].

    Rounding: with b < 2^25 (N <= MAX_PARTICLES = 2^24), b^2/4 - 2m is an
    exact double; the square root, the constant (b + 1/b)/2 and the
    difference are each within b 2^-54 (plus 2^-54/b), so the computed value
    is within 1.5 b 2^-53 + 2^-53/b < 2^-27 of the nudged root, below the
    margin 1/(2b) > 2^-26 on either side. (At m = off[i] the radicand is the
    square (b/2 - i)^2 and its root is exact; the nudge keeps the margin if it
    were not.) Halving b + 1/b and taking the root of a quarter of b^2 - 8m
    are exact, so this is bit for bit the floor of (b + 1/b - sqrt(b^2 - 8m))/2.
    j = m - off[i] + i + 1.
    """
    b = 2 * offsets.size - 1
    root = m * -2.0
    root += b * b / 4
    np.sqrt(root, out=root)
    i = np.subtract(0.5 * (b + 1.0 / b), root, out=root).astype(np.intp)
    return i, m - offsets[i] + i + 1


# ---------------------------------------------------------------------------
# simulation


def _check_initial(model: ModelSpec, initial) -> np.ndarray:
    state = np.array(initial, dtype=float)
    if state.ndim != 1 or state.size < 2:
        raise ValueError("initial state must be a 1-d vector with at least 2 particles")
    if not np.all(np.isfinite(state)):
        raise ValueError("initial state has non-finite entries")
    if model.kind == "kac":
        e = np.dot(state, state)
        if abs(e - state.size) > 1e-9 * state.size:
            raise ValueError(f"kac state off the energy sphere: sum v^2 = {e!r}, N = {state.size}")
        return state
    return wrap_angle(state)


def _check_times(t_end: float, checkpoints: Sequence[float] = ()) -> np.ndarray:
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end!r}")
    cps = np.asarray(checkpoints, dtype=float)
    if cps.ndim != 1 or not np.all((cps >= 0.0) & (cps <= t_end)) or np.any(np.diff(cps) < 0.0):
        raise ValueError("checkpoints must be nondecreasing and lie in [0, t_end]")
    return cps


def simulate(model: ModelSpec, initial, t_end: float, rng: np.random.Generator,
             record_events: bool = False) -> SimulationResult:
    """Run one trajectory to t_end: its end state, event count and event log.

    Draws follow draw-order contract v2 (module docstring): with ``rng``
    ``replica_rng(master_seed, r)`` after replica r's initial draw, this is
    replica r of ``simulate_ensemble``. States at checkpoints come from
    ``simulate_ensemble``, which also takes a fixed start.

    Parameters
    ----------
    model : ModelSpec
    initial : array_like
        Angles (bdg, cl) or velocities on the energy sphere (kac).
    t_end : float
        Finite horizon; events after t_end do not happen.
    rng : numpy.random.Generator
        Owned by this trajectory; the caller controls seeding.
    record_events : bool
        Keep the event log, an EventLog of at most EVENT_LOG_CAP events;
        the result is flagged truncated if the cap is hit. Each block's
        events are copied into columns allocated once, ``_log_size`` events
        long, which grow only if the run outlasts that bound.
    """
    _check_times(t_end)
    state = _check_initial(model, initial)
    n = state.size
    offsets = _pair_offsets(n)
    state = state.tolist()
    n_pairs = n * (n - 1) // 2

    B = EVENT_BLOCK
    columns = [None if dt is None else np.empty(_log_size(n, t_end), dt)
               for dt in LOG_DTYPES[model.kind]] if record_events else None
    n_logged = 0
    n_events = 0
    t0 = 0.0
    while True:
        times = rng.exponential(1.0 / n, B)
        times[0] += t0
        np.cumsum(times, out=times)
        kept = int(np.count_nonzero(times <= t_end))
        drawn = _draw_block(model, offsets, n_pairs, rng)
        _apply_events(model.kind, state, _update_table(model.kind, *drawn), kept)
        n_events += kept

        take = min(kept, EVENT_LOG_CAP - n_logged) if record_events else 0
        if take > 0:
            end = n_logged + take
            if end > columns[0].size:  # past the Poisson bound: grow, up to the cap
                columns = [None if col is None else _grown(col, n_logged, end)
                           for col in columns]
            for col, drawn_col in zip(columns, (times, *drawn)):
                if col is not None:
                    col[n_logged:end] = drawn_col[:take]
            n_logged = end
        if kept < B:
            break
        t0 = times[-1]

    events = None
    if record_events:
        events = EventLog(*(None if col is None else col[:n_logged] for col in columns))
    return SimulationResult(final_state=np.array(state), n_events=n_events, events=events,
                            events_truncated=record_events and n_logged < n_events)


def _log_size(n: int, t_end: float) -> int:
    """Events an event log is allocated for: the Poisson(N t_end) event count's
    mean plus six standard deviations, and at most EVENT_LOG_CAP."""
    mean = n * t_end
    return int(min(EVENT_LOG_CAP, mean + 6.0 * np.sqrt(mean) + 6.0))


def _grown(col: np.ndarray, n_logged: int, end: int) -> np.ndarray:
    """A longer column holding col's first n_logged entries, room for end."""
    out = np.empty(min(EVENT_LOG_CAP, max(2 * col.size, end)), col.dtype)
    out[:n_logged] = col[:n_logged]
    return out


def replay(model: ModelSpec, initial, events: EventLog) -> np.ndarray:
    """Apply a recorded event log to an initial state; no randomness.

    The log goes through the same update table as ``simulate``, one
    EVENT_BLOCK slice at a time, so replaying a trajectory's complete log
    reproduces its final state bit for bit. A log that does not fit the
    model or the state is refused with ValueError before any event is
    applied (``_check_log``).
    """
    state = _check_initial(model, initial)
    i, j, d1, d2 = _check_log(model.kind, state.size, events)
    state = state.tolist()
    for e0 in range(0, i.size, EVENT_BLOCK):
        block = slice(e0, e0 + EVENT_BLOCK)
        table = _update_table(model.kind, i[block], j[block], d1[block],
                              None if d2 is None else d2[block])
        _apply_events(model.kind, state, table, EVENT_BLOCK)
    return np.array(state)


def _check_log(kind: str, n: int, events: EventLog):
    """The columns i, j, d1, d2 of a log that replay can apply to N = n
    particles, in native byte order: 1-d columns of one length, integer pairs
    0 <= i < j < n, a d2 column exactly when the kind has one (cl, bdg), and
    cl coins in {0, 1}."""
    cols = [None if col is None else np.asarray(col) for col in
            (events.time, events.i, events.j, events.d1, events.d2)]
    if (cols[4] is None) != (kind == "kac"):
        raise ValueError(f"{kind} event logs have {'no' if kind == 'kac' else 'a'} d2 column")
    if any(col.ndim != 1 or col.size != cols[0].size for col in cols if col is not None):
        raise ValueError("event log columns must be 1-d and of one length")
    i, j, d1, d2 = (None if col is None else col.astype(col.dtype.newbyteorder("="), copy=False)
                    for col in cols[1:])
    if i.dtype.kind not in "iu" or j.dtype.kind not in "iu":
        raise ValueError("event log pairs i, j must be integers")
    if i.size and not (i.min() >= 0 and j.max() < n and np.all(i < j)):
        raise ValueError(f"event log pairs must have 0 <= i < j < N = {n}")
    if kind == "cl" and not np.all((d1 == 0) | (d1 == 1)):
        raise ValueError("cl coins d1 must be 0 or 1")
    return i, j, d1, d2


def _draw_block(model: ModelSpec, offsets, n_pairs, rng):
    """The draws of one block of EVENT_BLOCK events that follow its waiting
    times, in contract-v2 order: the pairs (i < j) and the EventLog draw
    columns d1, d2."""
    B = EVENT_BLOCK
    i, j = _decode_pairs(rng.integers(n_pairs, size=B), offsets)
    if model.kind == "cl":
        return i, j, rng.integers(2, size=B), model.noise.sample(rng, B)
    if model.kind == "bdg":
        w = model.noise.sample(rng, 2 * B)
        return i, j, w[0::2], w[1::2]
    return i, j, model.noise.sample(rng, B), None


def _update_table(kind, i, j, d1, d2):
    """Update operands (a, b, value, value) of events given as draw columns:
    cl (leader, follower, z, None), bdg (i, j, w_i, w_j), kac (i, j, cos, -sin).
    kac's cos/sin are taken over the whole column, as both engines do."""
    if kind == "cl":
        i_leads = d1.astype(bool)
        return np.where(i_leads, i, j), np.where(i_leads, j, i), d2, None
    if kind == "kac":
        ns = np.sin(d1)
        return i, j, np.cos(d1), np.negative(ns, out=ns)
    return i, j, d1, d2


def _apply_events(kind, state, table, n):
    """Apply the first n events of an update table to a state held as a list.

    The arithmetic is ``_advance``'s, operation for operation, on Python
    floats; every operation is correctly rounded (or ``%``) in both, so the
    scalar and the vectorised engine agree bit for bit. The columns are read
    through memoryviews, which yield Python numbers without a list copy.
    """
    a, b, va, vb = (None if col is None else memoryview(col[:n]) for col in table)
    two_pi, pi = TWO_PI, np.pi
    if kind == "cl":
        for ia, ib, z in zip(a, b, va):
            state[ib] = (state[ia] + z) % two_pi
    elif kind == "bdg":
        for ia, ib, wa, wb in zip(a, b, va, vb):
            vi = state[ia]
            delta = (state[ib] - vi) % two_pi
            vbar = (vi + 0.5 * (delta if delta <= pi else delta - two_pi)) % two_pi
            state[ia] = (vbar + wa) % two_pi
            state[ib] = (vbar + wb) % two_pi
    else:
        for ia, ib, c, ns in zip(a, b, va, vb):
            vi, vj = state[ia], state[ib]
            state[ia] = c * vi - ns * vj
            state[ib] = ns * vi + c * vj


def _draw_initial(model: ModelSpec, initial, n_particles: int, rng) -> np.ndarray:
    if isinstance(initial, np.ndarray):  # a checked fixed start draws nothing
        return initial
    if initial is None and model.kind == "kac":
        return sample_kac_state(n_particles, rng)
    return sample_initial_chaotic(UniformNoise() if initial is None else initial, n_particles, rng)


def simulate_ensemble(model: ModelSpec, n_particles: int, t_end: float,
                      checkpoints: Sequence[float], n_replicas: int, master_seed: int,
                      initial: Union[GridDensity, NoiseSpec, Sequence[float], None] = None,
                      workers: int = 1) -> EnsembleResult:
    """Independent replicas with per-replica seeded streams (draw-order contract v2).

    initial = None draws uniform angles (or a uniform point on the energy
    sphere for kac); a GridDensity or NoiseSpec starts each replica from N
    i.i.d. draws from it; a state vector of length N (angles, or velocities
    on the energy sphere for kac) is a fixed start that every replica shares
    and that draws nothing. All replicas advance together, one event index
    at a time; ``workers > 1`` splits them into contiguous blocks run in
    worker processes. Output is identical for any ``workers`` value.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    cps = _check_times(t_end, checkpoints)
    offsets = _pair_offsets(n_particles)
    if initial is not None and not isinstance(initial, (GridDensity, NoiseSpec)):
        initial = _check_initial(model, initial)
        if initial.size != n_particles:
            raise ValueError(f"fixed start has {initial.size} entries, not {n_particles}")

    n_jobs = max(1, min(workers, n_replicas))
    cuts = [n_replicas * k // n_jobs for k in range(n_jobs + 1)]
    jobs = [(model, offsets, t_end, cps, master_seed, initial, lo, hi)
            for lo, hi in zip(cuts, cuts[1:])]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            parts = list(pool.map(_replica_job, jobs))
        snapshots = np.concatenate([snaps for snaps, _ in parts])
        n_events = np.concatenate([counts for _, counts in parts])
    else:
        snapshots, n_events = _replica_job(jobs[0])
    return EnsembleResult(times=cps, snapshots=snapshots, n_events=n_events)


def _replica_job(args):
    """Replicas lo..hi-1 of an ensemble, advanced in lockstep by event index.

    Each block of EVENT_BLOCK events per live replica is drawn into
    event-major (B, R_alive) arrays whose columns are sorted by the number of
    events the replica keeps from the block, so the replicas still running at
    event index e are a prefix of row e. Row e is then one gather, update and
    scatter on the flat (R * N) state. The update uses only correctly rounded
    operations and ``%``, and kac's cos/sin come from each replica's own
    draws, so a replica's rows do not depend on which replicas share its run.
    """
    model, offsets, t_end, cps, master_seed, initial, lo, hi = args
    n = offsets.size
    rngs = [replica_rng(master_seed, r) for r in range(lo, hi)]
    n_rep = len(rngs)
    state = np.empty((n_rep, n))
    for r, rng in enumerate(rngs):
        state[r] = _check_initial(model, _draw_initial(model, initial, n, rng))
    flat = state.reshape(-1)
    snapshots = np.empty((n_rep, cps.size, n))
    n_events = np.zeros(n_rep, dtype=np.int64)

    B = EVENT_BLOCK
    n_pairs = n * (n - 1) // 2
    alive = np.arange(n_rep)
    t0 = np.zeros(n_rep)  # time of each live replica's last event so far
    while alive.size:
        times = np.empty((alive.size, B))
        for c, r in enumerate(alive):
            times[c] = rngs[r].exponential(1.0 / n, B)
        times[:, 0] += t0[alive]
        np.cumsum(times, axis=1, out=times)
        kept = np.count_nonzero(times <= t_end, axis=1)
        n_events[alive] += kept

        # a checkpoint at or after t0 is resolved in this block unless all B
        # events precede it; its row is the state before event index `at`
        at = np.array([np.searchsorted(row, cps, side="right") for row in times]).T
        ci, c = np.nonzero((cps[:, None] >= t0[alive]) & (at < B))
        at, rows = at[ci, c], alive[c]
        full = kept == B
        t0[alive[full]] = times[full, -1]
        del times  # freed before the block arrays are drawn

        order = np.argsort(-kept, kind="stable")
        block = _draw_columns(model, offsets, n_pairs,
                              [rngs[r] for r in alive[order]], alive[order] * n)
        active = alive.size - np.searchsorted(np.sort(kept), np.arange(B), side="right")
        done = 0
        for e in np.unique(at):
            _advance(model.kind, flat, block, active, done, e)
            done = e
            now = at == e
            snapshots[rows[now], ci[now]] = state[rows[now]]
        _advance(model.kind, flat, block, active, done, kept.max())
        alive = alive[full]
    return snapshots, n_events


def _draw_columns(model: ModelSpec, offsets, n_pairs, rngs, bases):
    """One block per replica, in contract-v2 order, as event-major (B, R)
    update-table arrays with flat particle indices."""
    shape = (EVENT_BLOCK, len(rngs))
    idx_a = np.empty(shape, dtype=np.intp)
    idx_b = np.empty(shape, dtype=np.intp)
    val_a = np.empty(shape)
    val_b = None if model.kind == "cl" else np.empty(shape)
    for c, (rng, base) in enumerate(zip(rngs, bases)):
        a, b, va, vb = _update_table(model.kind, *_draw_block(model, offsets, n_pairs, rng))
        idx_a[:, c], idx_b[:, c], val_a[:, c] = a + base, b + base, va
        if vb is not None:
            val_b[:, c] = vb
    return idx_a, idx_b, val_a, val_b


def _advance(kind, flat, block, active, e0, e1):
    """Apply event indices e0..e1-1 of a block to the flat state."""
    idx_a, idx_b, val_a, val_b = block
    for e in range(e0, e1):
        a = active[e]
        ia, ib = idx_a[e, :a], idx_b[e, :a]
        if kind == "cl":
            flat[ib] = (flat[ia] + val_a[e, :a]) % TWO_PI
        elif kind == "bdg":
            vi, vj = flat[ia], flat[ib]
            delta = (vj - vi) % TWO_PI
            vbar = (vi + 0.5 * np.where(delta <= np.pi, delta, delta - TWO_PI)) % TWO_PI
            flat[ia] = (vbar + val_a[e, :a]) % TWO_PI
            flat[ib] = (vbar + val_b[e, :a]) % TWO_PI
        else:
            vi, vj = flat[ia], flat[ib]
            c, ns = val_a[e, :a], val_b[e, :a]
            flat[ia] = c * vi - ns * vj
            flat[ib] = ns * vi + c * vj
