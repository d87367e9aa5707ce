"""Interacting particle systems driven by pairwise jump events.

Three models share one event skeleton: events arrive at total rate N, the
pair is uniform over the N(N-1)/2 unordered pairs, and only the chosen pair
changes state.

* ``bdg``: both particles jump to the shorter-arc angular midpoint of the
  pair, then each adds independent noise.
* ``cl``: a fair coin picks a leader; the follower moves to the leader's
  angle plus noise, the leader keeps its angle.
* ``kac``: state is a velocity vector on the energy sphere sum(v_i^2) = N;
  the pair is rotated by a noise angle, which conserves the energy exactly.

Simulation is event-driven and exact (no time discretization): waiting times
are Exp(N), and each replica owns a counter-based generator derived from
(master_seed, replica_index), so results are reproducible and independent of
scheduling.

``simulate`` is the scalar reference: after whatever the caller drew from
the generator, it draws per event the waiting time, the pair index and the
model draws, in that order; ``replay`` applies its event log.

``simulate_ensemble`` follows draw-order contract v2. Replica r, on
``replica_rng(master_seed, r)``, draws its initial state first, then events
in blocks of B = EVENT_BLOCK. Each block draws, in this order:

* ``exponential(1/N, B)`` waiting times;
* ``integers(N(N-1)/2, B)`` pair indices, decoded lexicographically;
* the model draws: cl ``integers(2, B)`` coins (1: i leads), then
  ``noise.sample(rng, B)``; bdg ``noise.sample(rng, 2B)``, event-major
  (w_i, w_j); kac ``noise.sample(rng, B)`` rotation angles.

Event times are the running sum of the waiting times. The first time past
t_end ends the replica, and the rest of that block is discarded. A
checkpoint row is the state after every event at or before the checkpoint.
Replica r of an ensemble is therefore a trajectory of the same law as
``simulate`` on ``replica_rng(master_seed, r)``, but not the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .circle import TWO_PI, GridDensity, NoiseSpec, sample_grid_density, wrap_angle

__all__ = [
    "ModelSpec",
    "JumpEvent",
    "SimulationResult",
    "EnsembleResult",
    "midpoint_angle",
    "bdg_pair_update",
    "cl_pair_update",
    "kac_pair_update",
    "kac_state",
    "sample_kac_state",
    "sample_initial_chaotic",
    "replica_rng",
    "simulate",
    "replay",
    "simulate_ensemble",
]

MODEL_KINDS = ("bdg", "cl", "kac")
EVENT_BLOCK = 1024  # events drawn per replica at a time by simulate_ensemble


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


@dataclass(frozen=True)
class JumpEvent:
    """One jump: event time, the ordered pair (i < j), and the model draws.

    draws is (w_i, w_j) for bdg, (b, z) for cl with b = 1 meaning particle i
    leads, and (theta,) for kac.
    """

    time: float
    i: int
    j: int
    draws: tuple


@dataclass(eq=False)
class SimulationResult:
    times: np.ndarray            # checkpoint times, shape (T,)
    states: np.ndarray           # state at each checkpoint, shape (T, N)
    final_state: np.ndarray      # state at t_end, shape (N,)
    n_events: int
    events: Optional[list] = None
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
# pair updates


def midpoint_angle(vi: float, vj: float) -> float:
    """Midpoint of the shorter arc between two angles.

    For antipodal inputs the two arcs tie; the convention is vi + pi/2, i.e.
    the midpoint of the arc running counterclockwise from vi. The map is
    deterministic for every input, so near-antipodal pairs never need special
    handling.
    """
    delta = (vj - vi) % TWO_PI
    if delta <= np.pi:
        return (vi + 0.5 * delta) % TWO_PI
    return (vi + 0.5 * (delta - TWO_PI)) % TWO_PI


def bdg_pair_update(vi, vj, wi, wj):
    """Both particles move to the pair midpoint plus independent noise."""
    vbar = midpoint_angle(vi, vj)
    return (vbar + wi) % TWO_PI, (vbar + wj) % TWO_PI


def cl_pair_update(vi, vj, b, z):
    """Coin b = 1: i leads and j moves to vi + z; b = 0: j leads."""
    if b:
        return vi, (vi + z) % TWO_PI
    return (vj + z) % TWO_PI, vj


def kac_pair_update(vi, vj, theta):
    """Rotate the velocity pair by theta; vi^2 + vj^2 is conserved."""
    c, s = np.cos(theta), np.sin(theta)
    return c * vi + s * vj, -s * vi + c * vj


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
    if isinstance(f, GridDensity):
        return sample_grid_density(f, rng, n_particles)
    if isinstance(f, NoiseSpec):
        return np.asarray(f.sample(rng, n_particles))
    raise ValueError("initial law must be a GridDensity or NoiseSpec")


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Counter-based generator for one replica; streams never overlap."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([master_seed, replica])))


def _pair_offsets(n: int) -> np.ndarray:
    # offsets[i] = number of pairs (a, b) with a < i, for lexicographic decode
    i = np.arange(n)
    return i * (n - 1) - (i * (i - 1)) // 2


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


def simulate(model: ModelSpec, initial, t_end: float, rng: np.random.Generator,
             checkpoints: Sequence[float] = (), record_events: bool = False,
             event_log_cap: int = 1_000_000) -> SimulationResult:
    """Run one trajectory to t_end, recording the state at each checkpoint.

    Parameters
    ----------
    model : ModelSpec
    initial : array_like
        Angles (bdg, cl) or velocities on the energy sphere (kac).
    t_end : float
        Horizon; events after t_end do not happen.
    rng : numpy.random.Generator
        Owned by this trajectory; the caller controls seeding.
    checkpoints : sequence of float
        Nondecreasing times in [0, t_end]; the state is recorded just before
        the first event past each checkpoint.
    record_events : bool
        Keep a log of JumpEvent entries, at most event_log_cap of them; the
        result is flagged truncated if the cap is hit.

    Returns
    -------
    SimulationResult
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    state = _check_initial(model, initial)
    n = state.size
    cps = np.asarray(checkpoints, dtype=float)
    if cps.size and (np.any(np.diff(cps) < 0.0) or cps[0] < 0.0 or cps[-1] > t_end):
        raise ValueError("checkpoints must be nondecreasing and lie in [0, t_end]")

    offsets = _pair_offsets(n)
    n_pairs = n * (n - 1) // 2
    mean_wait = 1.0 / n
    kind = model.kind
    noise = model.noise

    times = cps
    snaps = np.empty((cps.size, n))
    events: Optional[list] = [] if record_events else None
    truncated = False
    n_events = 0
    t = 0.0
    ci = 0

    while True:
        t_next = t + rng.exponential(mean_wait)
        while ci < cps.size and cps[ci] < t_next:
            snaps[ci] = state
            ci += 1
        if t_next > t_end:
            break
        m = int(rng.integers(n_pairs))
        i = int(np.searchsorted(offsets, m, side="right")) - 1
        j = m - offsets[i] + i + 1
        if kind == "cl":
            b = int(rng.integers(2))
            z = noise.sample(rng)
            state[i], state[j] = cl_pair_update(state[i], state[j], b, z)
            draws = (b, z)
        elif kind == "bdg":
            wi = noise.sample(rng)
            wj = noise.sample(rng)
            state[i], state[j] = bdg_pair_update(state[i], state[j], wi, wj)
            draws = (wi, wj)
        else:
            theta = noise.sample(rng)
            state[i], state[j] = kac_pair_update(state[i], state[j], theta)
            draws = (theta,)
        t = t_next
        n_events += 1
        if events is not None:
            if len(events) < event_log_cap:
                events.append(JumpEvent(t, i, int(j), draws))
            else:
                truncated = True
    while ci < cps.size:
        snaps[ci] = state
        ci += 1

    return SimulationResult(times=times, states=snaps, final_state=state.copy(),
                            n_events=n_events, events=events, events_truncated=truncated)


def replay(model: ModelSpec, initial, events: Sequence[JumpEvent]) -> np.ndarray:
    """Apply a recorded event log to an initial state; no randomness."""
    state = _check_initial(model, initial)
    for ev in events:
        i, j = ev.i, ev.j
        if model.kind == "cl":
            state[i], state[j] = cl_pair_update(state[i], state[j], *ev.draws)
        elif model.kind == "bdg":
            state[i], state[j] = bdg_pair_update(state[i], state[j], *ev.draws)
        else:
            state[i], state[j] = kac_pair_update(state[i], state[j], *ev.draws)
    return state


def _draw_initial(model: ModelSpec, initial, n_particles: int, rng) -> np.ndarray:
    if initial is None:
        if model.kind == "kac":
            return sample_kac_state(n_particles, rng)
        return rng.random(n_particles) * TWO_PI
    return sample_initial_chaotic(initial, n_particles, rng)


def simulate_ensemble(model: ModelSpec, n_particles: int, t_end: float,
                      checkpoints: Sequence[float], n_replicas: int, master_seed: int,
                      initial: Union[GridDensity, NoiseSpec, None] = None,
                      workers: int = 1) -> EnsembleResult:
    """Independent replicas with per-replica seeded streams (draw-order contract v2).

    initial = None draws uniform angles (or a uniform point on the energy
    sphere for kac); otherwise each replica starts from N i.i.d. draws from
    ``initial``. All replicas advance together, one event index at a time;
    ``workers > 1`` splits them into contiguous blocks run in worker
    processes. Output is identical for any ``workers`` value.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    cps = np.asarray(checkpoints, dtype=float)
    if cps.size and (np.any(np.diff(cps) < 0.0) or cps[0] < 0.0 or cps[-1] > t_end):
        raise ValueError("checkpoints must be nondecreasing and lie in [0, t_end]")

    n_jobs = max(1, min(workers, n_replicas))
    cuts = [n_replicas * k // n_jobs for k in range(n_jobs + 1)]
    jobs = [(model, n_particles, t_end, cps, master_seed, initial, lo, hi)
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
    model, n, t_end, cps, master_seed, initial, lo, hi = args
    rngs = [replica_rng(master_seed, r) for r in range(lo, hi)]
    n_rep = len(rngs)
    state = np.empty((n_rep, n))
    for r, rng in enumerate(rngs):
        state[r] = _check_initial(model, _draw_initial(model, initial, n, rng))
    flat = state.reshape(-1)
    snapshots = np.empty((n_rep, cps.size, n))
    n_events = np.zeros(n_rep, dtype=np.int64)

    B = EVENT_BLOCK
    offsets = _pair_offsets(n)
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
        block = _draw_block(model, offsets, n_pairs,
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


def _draw_block(model: ModelSpec, offsets, n_pairs, rngs, bases):
    """One block of draws per replica, in contract-v2 order, as event-major
    arrays: flat particle indices (cl: leader, follower) and model values."""
    B = EVENT_BLOCK
    shape = (B, len(rngs))
    idx_a = np.empty(shape, dtype=np.intp)
    idx_b = np.empty(shape, dtype=np.intp)
    val_a = np.empty(shape)
    val_b = None if model.kind == "cl" else np.empty(shape)
    noise = model.noise
    for c, (rng, base) in enumerate(zip(rngs, bases)):
        m = rng.integers(n_pairs, size=B)
        i = np.searchsorted(offsets, m, side="right") - 1
        j = m - offsets[i] + i + 1 + base
        i += base
        if model.kind == "cl":
            i_leads = rng.integers(2, size=B).astype(bool)
            idx_a[:, c] = np.where(i_leads, i, j)
            idx_b[:, c] = np.where(i_leads, j, i)
            val_a[:, c] = noise.sample(rng, B)
        elif model.kind == "bdg":
            idx_a[:, c], idx_b[:, c] = i, j
            w = noise.sample(rng, 2 * B)
            val_a[:, c], val_b[:, c] = w[0::2], w[1::2]
        else:
            idx_a[:, c], idx_b[:, c] = i, j
            theta = noise.sample(rng, B)
            val_a[:, c], val_b[:, c] = np.cos(theta), np.sin(theta)
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
            c, s = val_a[e, :a], val_b[e, :a]
            flat[ia] = c * vi + s * vj
            flat[ib] = -s * vi + c * vj
