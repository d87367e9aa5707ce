"""Executable acceptance scenarios for the whole package.

Each scenario (named A1..A7) runs one end-to-end check with a fixed master
seed and reports every assertion with its measured value, bound, and verdict.
The scenarios double as the statistical regression suite: they use the same
public entry points a batch experiment would.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .circle import (
    TWO_PI,
    FourierDensity,
    GridDensity,
    NoiseSpec,
    TabulatedNoise,
    UniformNoise,
    WrappedNormalNoise,
    fourier_coeffs,
)
from .diagnostics import (
    chaos_distance,
    compare_flow,
    iid_chaos_mean,
    iid_chaos_samples,
    summarize,
)
from .invariant import heat_kernel_family, pair_correlation_closed, pair_correlation_series
from .kinetic import RATE_FACTOR, KineticConfig, bdg_evolve, bdg_gain, bisector_tables, cl_evolve
from .models import ModelSpec, replica_rng, sample_kac_state, simulate, simulate_ensemble
from .oracle import build_transition, marginal, pair_difference_profile, stationary

__all__ = [
    "MASTER_SEED",
    "SCENARIOS",
    "Check",
    "ScenarioReport",
    "run_scenario",
    "report_dict",
    "canonical_bytes",
]

MASTER_SEED = 20260814


@dataclass
class Check:
    name: str
    measured: float
    bound: str
    passed: bool


def _check(name: str, measured, bound: str, passed) -> Check:
    return Check(name=name, measured=float(measured), bound=bound, passed=bool(passed))


@dataclass
class ScenarioReport:
    scenario: str
    title: str
    passed: bool
    checks: List[Check]
    details: dict
    elapsed_s: float


def report_dict(report: ScenarioReport) -> dict:
    return {
        "scenario": report.scenario,
        "title": report.title,
        "passed": report.passed,
        "checks": [vars(c) for c in report.checks],
        "details": report.details,
    }


def canonical_bytes(report: ScenarioReport) -> bytes:
    """Deterministic serialization used for byte-identity comparisons."""
    return json.dumps(report_dict(report), sort_keys=True,
                      separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# scenarios


def _a1(seed: int, workers: int):
    """Exact stationary pair correlation vs the closed form at N=3, M=16."""
    g = TabulatedNoise(WrappedNormalNoise(0.5).tabulate(16).values)
    tm = build_transition(ModelSpec("cl", g), 3, 16)
    st = stationary(tm)

    one = marginal(st, [0])
    uniform_dev = float(np.max(np.abs(one - 1.0 / 16)))

    prof = pair_difference_profile(marginal(st, [0, 1]))
    theta = np.arange(16) * (TWO_PI / 16)
    emp = (np.exp(-1j * np.outer(np.arange(5), theta)) @ prof).real
    closed = pair_correlation_closed(g, 3, 4).fhat
    rel = np.abs(emp[1:] - closed[1:]) / np.abs(closed[1:])

    checks = [
        _check("pair-correlation relative error, modes 1..4", rel.max(),
               "< 0.01", rel.max() < 0.01),
        _check("one-particle marginal deviation from uniform", uniform_dev,
               "< 1e-08", uniform_dev < 1e-8),
    ]
    details = {
        "empirical_fhat": [float(x) for x in emp],
        "closed_form_fhat": [float(x) for x in closed],
    }
    return checks, details


def _a2(seed: int, workers: int):
    """Truncated series vs closed form of the pair correlation."""
    checks = []
    for n in (3, 10, 100):
        for var in (0.1, 1.0):
            g = WrappedNormalNoise(var)
            prof, bound = pair_correlation_series(g, n, 64, tol=1e-10)
            closed = pair_correlation_closed(g, n, 64)
            dev = float(np.max(np.abs(prof.fhat - closed.fhat)))
            checks.append(_check(
                f"max |series - closed| at N={n}, var={var:g} (tail {bound:.2e})",
                dev, "< 1e-10", dev < 1e-10))
    return checks, {}


def _a3(seed: int, workers: int):
    """1/N convergence of the finite-N profile to the scaling limit."""
    checks = []
    details = {}
    for k in (1, 2, 3):
        lim = 1.0 / (1.0 + k * k)
        errs = [
            abs(pair_correlation_closed(heat_kernel_family(n), n, 4).coeff(k) - lim)
            for n in (10**3, 10**4)
        ]
        ratio = errs[0] / errs[1]
        checks.append(_check(f"error ratio N=1e3 / N=1e4 at k={k}", ratio,
                             "in [8, 12]", 8.0 <= ratio <= 12.0))
        details[f"errors_k{k}"] = [float(e) for e in errs]
    return checks, details


def _a4(seed: int, workers: int):
    """Chaos distance decreases with N and ends below the i.i.d. noise floor."""
    var = 0.5
    g = WrappedNormalNoise(var)
    model = ModelSpec("cl", g)
    kmax = 16
    f_ref = cl_evolve(FourierDensity(g.fourier(np.arange(-kmax, kmax + 1))), g, 1.0)

    dvals: Dict[int, float] = {}
    for n in (50, 200, 800):
        ens = simulate_ensemble(model, n, 1.0, [1.0], 400, seed,
                                initial=g, workers=workers)
        dvals[n] = chaos_distance(summarize(ens, kmax=kmax), f_ref)

    floor = iid_chaos_samples(f_ref, 800, 400, kmax, 300,
                              np.random.default_rng([seed, 4]))
    p99 = float(np.quantile(floor, 0.99))

    checks = [
        _check("D(50) / D(200)", dvals[50] / dvals[200], "> 1", dvals[50] > dvals[200]),
        _check("D(200) / D(800)", dvals[200] / dvals[800], "> 1", dvals[200] > dvals[800]),
        _check("D(800) vs i.i.d. noise-floor 99th percentile", dvals[800],
               f"< {p99:.3e}", dvals[800] < p99),
    ]
    details = {"D": {str(n): dvals[n] for n in dvals}, "floor_p99": p99,
               "floor_mean": float(floor.mean()),
               "floor_mean_exact": iid_chaos_mean(f_ref, 800, 400, kmax)}
    return checks, details


def _a5(seed: int, workers: int):
    """Mode-1 decay under uniform noise selects the event-rate normalization."""
    times = (0.5, 1.0, 2.0)
    f0 = WrappedNormalNoise(0.5)
    ens = simulate_ensemble(ModelSpec("cl", UniformNoise()), 2000, 2.0,
                            list(times), 200, seed, initial=f0, workers=workers)
    s = summarize(ens, kmax=1)
    f01 = math.exp(-0.25)

    zmax = {}
    for rf in (1.0, 2.0):
        ref = np.array([[1.0, f01 * math.exp(-rf * t / 2)] for t in times])
        z = compare_flow(s, ref)
        zmax[rf] = float(np.max(np.abs(z[:, 1])))

    matched = [rf for rf in (1.0, 2.0) if zmax[rf] < 4.0]
    selected = matched[0] if len(matched) == 1 else None
    checks = [
        _check("rate factors with all |z(1,t)| < 4", len(matched), "== 1",
               len(matched) == 1),
    ]
    if selected is not None:
        other = 3.0 - selected
        checks.append(_check(f"max |z| at rate_factor={selected:g} (selected)",
                             zmax[selected], "< 4", zmax[selected] < 4.0))
        checks.append(_check(f"max |z| at rate_factor={other:g} (excluded)",
                             zmax[other], "> 8", zmax[other] > 8.0))
        checks.append(_check("selected rate factor is the library default",
                             selected, f"== {RATE_FACTOR:g}",
                             selected == RATE_FACTOR))
    details = {
        "selected_rate_factor": selected,
        "max_abs_z": {f"{rf:g}": zmax[rf] for rf in zmax},
    }
    return checks, details


def _quadrature_gain(f: GridDensity, g: NoiseSpec) -> np.ndarray:
    """O(M^3) reference for the midpoint-then-noise gain (independent path)."""
    M = f.M
    pm = np.outer(f.masses, f.masses)
    gv = g.tabulate(M).masses
    lo, hi, w_hi = bisector_tables(M)
    out = np.empty(M)
    for m in range(M):
        out[m] = (pm * ((1.0 - w_hi) * gv[(m - lo) % M]
                        + w_hi * gv[(m - hi) % M])).sum()
    return out


def _a6(seed: int, workers: int):
    """Midpoint-model ensemble vs the grid kinetic solver, plus solver checks."""
    g = WrappedNormalNoise(0.2)
    f0 = WrappedNormalNoise(0.5)
    cfg = KineticConfig(dt=0.02)

    ens = simulate_ensemble(ModelSpec("bdg", g), 2000, 0.5, [0.5], 200, seed,
                            initial=f0, workers=workers)
    s = summarize(ens, kmax=2)
    f0_grid = f0.tabulate(256)
    sol = bdg_evolve(f0_grid, g, 0.5, cfg)
    f_kin = fourier_coeffs(sol, 2)

    checks = []
    details = {"rate_factor": RATE_FACTOR, "abs_z": {}}
    for k in (1, 2):
        z = abs(s.f1[0, k] - f_kin.coeff(k)) / s.f1_se[0, k]
        checks.append(_check(f"|z| of mode {k} vs kinetic solution", z, "< 4", z < 4.0))
        details["abs_z"][str(k)] = float(z)

    gain_stats = {}
    gain_dev = float(np.max(np.abs(bdg_gain(f0_grid, g, gain_stats).masses
                                   - _quadrature_gain(f0_grid, g))))
    checks.append(_check("gain vs quadrature reference at M=256", gain_dev,
                         "< 1e-08", gain_dev < 1e-8))
    details["gain"] = gain_stats

    cfg_half = KineticConfig(dt=cfg.dt / 2)
    conv = float(np.max(np.abs(sol.masses - bdg_evolve(f0_grid, g, 0.5, cfg_half).masses)))
    checks.append(_check("self-convergence under dt halving", conv,
                         "< 1e-06", conv < 1e-6))
    return checks, details


def _a7(seed: int, workers: int):
    """Structural invariants: energy, stochasticity, mass, determinism."""
    checks = []
    details = {}

    # energy conservation over more than 1e6 pair rotations
    rng = replica_rng(seed, 0)
    v0 = sample_kac_state(50, rng)
    res = simulate(ModelSpec("kac", UniformNoise()), v0, 21_000.0, rng)
    drift = abs(float(np.mean(res.final_state**2)) - 1.0)
    checks.append(_check(f"relative energy drift over {res.n_events} events",
                         drift, "< 1e-12", drift < 1e-12))
    checks.append(_check("event count", res.n_events, ">= 1e6",
                         res.n_events >= 1_000_000))
    details["kac_events"] = int(res.n_events)

    # transition matrices are row stochastic for both circle models
    g = TabulatedNoise(WrappedNormalNoise(0.5).tabulate(16).values)
    for kind in ("cl", "bdg"):
        tm = build_transition(ModelSpec(kind, g), 3, 16)
        dev = float(np.max(np.abs(tm.P @ np.ones(tm.n_states) - 1.0)))
        checks.append(_check(f"row-sum deviation, {kind} transition matrix",
                             dev, "< 1e-12", dev < 1e-12))

    # mass conservation in both kinetic solvers
    gw = WrappedNormalNoise(0.2)
    f0 = WrappedNormalNoise(0.5)
    m_cl = abs(cl_evolve(FourierDensity(f0.fourier(np.arange(-16, 17))), gw, 3.0).coeff(0) - 1.0)
    checks.append(_check("mode-0 drift of the spectral solver", m_cl,
                         "< 1e-12", m_cl < 1e-12))
    m_bdg = abs(bdg_evolve(f0.tabulate(128), gw, 0.5).masses.sum() - 1.0)
    checks.append(_check("mass drift of the grid solver", m_bdg,
                         "< 1e-12", m_bdg < 1e-12))

    # every other scenario's report (cached, or run now if none is) against
    # one fresh rerun: two independent executions must give the same bytes
    for name in ("A1", "A2", "A3", "A4", "A5", "A6"):
        b1 = canonical_bytes(run_scenario(name, seed, workers))
        b2 = canonical_bytes(run_scenario(name, seed, workers, fresh=True))
        checks.append(_check(f"{name} rerun is byte-identical",
                             float(b1 == b2), "== 1", b1 == b2))
    return checks, details


SCENARIOS = {
    "A1": ("exact stationary pair correlation matches the closed form", _a1),
    "A2": ("series and closed forms of the pair correlation agree", _a2),
    "A3": ("finite-N profiles approach the scaling limit like 1/N", _a3),
    "A4": ("chaos distance decays with N under the leader dynamics", _a4),
    "A5": ("mode decay arbitrates the event-rate normalization", _a5),
    "A6": ("midpoint-model ensembles match the grid kinetic solver", _a6),
    "A7": ("structural invariants hold and reruns are byte-identical", _a7),
}

_report_cache: Dict[tuple, ScenarioReport] = {}


def run_scenario(name: str, master_seed: int = MASTER_SEED, workers: int = 1,
                 fresh: bool = False) -> ScenarioReport:
    """Run one named scenario; results are cached per (name, seed) unless fresh."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    key = (name, master_seed, workers)
    if not fresh and key in _report_cache:
        return _report_cache[key]
    title, fn = SCENARIOS[name]
    t0 = time.perf_counter()
    checks, details = fn(master_seed, workers)
    report = ScenarioReport(
        scenario=name,
        title=title,
        passed=all(c.passed for c in checks),
        checks=checks,
        details=details,
        elapsed_s=time.perf_counter() - t0,
    )
    _report_cache[key] = report
    return report
