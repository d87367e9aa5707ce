"""Batch experiment driver.

Subcommands: simulate, kinetic, invariant, oracle, verify. Each reads one
JSON config, writes its artifacts into --out, and is a pure function of
(config, seed): rerunning a command with the same inputs reproduces every
output byte for byte. CSV files start with a comment line carrying the
package version and the SHA-256 of the config file; floats are written with
17 significant digits. `simulate` writes `snapshots.jsonl`, compact JSON
lines (orjson) whose floats are printed in shortest round-trip form, so every
state parses back to the exact double; a state that is not finite has no
JSON form, and `simulate` refuses it (exit 1) rather than write `null`. The
JSON report of `verify` carries the version and hash inline, since a comment
line would break JSON parsers. `simulate`, `kinetic`, `oracle` and `verify`
also write a `run.json` sidecar with wall times (per stage, per scenario)
that vary between runs and are kept out of the reproducible artifacts; a bdg
`kinetic` run adds the solver's step and clip counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .circle import (
    FourierDensity,
    TabulatedNoise,
    UniformNoise,
    VonMisesNoise,
    WrappedNormalNoise,
)
from .diagnostics import SUMMARY_COLUMNS, summarize, summary_rows
from .invariant import (
    gamma_from_noise,
    heat_kernel_family,
    limit_profile,
    pair_correlation_closed,
)
from .kinetic import KineticConfig, bdg_evolve, cl_evolve
from .models import MAX_PARTICLES, ModelSpec, simulate_ensemble
from .oracle import build_transition, check_marginal, marginal, stationary
from .verify import MASTER_SEED, SCENARIOS, report_dict, run_scenario

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


def _finite(value) -> bool:
    """Whether a JSON number is a finite double; an integer may be too large for one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _get(cfg, path, types, required=True, default=None, check=None, expect=""):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"config field '{path}' is required")
            return default
        node = node[part]
    if isinstance(node, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"config field '{path}': expected {expect or 'a number'}, got {node!r}")
    if not isinstance(node, types):
        raise ConfigError(f"config field '{path}': expected {expect or types}, got {node!r}")
    if isinstance(node, (int, float)) and not _finite(node):
        got = "an integer beyond the double range" if isinstance(node, int) else repr(node)
        raise ConfigError(f"config field '{path}': expected a finite number, got {got}")
    if check is not None and not check(node):
        raise ConfigError(f"config field '{path}': expected {expect or 'a valid value'}, "
                          f"got {node!r}")
    return node


def _noise_from(cfg, path, required=True):
    node = _get(cfg, path, dict, required=required, expect="an object")
    if node is None:
        return None
    kind = _get(cfg, f"{path}.kind", str, expect="a noise kind")
    if kind == "uniform":
        return UniformNoise()
    if kind == "wrapped_normal":
        var = _get(cfg, f"{path}.param", (int, float), check=lambda v: v > 0,
                   expect="a positive variance")
        return WrappedNormalNoise(float(var))
    if kind == "von_mises":
        kappa = _get(cfg, f"{path}.param", (int, float), check=lambda v: v >= 0,
                     expect="a nonnegative concentration")
        return VonMisesNoise(float(kappa))
    if kind == "tabulated":
        values = _get(cfg, f"{path}.values", list, check=lambda v: len(v) >= 2,
                      expect="a list of grid values")
        try:
            return TabulatedNoise(np.asarray(values, dtype=float))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"config field '{path}.values': {exc}") from exc
    raise ConfigError(f"config field '{path}.kind': unknown noise kind {kind!r}")


def _checkpoints_from(cfg, t_end):
    cps = _get(cfg, "checkpoints", list, required=False, default=[t_end],
               expect="a list of times")
    if not cps:
        raise ConfigError("config field 'checkpoints': must not be empty")
    for i, t in enumerate(cps):
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not _finite(t):
            raise ConfigError(f"config field 'checkpoints[{i}]': expected a finite time")
    arr = [float(t) for t in cps]
    if any(b < a for a, b in zip(arr, arr[1:])) or arr[0] < 0.0 or arr[-1] > t_end:
        raise ConfigError("config field 'checkpoints': must be nondecreasing within [0, t_end]")
    return arr


def _check_modes(kmax, *laws):
    """Refuse K beyond what a tabulated law resolves: its ``fourier`` reads
    the DFT of M cells modulo M, so modes past M/2 - 1 would be aliases."""
    for law in laws:
        if isinstance(law, TabulatedNoise) and kmax > law.M // 2 - 1:
            raise ConfigError(f"config field 'K': a tabulated law of {law.M} cells "
                              f"resolves modes up to {law.M // 2 - 1}, got {kmax}")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: Path, config_hash: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# pairjump={__version__} config_sha256={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_run_json(out: Path, config_hash: str, command: str, stages: dict, **fields) -> None:
    """The run.json sidecar of a command: the version, config hash, command
    and `fields`, then `stages` (wall seconds per stage).

    Each stage time is printed as %.6e, a fixed width, so the file's size does
    not vary with the timings and the bytes a run writes repeat exactly for a
    given config.
    """
    fields.update(pairjump=__version__, config_sha256=config_hash, command=command)
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in sorted(fields.items())]
    times = ",\n".join(f"    {json.dumps(key)}: {value:.6e}" for key, value in stages.items())
    body = "\n".join(lines) + '\n  "stages": {\n' + times
    (out / "run.json").write_text("{\n" + body + "\n  }\n}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, out: Path, config_hash: str, workers: int) -> int:
    kind = _get(cfg, "model", str, check=lambda v: v in ("cl", "bdg", "kac"),
                expect="one of 'cl', 'bdg', 'kac'")
    n = _get(cfg, "n_particles", int, check=lambda v: 2 <= v <= MAX_PARTICLES,
             expect=f"an integer in [2, {MAX_PARTICLES}]")
    noise = _noise_from(cfg, "noise")
    t_end = float(_get(cfg, "t_end", (int, float), check=lambda v: v >= 0,
                       expect="a nonnegative time"))
    replicas = _get(cfg, "replicas", int, check=lambda v: v >= 1,
                    expect="an integer >= 1")
    seed = _get(cfg, "seed", int, check=lambda v: v >= 0, expect="a nonnegative integer seed")
    kmax = _get(cfg, "K", int, required=False, default=16,
                check=lambda v: v >= 1, expect="an integer >= 1")
    cps = _checkpoints_from(cfg, t_end)
    initial = _noise_from(cfg, "initial", required=False)
    if kind == "kac" and initial is not None:
        raise ConfigError("config field 'initial': not supported for the kac model "
                          "(states start uniform on the energy sphere)")
    model = ModelSpec(kind, noise)

    t0 = time.perf_counter()
    result = simulate_ensemble(model, n, t_end, cps, replicas, seed,
                               initial=initial, workers=workers)
    t1 = time.perf_counter()
    if not np.isfinite(result.snapshots).all():
        print("error: the simulation produced non-finite states, which JSON cannot "
              "hold; snapshots.jsonl not written", file=sys.stderr)
        return 1

    line = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(out / "snapshots.jsonl", "wb") as fh:
        fh.write(orjson.dumps({"header": {"pairjump": __version__,
                                          "config_sha256": config_hash}}, option=line))
        for r in range(result.n_replicas):
            for ti, t in enumerate(result.times):
                fh.write(orjson.dumps({"replica": r, "t": float(t),
                                       "state": result.snapshots[r, ti]}, option=line))
    t2 = time.perf_counter()

    # mode statistics need angles and at least two replicas; kac states are
    # velocities, so its summary is the header alone
    rows = []
    if replicas >= 2 and kind != "kac":
        rows = summary_rows(summarize(result, kmax=kmax))
    t3 = time.perf_counter()
    _write_csv(out / "summary.csv", config_hash, SUMMARY_COLUMNS, rows)
    t4 = time.perf_counter()
    _write_run_json(out, config_hash, "simulate", {
        "simulate_s": t1 - t0, "write_snapshots_s": t2 - t1,
        "summarize_s": t3 - t2, "write_summary_s": t4 - t3,
    }, events=int(result.n_events.sum()))
    return 0


def cmd_kinetic(cfg, out: Path, config_hash: str, workers: int) -> int:
    kind = _get(cfg, "model", str, check=lambda v: v in ("cl", "bdg"),
                expect="one of 'cl', 'bdg'")
    noise = _noise_from(cfg, "noise")
    initial = _noise_from(cfg, "initial")
    t_end = float(_get(cfg, "t_end", (int, float), check=lambda v: v >= 0,
                       expect="a nonnegative time"))
    cps = _checkpoints_from(cfg, t_end)
    kmax = _get(cfg, "K", int, required=False, default=64,
                check=lambda v: v >= 1, expect="an integer >= 1")
    M = _get(cfg, "M", int, required=False, default=256,
             check=lambda v: v >= 2 and v & (v - 1) == 0, expect="a power of two >= 2")
    dt = float(_get(cfg, "dt", (int, float), required=False, default=0.02))
    try:
        kcfg = KineticConfig(dt=dt)
    except ValueError as exc:
        raise ConfigError(f"config field 'dt': {exc}") from exc

    t0 = time.perf_counter()
    rows, fields = [], {}
    if kind == "cl":
        _check_modes(kmax, noise, initial)
        columns = ("t", "k", "fhat")
        k = np.arange(-kmax, kmax + 1)
        f0 = FourierDensity(np.asarray(initial.fourier(k), dtype=complex))
        for t in cps:
            sol = cl_evolve(f0, noise, t)
            for ki in range(kmax + 1):
                rows.append((t, ki, sol.coeff(ki).real))
    else:
        # checkpoints are nondecreasing, so each row continues the previous one;
        # `fields` sums the solver's counts over the legs
        columns = ("t", "theta", "f")
        sol, t_prev = initial.tabulate(M), 0.0
        for t in cps:
            sol, t_prev = bdg_evolve(sol, noise, t - t_prev, kcfg, fields), t
            rows.extend((t, theta, f) for theta, f in zip(sol.theta, sol.values))
    t1 = time.perf_counter()
    _write_csv(out / "kinetic.csv", config_hash, columns, rows)
    t2 = time.perf_counter()
    _write_run_json(out, config_hash, "kinetic", {"solve_s": t1 - t0, "write_s": t2 - t1},
                    **fields)
    return 0


def cmd_invariant(cfg, out: Path, config_hash: str, workers: int) -> int:
    n = _get(cfg, "n_particles", int, check=lambda v: v >= 3,
             expect="an integer >= 3")
    kmax = _get(cfg, "K", int, required=False, default=64,
                check=lambda v: v >= 1, expect="an integer >= 1")
    family_name = _get(cfg, "family", str, required=False)
    if family_name is not None:
        if family_name != "heat_kernel":
            raise ConfigError(f"config field 'family': unknown family {family_name!r}")
        if "noise" in cfg:
            raise ConfigError("config field 'noise': give 'family' or 'noise', not both")
        noise = heat_kernel_family(n)
    else:
        noise = _noise_from(cfg, "noise")
        _check_modes(kmax, noise)

    closed = pair_correlation_closed(noise, n, kmax)
    gamma = gamma_from_noise(noise, n, kmax)
    lim = limit_profile(np.minimum(gamma, 0.0))
    rows = [(k, closed.fhat[k], lim.fhat[k], gamma[k]) for k in range(kmax + 1)]
    _write_csv(out / "invariant.csv", config_hash,
               ("k", "Fhat_N", "Fhat_limit", "gamma_N"), rows)
    return 0


def cmd_oracle(cfg, out: Path, config_hash: str, workers: int) -> int:
    kind = _get(cfg, "model", str, check=lambda v: v in ("cl", "bdg"),
                expect="one of 'cl', 'bdg'")
    n = _get(cfg, "n_particles", int, check=lambda v: v >= 2,
             expect="an integer >= 2")
    m = _get(cfg, "M", int, check=lambda v: v >= 2 and v & (v - 1) == 0,
             expect="a power of two >= 2")
    noise = _noise_from(cfg, "noise")
    tol = float(_get(cfg, "tol", (int, float), required=False, default=1e-12,
                     check=lambda v: v > 0, expect="a positive tolerance"))
    coords_list = _get(cfg, "marginals", list, required=False, default=[[0], [0, 1]],
                       check=bool, expect="a nonempty list of coordinate lists")
    for i, coords in enumerate(coords_list):
        if (not isinstance(coords, list) or not coords
                or any(isinstance(c, bool) or not isinstance(c, int) for c in coords)):
            raise ConfigError(f"config field 'marginals[{i}]': expected a list of coordinates")
        try:
            check_marginal(n, m, coords)
        except ValueError as exc:
            raise ConfigError(f"config field 'marginals[{i}]': {exc}") from exc
        if coords in coords_list[:i]:
            raise ConfigError(f"config field 'marginals[{i}]': {coords!r} is listed twice")

    t0 = time.perf_counter()
    try:
        tm = build_transition(ModelSpec(kind, noise), n, m)
    except ValueError as exc:
        raise ConfigError(f"config field 'n_particles': {exc}") from exc
    t1 = time.perf_counter()
    solver = {}
    try:
        dist = stationary(tm, tol=tol, stats=solver)
    except RuntimeError as exc:  # the gap stopped falling: this tolerance is out of reach
        raise ConfigError(f"config field 'tol': {exc}") from exc
    t2 = time.perf_counter()

    rows = []
    for coords in coords_list:
        weights = marginal(dist, coords)
        label = "|".join(str(c) for c in coords)
        for idx in np.ndindex(weights.shape):
            rows.append((label, "|".join(str(i) for i in idx), weights[idx]))
    _write_csv(out / "oracle.csv", config_hash,
               ("marginal", "cell", "weight"), rows)
    t3 = time.perf_counter()
    halves = (tm.out, tm.into)
    _write_run_json(out, config_hash, "oracle",
                    {"build_s": t1 - t0, "stationary_s": t2 - t1, "write_s": t3 - t2},
                    states=tm.n_states, stored_entries=sum(h.nnz for h in halves),
                    matrix_bytes=sum(h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
                                     for h in halves),
                    **solver)
    return 0


def cmd_verify(cfg, out: Path, config_hash: str, workers: int) -> int:
    names = _get(cfg, "scenarios", list, required=False, default=sorted(SCENARIOS),
                 check=bool, expect="a nonempty list of scenario names")
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in SCENARIOS:
            raise ConfigError(f"config field 'scenarios[{i}]': unknown scenario {name!r}; "
                              f"expected one of {sorted(SCENARIOS)}")
        if name in names[:i]:
            raise ConfigError(f"config field 'scenarios[{i}]': {name!r} is listed twice")
    seed = _get(cfg, "seed", int, required=False, default=MASTER_SEED,
                check=lambda v: v >= 0, expect="a nonnegative integer seed")

    reports = [run_scenario(name, seed, workers) for name in names]
    payload = {
        "pairjump": __version__,
        "config_sha256": config_hash,
        "master_seed": seed,
        "passed": all(r.passed for r in reports),
        "scenarios": [report_dict(r) for r in reports],
    }
    (out / "verify.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # timings vary from run to run, so they go to a sidecar and verify.json
    # stays byte-identical
    _write_run_json(out, config_hash, "verify", {f"{r.scenario}_s": r.elapsed_s for r in reports})
    return 0 if payload["passed"] else 1


# each command and the top-level config fields it reads
COMMANDS = {
    "simulate": (cmd_simulate, "model n_particles noise initial t_end checkpoints replicas seed K"),
    "kinetic": (cmd_kinetic, "model noise initial t_end checkpoints K M dt"),
    "invariant": (cmd_invariant, "n_particles K family noise"),
    "oracle": (cmd_oracle, "model n_particles M noise tol marginals"),
    "verify": (cmd_verify, "scenarios seed"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairjump",
        description="Pair-interaction jump processes on the circle: "
                    "simulation, kinetic limits, stationary correlations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker count (default: CPU count)")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(raw)
    except ValueError as exc:  # also an integer too long to parse, or not UTF-8
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    command, fields = COMMANDS[args.command]
    unknown = next((name for name in cfg if name not in fields.split()), None)
    if unknown is not None:
        print(f"error: config field '{unknown}': not a field of {args.command}", file=sys.stderr)
        return 2

    workers = args.threads if args.threads is not None else os.cpu_count() or 1
    if workers < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = hashlib.sha256(raw).hexdigest()

    try:
        return command(cfg, out, config_hash, workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
