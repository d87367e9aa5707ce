"""Batch experiment driver.

Subcommands: simulate, kinetic, invariant, oracle, verify. Each reads one
JSON config, writes its artifacts into --out, and is a pure function of
(config, seed): rerunning a command with the same inputs reproduces every
output byte for byte. CSV files start with a comment line carrying the
package version and the SHA-256 of the config file; floats are written with
17 significant digits. The JSON report of `verify` carries the same fields
inline, since a comment line would break JSON parsers. `verify` also writes a
`run.json` sidecar with each scenario's wall time, which varies between runs
and is kept out of `verify.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circle import (
    TWO_PI,
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
from .kinetic import RATE_FACTOR, KineticConfig, bdg_evolve_checkpoints, cl_evolve
from .models import ModelSpec, simulate_ensemble
from .oracle import build_transition, marginal, stationary
from .verify import MASTER_SEED, SCENARIOS, report_dict, run_scenario

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


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
    if check is not None and not check(node):
        raise ConfigError(f"config field '{path}': invalid value {node!r}")
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
        except ValueError as exc:
            raise ConfigError(f"config field '{path}.values': {exc}") from exc
    raise ConfigError(f"config field '{path}.kind': unknown noise kind {kind!r}")


def _checkpoints_from(cfg, t_end):
    cps = _get(cfg, "checkpoints", list, required=False, default=[t_end],
               expect="a list of times")
    if not cps:
        raise ConfigError("config field 'checkpoints': must not be empty")
    for i, t in enumerate(cps):
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ConfigError(f"config field 'checkpoints[{i}]': expected a time")
    arr = [float(t) for t in cps]
    if any(b < a for a, b in zip(arr, arr[1:])) or arr[0] < 0.0 or arr[-1] > t_end:
        raise ConfigError("config field 'checkpoints': must be nondecreasing within [0, t_end]")
    return arr


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path: Path, config_hash: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# pairjump={__version__} config_sha256={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, out: Path, config_hash: str, workers: int) -> int:
    kind = _get(cfg, "model", str, check=lambda v: v in ("cl", "bdg", "kac"),
                expect="one of 'cl', 'bdg', 'kac'")
    n = _get(cfg, "n_particles", int, check=lambda v: v >= 2,
             expect="an integer >= 2")
    noise = _noise_from(cfg, "noise")
    t_end = float(_get(cfg, "t_end", (int, float), check=lambda v: v >= 0,
                       expect="a nonnegative time"))
    replicas = _get(cfg, "replicas", int, check=lambda v: v >= 1,
                    expect="an integer >= 1")
    seed = _get(cfg, "seed", int, expect="an integer seed")
    kmax = _get(cfg, "K", int, required=False, default=16,
                check=lambda v: v >= 1, expect="an integer >= 1")
    cps = _checkpoints_from(cfg, t_end)
    initial = _noise_from(cfg, "initial", required=False)
    if kind == "kac" and initial is not None:
        raise ConfigError("config field 'initial': not supported for the kac model "
                          "(states start uniform on the energy sphere)")
    model = ModelSpec(kind, noise)

    result = simulate_ensemble(model, n, t_end, cps, replicas, seed,
                               initial=initial, workers=workers)

    with open(out / "snapshots.jsonl", "w") as fh:
        fh.write(json.dumps({"header": {"pairjump": __version__,
                                        "config_sha256": config_hash}}) + "\n")
        for r in range(result.n_replicas):
            for ti, t in enumerate(result.times):
                fh.write(json.dumps({"replica": r, "t": float(t),
                                     "state": result.snapshots[r, ti].tolist()}) + "\n")

    # mode statistics need angles and at least two replicas; kac states are
    # velocities, so its summary is the header alone
    rows = []
    if replicas >= 2 and kind != "kac":
        rows = summary_rows(summarize(result, kmax=kmax))
    _write_csv(out / "summary.csv", config_hash, SUMMARY_COLUMNS, rows)
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
    if "rate_factor" in cfg:
        raise ConfigError("config field 'rate_factor': not a setting; the kinetic "
                          f"time scale is fixed (RATE_FACTOR = {RATE_FACTOR:g})")
    try:
        kcfg = KineticConfig(
            dt=float(_get(cfg, "dt", (int, float), required=False, default=0.02)))
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    rows = []
    if kind == "cl":
        k = np.arange(-kmax, kmax + 1)
        f0 = FourierDensity(np.asarray(initial.fourier(k), dtype=complex))
        for t in cps:
            sol = cl_evolve(f0, noise, t)
            for ki in range(kmax + 1):
                rows.append((t, ki, sol.coeff(ki).real))
        _write_csv(out / "kinetic.csv", config_hash, ("t", "k", "fhat"), rows)
    else:
        f0 = initial.tabulate(M)
        theta = np.arange(M) * (TWO_PI / M)
        for t, sol in zip(cps, bdg_evolve_checkpoints(f0, noise, cps, kcfg)):
            for m in range(M):
                rows.append((t, theta[m], sol.values[m]))
        _write_csv(out / "kinetic.csv", config_hash, ("t", "theta", "f"), rows)
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
        family = heat_kernel_family
    else:
        noise = _noise_from(cfg, "noise")
        family = lambda _n: noise  # noqa: E731 - fixed noise for every N

    closed = pair_correlation_closed(family(n), n, kmax)
    gamma = gamma_from_noise(family, n, kmax)
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
    m = _get(cfg, "M", int, check=lambda v: v >= 2, expect="an integer >= 2")
    noise = _noise_from(cfg, "noise")
    tol = float(_get(cfg, "tol", (int, float), required=False, default=1e-12,
                     check=lambda v: v > 0, expect="a positive tolerance"))
    coords_list = _get(cfg, "marginals", list, required=False,
                       default=[[0], [0, 1]], expect="a list of coordinate lists")
    for i, coords in enumerate(coords_list):
        if (not isinstance(coords, list) or not coords
                or any(isinstance(c, bool) or not isinstance(c, int) for c in coords)):
            raise ConfigError(f"config field 'marginals[{i}]': expected a list of coordinates")
        if len(set(coords)) != len(coords) or min(coords) < 0 or max(coords) >= n:
            raise ConfigError(f"config field 'marginals[{i}]': coordinates must be "
                              f"distinct and in 0..{n - 1}, got {coords!r}")

    try:
        tm = build_transition(ModelSpec(kind, noise), n, m)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    dist = stationary(tm, tol=tol)

    rows = []
    for coords in coords_list:
        weights = marginal(dist, coords)
        label = "|".join(str(c) for c in coords)
        for idx in np.ndindex(weights.shape):
            rows.append((label, "|".join(str(i) for i in idx), weights[idx]))
    _write_csv(out / "oracle.csv", config_hash,
               ("marginal", "cell", "weight"), rows)
    return 0


def cmd_verify(cfg, out: Path, config_hash: str, workers: int) -> int:
    names = _get(cfg, "scenarios", list, required=False,
                 default=sorted(SCENARIOS), expect="a list of scenario names")
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in SCENARIOS:
            raise ConfigError(f"config field 'scenarios[{i}]': unknown scenario {name!r}; "
                              f"expected one of {sorted(SCENARIOS)}")
    seed = _get(cfg, "seed", int, required=False, default=MASTER_SEED,
                expect="an integer seed")

    reports = [run_scenario(name, seed, workers) for name in names]
    payload = {
        "pairjump": __version__,
        "config_sha256": config_hash,
        "master_seed": seed,
        "passed": all(r.passed for r in reports),
        "scenarios": [report_dict(r) for r in reports],
    }
    _write_json(out / "verify.json", payload)
    # timings vary from run to run, so they go to a sidecar and verify.json
    # stays byte-identical
    _write_json(out / "run.json", {
        "pairjump": __version__,
        "config_sha256": config_hash,
        "command": "verify",
        "scenarios": [{"scenario": r.scenario, "elapsed_s": r.elapsed_s} for r in reports],
    })
    return 0 if payload["passed"] else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "kinetic": cmd_kinetic,
    "invariant": cmd_invariant,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def _default_threads() -> int:
    env = os.environ.get("PAIRJUMP_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
        print(f"warning: ignoring invalid PAIRJUMP_THREADS={env!r}", file=sys.stderr)
    return os.cpu_count() or 1


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
                       help="worker count (default: PAIRJUMP_THREADS or CPU count)")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    workers = args.threads if args.threads is not None else _default_threads()
    if workers < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = hashlib.sha256(raw).hexdigest()

    try:
        return COMMANDS[args.command](cfg, out, config_hash, workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
