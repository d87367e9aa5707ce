"""Spans around the public functions of pairjump, recorded from outside.

A ``Tracer`` replaces each traced function at every pairjump module attribute
that holds it (for example ``pairjump.cli.simulate_ensemble`` and
``pairjump.models.simulate_ensemble``), so calls made inside the package are
captured without editing it. Per-event functions such as ``NoiseSpec.sample``
are never wrapped: a wrapper there would cost more than the work it times.

Spans live in memory while a traced round runs; ``layer_metrics`` turns one
round's spans into the per-layer metrics and ``write_spans`` writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _noise_tag(noise) -> str:
    return {"WrappedNormalNoise": "wn", "UniformNoise": "uniform",
            "TabulatedNoise": "tab"}.get(type(noise).__name__, type(noise).__name__)


def _simulate_attrs(a, result):
    model = a["model"]
    return {"events": int(result.n_events), "tag": f"{model.kind}_{_noise_tag(model.noise)}"}


def _replay_attrs(a, result):
    return {"events": len(a["events"])}


def _initial_attrs(a, result):
    return {"angles": int(a["n_particles"])}


def _grid_sample_attrs(a, result):
    return {"angles": int(math.prod(result.shape)) if hasattr(result, "shape") else 1}


def _summarize_attrs(a, result):
    R, T, N = a["result"].snapshots.shape
    return {"terms": R * T * N * a["kmax"]}


def _floor_attrs(a, result):
    return {"terms": a["n_boot"] * a["n_replicas"] * a["n_particles"] * a["kmax"]}


def _bdg_attrs(a, result):
    # step count as bdg_evolve derives it from t and dt; each step is 4 RHS calls
    t, dt = a["t"], a["config"].dt
    steps = 0 if t == 0.0 else max(1, int(math.ceil(t / dt - 1e-12)))
    return {"M": int(a["f0"].M), "rk4_steps": steps, "rhs_evals": 4 * steps}


def _build_attrs(a, result):
    P = result.P
    return {"model": a["model"].kind, "M": int(a["grid_size"]), "nnz": int(P.nnz),
            "matrix_bytes": int(P.data.nbytes + P.indices.nbytes + P.indptr.nbytes)}


def _series_attrs(a, result):
    from pairjump.invariant import series_terms_for  # not traced, so no extra span

    L = a["L"] if a["L"] is not None else series_terms_for(a["n_particles"], a["tol"])
    return {"series_terms": int(L)}


def _cli_attrs(a, result):
    argv = list(a["argv"])
    out = argv[argv.index("--out") + 1]
    return {"bytes_written": sum(e.stat().st_size for e in os.scandir(out) if e.is_file())}


# (module, function, attribute extractor); the span name is "module.function"
TARGETS = (
    ("cli", "main", _cli_attrs),
    ("models", "simulate_ensemble", None),
    ("models", "simulate", _simulate_attrs),
    ("models", "replay", _replay_attrs),
    ("models", "sample_initial_chaotic", _initial_attrs),
    ("models", "sample_kac_state", None),
    ("circle", "sample_grid_density", _grid_sample_attrs),
    ("diagnostics", "summarize", _summarize_attrs),
    ("diagnostics", "iid_chaos_samples", _floor_attrs),
    ("diagnostics", "chaos_distance", None),
    ("kinetic", "cl_evolve", None),
    ("kinetic", "bdg_evolve", _bdg_attrs),
    ("oracle", "build_transition", _build_attrs),
    ("oracle", "stationary", None),
    ("oracle", "marginal", None),
    ("invariant", "pair_correlation_closed", None),
    ("invariant", "pair_correlation_series", _series_attrs),
)


class Tracer:
    """Records nested spans while ``active``; wrappers cost one flag test when off."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for mod_name, fn_name, attrs in TARGETS:
            module = sys.modules[f"pairjump.{mod_name}"]
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs)
            for name, mod in list(sys.modules.items()):
                if name != "pairjump" and not name.startswith("pairjump."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _open(self, name: str, attrs: dict) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs, "start": time.perf_counter() - self._t0}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_fn is not None:
                span["attrs"].update(attrs_fn(_bound(fn, args, kwargs), result))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, **attrs):
        """A benchmark-side span, e.g. around one job; no-op when inactive."""
        if not self.active:
            yield
            return
        span = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(span)

    def take_round(self) -> list:
        """Spans recorded since the last call; the stack must be empty."""
        assert not self._stack, "take_round called inside an open span"
        spans, self.spans = self.spans, []
        return spans

    def write_spans(self, path, rounds) -> None:
        """Write spans as JSON lines: run id, round, name, start, end, parent, attrs."""
        with open(path, "w") as fh:
            for r, spans in rounds:
                for i, s in enumerate(spans):
                    fh.write(json.dumps({"run": self.run_id, "round": r, "id": i, **s},
                                        sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans

EVENT_TAGS = ("cl_wn", "cl_uniform", "cl_tab", "bdg_wn", "kac_uniform")
BDG_GRIDS = (256, 512, 1024)
SAMPLE_SPANS = ("circle.sample_grid_density", "models.sample_initial_chaotic")

# name -> unit; every traced run reports all of them, with 0 where a layer is idle
LAYER_UNITS = {
    "models.simulate_s": "s",
    "models.simulate_calls": "count",
    "models.events": "count",
    **{f"models.events_per_s.{tag}": "1/s" for tag in EVENT_TAGS},
    "models.ensemble_self_s": "s",
    "models.replay_s": "s",
    "models.replay_events_per_s": "1/s",
    "circle.sample_s": "s",
    "circle.angles_sampled": "count",
    "circle.sample_angles_per_s": "1/s",
    "diagnostics.summarize_s": "s",
    "diagnostics.iid_floor_s": "s",
    "diagnostics.iid_floor_self_s": "s",
    "diagnostics.mode_terms_per_s": "1/s",
    **{f"kinetic.bdg_evolve_s.M{m}": "s" for m in BDG_GRIDS},
    "kinetic.cl_evolve_s": "s",
    "kinetic.rk4_steps": "count",
    "kinetic.rhs_evals": "count",
    "kinetic.table_bytes": "bytes",
    **{f"oracle.build_s.{k}": "s" for k in ("cl", "bdg")},
    **{f"oracle.stationary_s.{k}": "s" for k in ("cl", "bdg")},
    "oracle.marginal_s": "s",
    **{f"oracle.nnz.{k}": "count" for k in ("cl", "bdg")},
    **{f"oracle.matrix_bytes.{k}": "bytes" for k in ("cl", "bdg")},
    "invariant.closed_s": "s",
    "invariant.series_s": "s",
    "invariant.series_terms": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
}

# counts that must repeat exactly across rounds and across runs with one seed
EXACT_COUNTS = ("models.simulate_calls", "models.events", "circle.angles_sampled",
                "kinetic.rk4_steps", "kinetic.rhs_evals", "kinetic.table_bytes",
                "oracle.nnz.cl", "oracle.nnz.bdg", "oracle.matrix_bytes.cl",
                "oracle.matrix_bytes.bdg", "invariant.series_terms", "cli.bytes_written")


def _covered(intervals) -> float:
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _covered(children[i]) for i, s in enumerate(spans)]


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (see LAYER_UNITS for the names)."""
    selfs = self_times(spans)

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield p
            p = spans[p]["parent"]

    def model_of(i):
        for j in (i, *ancestors(i)):
            if "model" in spans[j]["attrs"]:
                return spans[j]["attrs"]["model"]
        return None

    def select(name, pred=lambda i: True):
        return [i for i, s in enumerate(spans) if s["name"] == name and pred(i)]

    def dur(idx):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx)

    def attr(idx, key):  # a call that raised has no attributes
        return sum(spans[i]["attrs"].get(key, 0) for i in idx)

    m = {}
    sim = select("models.simulate")
    m["models.simulate_s"] = dur(sim)
    m["models.simulate_calls"] = len(sim)
    m["models.events"] = attr(sim, "events")
    for tag in EVENT_TAGS:
        idx = [i for i in sim if spans[i]["attrs"].get("tag") == tag]
        m[f"models.events_per_s.{tag}"] = _ratio(attr(idx, "events"), dur(idx))
    m["models.ensemble_self_s"] = sum(selfs[i] for i in select("models.simulate_ensemble"))
    rep = select("models.replay")
    m["models.replay_s"] = dur(rep)
    m["models.replay_events_per_s"] = _ratio(attr(rep, "events"), dur(rep))

    # bulk draws; a draw nested in another draw span is counted once
    draws = [i for i, s in enumerate(spans) if s["name"] in SAMPLE_SPANS
             and not any(spans[j]["name"] in SAMPLE_SPANS for j in ancestors(i))]
    m["circle.sample_s"] = dur(draws)
    m["circle.angles_sampled"] = attr(draws, "angles")
    m["circle.sample_angles_per_s"] = _ratio(m["circle.angles_sampled"], m["circle.sample_s"])

    summ, floor = select("diagnostics.summarize"), select("diagnostics.iid_chaos_samples")
    m["diagnostics.summarize_s"] = dur(summ)
    m["diagnostics.iid_floor_s"] = dur(floor)
    m["diagnostics.iid_floor_self_s"] = sum(selfs[i] for i in floor)
    m["diagnostics.mode_terms_per_s"] = _ratio(
        attr(summ, "terms") + attr(floor, "terms"),
        m["diagnostics.summarize_s"] + m["diagnostics.iid_floor_self_s"])

    bdg = select("kinetic.bdg_evolve")
    for grid in BDG_GRIDS:
        on_grid = [i for i in bdg if spans[i]["attrs"].get("M") == grid]
        m[f"kinetic.bdg_evolve_s.M{grid}"] = dur(on_grid)
    m["kinetic.cl_evolve_s"] = dur(select("kinetic.cl_evolve"))
    m["kinetic.rk4_steps"] = attr(bdg, "rk4_steps")
    m["kinetic.rhs_evals"] = attr(bdg, "rhs_evals")
    build = select("oracle.build_transition")
    grids = {spans[i]["attrs"].get("M") for i in bdg}
    grids |= {spans[i]["attrs"].get("M") for i in build if spans[i]["attrs"].get("model") == "bdg"}
    grids.discard(None)
    m["kinetic.table_bytes"] = sum(24 * g * g for g in grids)  # lo, hi, w_hi: 3 x 8 bytes

    for kind in ("cl", "bdg"):
        b = [i for i in build if spans[i]["attrs"].get("model") == kind]
        m[f"oracle.build_s.{kind}"] = dur(b)
        m[f"oracle.stationary_s.{kind}"] = dur(select("oracle.stationary",
                                                      lambda i: model_of(i) == kind))
        m[f"oracle.nnz.{kind}"] = attr(b, "nnz")
        m[f"oracle.matrix_bytes.{kind}"] = attr(b, "matrix_bytes")
    m["oracle.marginal_s"] = dur(select("oracle.marginal"))

    m["invariant.closed_s"] = dur(select("invariant.pair_correlation_closed"))
    series = select("invariant.pair_correlation_series")
    m["invariant.series_s"] = dur(series)
    m["invariant.series_terms"] = attr(series, "series_terms")

    cli = select("cli.main")
    m["cli.self_s"] = sum(selfs[i] for i in cli)
    m["cli.bytes_written"] = attr(cli, "bytes_written")
    m["cli.write_mb_per_s"] = _ratio(m["cli.bytes_written"] / 1e6, m["cli.self_s"])
    assert set(m) == set(LAYER_UNITS)
    return m
