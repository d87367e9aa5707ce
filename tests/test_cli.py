"""End-to-end tests of the command line driver."""

import hashlib
import json
import math

import numpy as np
import pytest

from pairjump import __version__
from pairjump.circle import UniformNoise, VonMisesNoise, WrappedNormalNoise
from pairjump.cli import main
from pairjump.kinetic import KineticConfig, bdg_evolve
from pairjump.models import EnsembleResult, ModelSpec, simulate_ensemble
from pairjump.oracle import build_transition, stationary


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def simulate_config(**overrides):
    cfg = {"model": "cl", "n_particles": 10, "noise": {"kind": "uniform"},
           "t_end": 1.0, "replicas": 2, "seed": 1}
    cfg.update(overrides)
    return cfg


def first_line(path):
    return path.read_text().splitlines()[0]


def csv_rows(path):
    """Data rows of an output CSV, split into fields."""
    return [ln.split(",") for ln in path.read_text().splitlines()[2:]]


def run_twice(tmp_path, command, cfg):
    """Run a command into two directories; returns them."""
    outs = [tmp_path / sub for sub in ("a", "b")]
    for out in outs:
        assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    return outs


def check_run_sidecar(outs, cfg, command, fields, stages):
    """run.json holds the common fields, `fields` and `stages`, and its size
    repeats across reruns (fixed-width times)."""
    sizes = [(out / "run.json").stat().st_size for out in outs]
    assert sizes[0] == sizes[1]
    run = json.loads((outs[1] / "run.json").read_text())
    assert set(run) == {"pairjump", "config_sha256", "command", "stages"} | set(fields)
    assert run["pairjump"] == __version__
    assert run["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert run["command"] == command
    assert {key: run[key] for key in fields} == fields
    assert set(run["stages"]) == set(stages)
    for seconds in run["stages"].values():
        assert isinstance(seconds, float) and seconds >= 0.0


# an 8-cell table resolves modes |k| <= 3; beyond that its DFT aliases
TABLE8 = {"kind": "tabulated", "values": WrappedNormalNoise(0.5).tabulate(8).values.tolist()}


class TestSimulate:
    def test_smoke_and_header(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert first_line(out / "summary.csv") == \
            f"# pairjump={__version__} config_sha256={digest}"
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1] == "t,k,re_f1,im_f1,se_f1,re_C,se_C"
        assert len(lines) == 2 + 17  # one row per mode k = 0..16

        snaps = (out / "snapshots.jsonl").read_text().splitlines()
        header = json.loads(snaps[0])["header"]
        assert header == {"pairjump": __version__, "config_sha256": digest}
        records = [json.loads(s) for s in snaps[1:]]
        assert len(records) == 2  # replicas x checkpoints
        assert all(len(r["state"]) == 10 for r in records)
        assert {r["replica"] for r in records} == {0, 1}

    def test_snapshots_round_trip_exactly(self, tmp_path):
        payload = simulate_config(model="bdg", replicas=3, checkpoints=[0.0, 0.5, 1.0],
                                  noise={"kind": "wrapped_normal", "param": 0.3})
        cfg = write_config(tmp_path, "sim.json", payload)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        want = simulate_ensemble(ModelSpec("bdg", WrappedNormalNoise(0.3)), 10, 1.0,
                                 [0.0, 0.5, 1.0], 3, 1)
        records = [json.loads(s) for s in
                   (out / "snapshots.jsonl").read_text().splitlines()[1:]]
        assert [(r["replica"], r["t"]) for r in records] == \
            [(r, t) for r in range(3) for t in (0.0, 0.5, 1.0)]
        got = np.array([r["state"] for r in records]).reshape(want.snapshots.shape)
        assert np.array_equal(got, want.snapshots)

    def test_kac_snapshots_round_trip_exactly(self, tmp_path):
        # kac states are velocities on the sphere |v|^2 = N, not angles in [0, 2 pi)
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(model="kac", n_particles=3, replicas=4,
                                           checkpoints=[0.5, 1.0]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        want = simulate_ensemble(ModelSpec("kac", UniformNoise()), 3, 1.0, [0.5, 1.0], 4, 1)
        assert want.snapshots.min() < 0.0
        records = [json.loads(s) for s in
                   (out / "snapshots.jsonl").read_text().splitlines()[1:]]
        got = np.array([r["state"] for r in records]).reshape(want.snapshots.shape)
        assert np.array_equal(got, want.snapshots)

    def test_snapshot_lines_are_compact_json(self, tmp_path, monkeypatch):
        state = [0.5, -0.0, 1e-5, 2.5e-7, 1e16, -6.283185307179586]
        monkeypatch.setattr("pairjump.cli.simulate_ensemble", lambda *a, **k: EnsembleResult(
            times=np.array([0.0, 0.5]), snapshots=np.array([[state, state[::-1]]]),
            n_events=np.array([3])))
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(n_particles=6, replicas=1, t_end=0.5,
                                           checkpoints=[0.0, 0.5]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        blob = (out / "snapshots.jsonl").read_bytes()
        assert blob == (
            b'{"header":{"pairjump":"%s","config_sha256":"%s"}}\n'
            b'{"replica":0,"t":0.0,"state":[0.5,-0.0,0.00001,2.5e-7,1e16,-6.283185307179586]}\n'
            b'{"replica":0,"t":0.5,"state":[-6.283185307179586,1e16,2.5e-7,0.00001,-0.0,0.5]}\n'
            % (__version__.encode(), digest.encode()))
        records = [json.loads(s) for s in blob.decode().splitlines()]
        assert [r["state"] for r in records[1:]] == [state, state[::-1]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_refuses_non_finite_state(self, tmp_path, monkeypatch, capsys, bad):
        def poisoned(*args, **kwargs):
            result = simulate_ensemble(*args, **kwargs)
            result.snapshots[1, 0, 3] = bad
            return result

        monkeypatch.setattr("pairjump.cli.simulate_ensemble", poisoned)
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "snapshots.jsonl").exists()

    def test_run_sidecar_counts_events_and_stages(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config(replicas=3))
        sizes = []
        for sub in ("a", "out"):
            out = tmp_path / sub
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0
            sizes.append((out / "run.json").stat().st_size)
        assert sizes[0] == sizes[1]  # fixed-width times: the size repeats
        run = json.loads((out / "run.json").read_text())
        assert set(run) == {"pairjump", "config_sha256", "command", "events", "stages"}
        assert run["pairjump"] == __version__
        assert run["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert run["command"] == "simulate"
        want = simulate_ensemble(ModelSpec("cl", UniformNoise()), 10, 1.0, [1.0], 3, 1)
        assert run["events"] == int(want.n_events.sum()) > 0
        assert set(run["stages"]) == {"simulate_s", "write_snapshots_s",
                                      "summarize_s", "write_summary_s"}
        for seconds in run["stages"].values():
            assert isinstance(seconds, float) and seconds >= 0.0

    def test_kac_summary_is_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(model="kac", replicas=3))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("# pairjump=")
        assert lines[1:] == ["t,k,re_f1,im_f1,se_f1,re_C,se_C"]
        states = [json.loads(s)["state"] for s in
                  (out / "snapshots.jsonl").read_text().splitlines()[1:]]
        assert len(states) == 3
        assert np.sum(np.square(states), axis=1) == pytest.approx([10.0] * 3, rel=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config(replicas=3))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0
            outs.append(out)
        for name in ("snapshots.jsonl", "summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config(replicas=4))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
            blobs.append((out / "snapshots.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_rejects_zero_replicas_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", simulate_config(replicas=0))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--threads", "1"])
        assert rc != 0
        assert "replicas" in capsys.readouterr().err

    def test_rejects_unknown_noise_kind_naming_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(noise={"kind": "levy"}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--threads", "1"])
        assert rc != 0
        assert "noise.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, (1 << 24) + 1])
    def test_rejects_n_particles_out_of_range(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, "sim.json", simulate_config(n_particles=n))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2
        assert "config field 'n_particles': " in capsys.readouterr().err

    def test_rejects_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", simulate_config(seed=-1))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2
        assert "config field 'seed'" in capsys.readouterr().err

    def test_rejects_kac_initial_density(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(model="kac",
                                           initial={"kind": "uniform"}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--threads", "1"])
        assert rc != 0
        assert "initial" in capsys.readouterr().err

    def test_bad_json_and_missing_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "not valid JSON" in capsys.readouterr().err
        bad.write_text('{"t_end": ' + "9" * 5000 + "}")  # past Python's int parsing limit
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "cannot read config" in capsys.readouterr().err


class TestKinetic:
    def test_spectral_rows_match_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "cl", "noise": {"kind": "uniform"},
            "initial": {"kind": "wrapped_normal", "param": 0.5},
            "t_end": 1.0, "checkpoints": [0.0, 1.0], "K": 3})
        out = tmp_path / "out"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "kinetic.csv").read_text().splitlines()
        assert lines[1] == "t,k,fhat"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 2 * 4
        # floats are written with 17 significant digits: the parsed value is
        # bit-exact against the closed form fhat(1, t) = e^{-1/4} e^{-t}
        by_key = {(float(t), int(k)): float(v) for t, k, v in rows}
        assert by_key[(0.0, 1)] == math.exp(-0.25)
        assert by_key[(1.0, 1)] == math.exp(-0.25) * math.exp(-1.0)
        assert by_key[(1.0, 0)] == 1.0

    def test_von_mises_noise_rows_match_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "cl", "noise": {"kind": "von_mises", "param": 2.0},
            "initial": {"kind": "wrapped_normal", "param": 0.5},
            "t_end": 1.0, "checkpoints": [0.0, 0.5, 1.0], "K": 3})
        out = tmp_path / "out"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        rows = [ln.split(",") for ln in (out / "kinetic.csv").read_text().splitlines()[2:]]
        mode1 = {float(t): float(v) for t, k, v in rows if k == "1"}
        f1, g1 = WrappedNormalNoise(0.5).fourier(1), VonMisesNoise(2.0).fourier(1)
        assert mode1 == {t: f1 * math.exp((g1 - 1.0) * t) for t in (0.0, 0.5, 1.0)}

    def test_grid_rows_conserve_mass(self, tmp_path):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "wrapped_normal", "param": 0.2},
            "initial": {"kind": "wrapped_normal", "param": 0.5},
            "t_end": 0.2, "M": 64})
        out = tmp_path / "out"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "kinetic.csv").read_text().splitlines()
        assert lines[1] == "t,theta,f"
        vals = np.array([float(ln.split(",")[2]) for ln in lines[2:]])
        assert vals.size == 64
        assert vals.sum() * (2 * np.pi / 64) == pytest.approx(1.0, abs=1e-12)

    def test_checkpoints_chain(self, tmp_path):
        # each checkpoint continues from the previous one; the per-call
        # renormalization makes the chain agree with a single run only to
        # rounding
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "wrapped_normal", "param": 0.2},
            "initial": {"kind": "wrapped_normal", "param": 0.3},
            "t_end": 1.0, "checkpoints": [0, 0.5, 1], "M": 128})
        out = tmp_path / "out"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        rows = np.array(csv_rows(out / "kinetic.csv"), dtype=float).reshape(3, 128, 3)
        f0 = WrappedNormalNoise(0.3).tabulate(128)
        assert np.array_equal(rows[:, :, 0], [[0.0] * 128, [0.5] * 128, [1.0] * 128])
        assert np.array_equal(rows[0, :, 1], f0.theta)
        assert np.array_equal(rows[0, :, 2], f0.values)
        direct = bdg_evolve(f0, WrappedNormalNoise(0.2), 1.0, KineticConfig(dt=0.02))
        np.testing.assert_allclose(rows[2, :, 2], direct.values, rtol=0, atol=1e-12)

    def test_run_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "wrapped_normal", "param": 0.2},
            "initial": {"kind": "wrapped_normal", "param": 0.5},
            "t_end": 0.2, "checkpoints": [0.0, 0.2], "M": 64})
        outs = run_twice(tmp_path, "kinetic", cfg)
        stats = {}
        bdg_evolve(WrappedNormalNoise(0.5).tabulate(64), WrappedNormalNoise(0.2), 0.2,
                   KineticConfig(dt=0.02), stats)
        assert stats["rk4_steps"] == 10
        check_run_sidecar(outs, cfg, "kinetic", stats, {"solve_s", "write_s"})
        assert (outs[0] / "kinetic.csv").read_bytes() == (outs[1] / "kinetic.csv").read_bytes()

    def test_dt_type_error_has_one_prefix(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "uniform"},
            "initial": {"kind": "uniform"}, "t_end": 0.1, "dt": True})
        assert main(["kinetic", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: config field 'dt'")

    @pytest.mark.parametrize("field", ["noise", "initial"])
    def test_refuses_modes_a_table_aliases(self, tmp_path, capsys, field):
        payload = {"model": "cl", "noise": {"kind": "uniform"},
                   "initial": {"kind": "wrapped_normal", "param": 0.5}, "t_end": 1.0}
        payload[field] = TABLE8
        cfg = write_config(tmp_path, "kin.json", dict(payload, K=4))
        out = tmp_path / "o"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 2
        assert "config field 'K'" in capsys.readouterr().err
        assert not (out / "kinetic.csv").exists()
        cfg = write_config(tmp_path, "kin.json", dict(payload, K=3))
        assert main(["kinetic", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        assert len(csv_rows(out / "kinetic.csv")) == 4

    def test_bdg_table_ignores_mode_count(self, tmp_path):
        # the grid solver writes densities, not modes, so K does not apply
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "uniform"}, "initial": TABLE8,
            "t_end": 0.1, "M": 16, "K": 64})
        assert main(["kinetic", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 0

    def test_rejects_bad_dt(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "uniform"},
            "initial": {"kind": "uniform"}, "t_end": 0.1, "dt": 0.5})
        assert main(["kinetic", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "config field 'dt':" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("M", 100), ("M", 1), ("K", 0),
                                             ("rate_factor", 1.0)])
    def test_rejects_bad_sizes_naming_field(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "uniform"},
            "initial": {"kind": "wrapped_normal", "param": 0.5},
            "t_end": 0.1, field: value})
        assert main(["kinetic", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert f"'{field}'" in capsys.readouterr().err


class TestInvariant:
    def test_heat_kernel_columns(self, tmp_path):
        cfg = write_config(tmp_path, "inv.json",
                           {"family": "heat_kernel", "n_particles": 1000, "K": 4})
        out = tmp_path / "out"
        assert main(["invariant", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "invariant.csv").read_text().splitlines()
        assert lines[1] == "k,Fhat_N,Fhat_limit,gamma_N"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        k1 = rows[1]
        assert float(k1[3]) == pytest.approx(-1.0, rel=3e-3)   # gamma_N(1)
        assert float(k1[1]) == pytest.approx(0.5, rel=1e-3)    # Fhat_N(1)
        assert float(k1[2]) == pytest.approx(0.5, rel=2e-3)    # plug-in limit

    def test_fixed_noise_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "inv.json", {
            "noise": {"kind": "wrapped_normal", "param": 0.5},
            "n_particles": 10, "K": 8})
        assert main(["invariant", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 0

    def test_refuses_modes_a_table_aliases(self, tmp_path, capsys):
        payload = {"noise": TABLE8, "n_particles": 10}
        cfg = write_config(tmp_path, "inv.json", dict(payload, K=4))
        out = tmp_path / "o"
        assert main(["invariant", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 2
        assert "config field 'K'" in capsys.readouterr().err
        assert not (out / "invariant.csv").exists()
        cfg = write_config(tmp_path, "inv.json", dict(payload, K=3))
        assert main(["invariant", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        assert len(csv_rows(out / "invariant.csv")) == 4

    def test_refuses_family_together_with_noise(self, tmp_path, capsys):
        # either noise alone would be used; together, neither is chosen silently
        cfg = write_config(tmp_path, "inv.json", {
            "family": "heat_kernel", "noise": {"kind": "uniform"},
            "n_particles": 1000, "K": 4})
        out = tmp_path / "o"
        assert main(["invariant", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 2
        assert "config field 'noise'" in capsys.readouterr().err
        assert not (out / "invariant.csv").exists()

    def test_rejects_small_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "inv.json",
                           {"family": "heat_kernel", "n_particles": 2})
        assert main(["invariant", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "n_particles" in capsys.readouterr().err


class TestOracle:
    def test_two_particle_marginals(self, tmp_path):
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 2, "M": 8,
            "noise": {"kind": "wrapped_normal", "param": 0.5},
            "marginals": [[0], [0, 1]]})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[1] == "marginal,cell,weight"
        rows = [ln.split(",") for ln in lines[2:]]
        one = [float(r[2]) for r in rows if r[0] == "0"]
        assert len(one) == 8
        assert one == pytest.approx([1 / 8] * 8, abs=1e-10)
        pair = [float(r[2]) for r in rows if r[0] == "0|1"]
        assert len(pair) == 64
        assert sum(pair) == pytest.approx(1.0, abs=1e-12)

    def test_run_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, "orc.json", {
            "model": "bdg", "n_particles": 2, "M": 8,
            "noise": {"kind": "wrapped_normal", "param": 0.5}})
        outs = run_twice(tmp_path, "oracle", cfg)
        tm = build_transition(ModelSpec("bdg", WrappedNormalNoise(0.5)), 2, 8)
        solver, halves = {}, (tm.out, tm.into)
        stationary(tm, stats=solver)
        check_run_sidecar(outs, cfg, "oracle", {
            "states": 36,  # C(9, 2) multisets of 2 cells out of 8
            "stored_entries": sum(h.nnz for h in halves),
            "matrix_bytes": sum(h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
                                for h in halves),
            "power_iterations": solver["power_iterations"], "final_gap": solver["final_gap"],
        }, {"build_s", "stationary_s", "write_s"})
        assert (outs[0] / "oracle.csv").read_bytes() == (outs[1] / "oracle.csv").read_bytes()

    def test_refuses_state_space_beyond_cap(self, tmp_path, capsys):
        # 170544 multisets of 7 cells out of 16: 32868480 entries held
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 7, "M": 16,
            "noise": {"kind": "uniform"}})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "config field 'n_particles': " in err and "32868480" in err

    def test_refuses_marginal_beyond_cap_before_building(self, tmp_path, capsys,
                                                         monkeypatch):
        def refuse(*args):
            raise AssertionError("transition matrix built before validation")

        monkeypatch.setattr("pairjump.cli.build_transition", refuse)
        # 12!/2! ordered draws of ten particles from each of 455 states
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 12, "M": 4, "noise": {"kind": "uniform"},
            "marginals": [[0], list(range(10))]})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "config field 'marginals[1]'" in err and "over the cap" in err

    @pytest.mark.parametrize("field,value", [("M", 6), ("M", 1)])
    def test_rejects_bad_sizes_naming_field(self, tmp_path, capsys, monkeypatch,
                                            field, value):
        def refuse(*args):
            raise AssertionError("transition matrix built before validation")

        monkeypatch.setattr("pairjump.cli.build_transition", refuse)
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 2, "noise": {"kind": "uniform"}, field: value})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "power of two" in err

    @pytest.mark.parametrize("coords", [[0, 5], [1, 1], [0]],
                             ids=["out-of-range", "repeated", "listed-twice"])
    def test_rejects_bad_marginals_before_building(self, tmp_path, capsys, monkeypatch,
                                                  coords):
        def refuse(*args):
            raise AssertionError("transition matrix built before validation")

        monkeypatch.setattr("pairjump.cli.build_transition", refuse)
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 3, "M": 4, "noise": {"kind": "uniform"},
            "marginals": [[0], coords]})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert "marginals[1]" in capsys.readouterr().err

    def test_rejects_empty_marginals_before_building(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("transition matrix built before validation")

        monkeypatch.setattr("pairjump.cli.build_transition", refuse)
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 3, "M": 4, "noise": {"kind": "uniform"},
            "marginals": []})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert "config field 'marginals'" in capsys.readouterr().err

    def test_unreachable_tol_is_refused_naming_field(self, tmp_path, capsys):
        # the L1 gap stops falling near 1e-16, which refuses the tolerance
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 3, "M": 8,
            "noise": {"kind": "wrapped_normal", "param": 0.5}, "tol": 1e-300})
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "config field 'tol'" in err and "stalled at L1 gap" in err
        assert not (out / "oracle.csv").exists()


class TestNonFiniteConfig:
    """JSON accepts NaN, Infinity and integers beyond the double range; every
    command must refuse them, naming the field."""

    NAN_TABLE = {"kind": "tabulated", "values": [math.nan] + TABLE8["values"][1:]}
    HUGE = 10 ** 400

    @pytest.mark.parametrize("command,payload,field", [
        ("simulate", simulate_config(t_end=math.inf), "t_end"),
        ("simulate", simulate_config(checkpoints=[0.5, math.nan]), "checkpoints[1]"),
        ("simulate", simulate_config(t_end=HUGE), "t_end"),
        ("simulate", simulate_config(checkpoints=[0.5, HUGE]), "checkpoints[1]"),
        ("kinetic", {"model": "bdg", "noise": NAN_TABLE, "initial": {"kind": "uniform"},
                     "t_end": 0.1}, "noise.values"),
        ("kinetic", {"model": "cl", "noise": {"kind": "uniform"}, "initial": TABLE8,
                     "t_end": 0.1, "dt": -math.inf}, "dt"),
        ("oracle", {"model": "cl", "n_particles": 2, "M": 8, "noise": NAN_TABLE},
         "noise.values"),
        ("oracle", {"model": "cl", "n_particles": 2, "M": 8,
                    "noise": {"kind": "tabulated", "values": [HUGE] + TABLE8["values"][1:]}},
         "noise.values"),
        ("oracle", {"model": "cl", "n_particles": 2, "M": 8, "noise": {"kind": "uniform"},
                    "tol": math.inf}, "tol"),
    ], ids=["simulate-t_end", "simulate-checkpoint", "simulate-huge-t_end",
            "simulate-huge-checkpoint", "kinetic-table", "kinetic-dt", "oracle-table",
            "oracle-huge-table", "oracle-tol"])
    def test_refused_naming_field(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err


class TestUnknownFields:
    """A config field no command reads is a typo or a setting that does not
    exist: each command refuses it, naming it, before any work."""

    @pytest.mark.parametrize("command,payload,field", [
        ("simulate", simulate_config(intial={"kind": "uniform"}), "intial"),
        ("kinetic", {"model": "bdg", "noise": {"kind": "uniform"},
                     "initial": {"kind": "uniform"}, "t_end": 0.1, "Dt": 0.001}, "Dt"),
        ("invariant", {"family": "heat_kernel", "n_particles": 10, "M": 64}, "M"),
        ("oracle", {"model": "cl", "n_particles": 2, "M": 8, "noise": {"kind": "uniform"},
                    "seed": 1}, "seed"),
        ("verify", {"scenarios": ["A3"], "replicas": 10}, "replicas"),
    ], ids=["simulate", "kinetic", "invariant", "oracle", "verify"])
    def test_refused_naming_field(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 2
        assert capsys.readouterr().err == (f"error: config field '{field}': "
                                           f"not a field of {command}\n")
        assert not out.exists()


class TestVerify:
    def test_report_written_and_passing(self, tmp_path):
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A2", "A3"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["pairjump"] == __version__
        assert payload["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert payload["passed"] is True
        names = [s["scenario"] for s in payload["scenarios"]]
        assert names == ["A2", "A3"]
        for s in payload["scenarios"]:
            for c in s["checks"]:
                assert set(c) == {"name", "measured", "bound", "passed"}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A3"]})
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["verify", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0
            blobs.append((out / "verify.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_run_sidecar_holds_timings_kept_out_of_report(self, tmp_path):
        # two runs: the sidecar's size repeats, as for the other commands
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A3", "A2"]})
        outs = run_twice(tmp_path, "verify", cfg)
        check_run_sidecar(outs, cfg, "verify", {}, {"A3_s", "A2_s"})
        run = json.loads((outs[0] / "run.json").read_text())
        assert list(run["stages"]) == ["A3_s", "A2_s"]
        assert "elapsed" not in (outs[0] / "verify.json").read_text()

    def test_rejects_repeated_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A3", "A2", "A3"]})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert "config field 'scenarios[2]'" in capsys.readouterr().err

    def test_rejects_empty_scenario_list(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("scenario run before validation")

        monkeypatch.setattr("pairjump.cli.run_scenario", refuse)
        cfg = write_config(tmp_path, "ver.json", {"scenarios": []})
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 2
        assert "config field 'scenarios'" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_rejects_negative_seed(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("scenario run before validation")

        monkeypatch.setattr("pairjump.cli.run_scenario", refuse)
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A5"], "seed": -5})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) == 2
        assert "config field 'seed'" in capsys.readouterr().err

    def test_rejects_unknown_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A9"]})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "scenarios[0]" in capsys.readouterr().err
