"""End-to-end tests of the command line driver."""

import hashlib
import json
import math

import numpy as np
import pytest

from pairjump import __version__
from pairjump.circle import WrappedNormalNoise
from pairjump.cli import main
from pairjump.models import ModelSpec, simulate_ensemble


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
        assert lines[1] == "t,k,re_f1,im_f1,se_f1,re_C,im_C,se_C,z_kinetic"
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

    def test_kac_summary_is_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(model="kac", replicas=3))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("# pairjump=")
        assert lines[1:] == ["t,k,re_f1,im_f1,se_f1,re_C,im_C,se_C,z_kinetic"]
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

    def test_rejects_kac_initial_density(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           simulate_config(model="kac",
                                           initial={"kind": "uniform"}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--threads", "1"])
        assert rc != 0
        assert "initial" in capsys.readouterr().err

    def test_env_var_sets_default_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRJUMP_THREADS", "1")
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0

    def test_bad_json_and_missing_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
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

    def test_rejects_bad_dt(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kin.json", {
            "model": "bdg", "noise": {"kind": "uniform"},
            "initial": {"kind": "uniform"}, "t_end": 0.1, "dt": 0.5})
        assert main(["kinetic", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "dt" in capsys.readouterr().err

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

    def test_refuses_state_space_beyond_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "orc.json", {
            "model": "cl", "n_particles": 10, "M": 4,
            "noise": {"kind": "uniform"}})
        assert main(["oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "1048576" in capsys.readouterr().err

    @pytest.mark.parametrize("coords", [[0, 5], [1, 1]], ids=["out-of-range", "repeated"])
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
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A3", "A2"]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        run = json.loads((out / "run.json").read_text())
        assert set(run) == {"pairjump", "config_sha256", "command", "scenarios"}
        assert run["pairjump"] == __version__
        assert run["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert run["command"] == "verify"
        assert [s["scenario"] for s in run["scenarios"]] == ["A3", "A2"]
        for s in run["scenarios"]:
            assert set(s) == {"scenario", "elapsed_s"}
            assert isinstance(s["elapsed_s"], float) and s["elapsed_s"] >= 0.0
        assert "elapsed" not in (out / "verify.json").read_text()

    def test_rejects_unknown_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ver.json", {"scenarios": ["A9"]})
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "1"]) != 0
        assert "scenarios[0]" in capsys.readouterr().err
