import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from spdpc import cli
from spdpc.certify import REPORT_KEYS
from spdpc.config import load_config
from spdpc.policy import init_policy, load_checkpoint, save_checkpoint
from spdpc.trainer import HISTORY_COLUMNS


def micro_config(tmp_path, **overrides):
    """A complete experiment small enough to run every command in seconds."""
    table = {
        "name": "micro",
        "seed": 5,
        "mode": "full-horizon",
        "horizon": 2,
        "model": {"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]]},
        "noise": {"kind": "gaussian", "scale": [0.005, 0.005]},
        "x0": {"kind": "uniform", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
        "parameters": [
            {"name": "target", "kind": "uniform",
             "lower": [0.0, 0.0], "upper": [0.5, 0.5]},
        ],
        "scenarios": {"m": 12, "s": 2, "splits": [0.5, 0.25, 0.25]},
        "policy": {"hidden": [6]},
        "objective": {"kind": "tracking", "reference": {"parameter": "target"}},
        "constraints": {"input_box": {"lower": [-2.0], "upper": [2.0]}},
        "terminal_set": {"kind": "ball", "radius": 0.5,
                         "center": {"parameter": "target"}},
        "weights": {"Q_x": 1.0, "Q_u": 0.01, "Q_g": 10.0},
        "training": {"epochs": 5, "minibatch": 8},
        "certification": {"beta": 0.999, "delta": 0.01},
        "simulation": {"count": 2, "steps": 4},
        "benchmark": {"instances": 2, "repeats": 2,
                      "solver": {"max_iters": 30, "tol": 1e-4}},
    }
    table.update(overrides)
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(table))
    return path


def run(*argv):
    return cli.main(list(argv))


def manifest_of(out: Path):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def check_manifest(out: Path, config_path: Path):
    manifest = manifest_of(out)
    assert manifest["config"] == config_path.name
    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    assert manifest["config_sha256"] == digest
    for artifact in manifest["artifacts"]:
        assert (out / artifact).is_file(), f"manifest lists missing {artifact}"
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert on_disk == set(manifest["artifacts"]) | {"manifest.json"}


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        assert run("train", "--config", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "out")) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run("train", "--config", str(bad),
                   "--out", str(tmp_path / "out")) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_field_named_in_message(self, tmp_path, capsys):
        path = micro_config(tmp_path, mode="psychic")
        assert run("train", "--config", str(path),
                   "--out", str(tmp_path / "out")) == 1
        assert "config.mode" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        path = micro_config(tmp_path)
        assert run("certify", "--config", str(path),
                   "--out", str(tmp_path / "out"),
                   "--checkpoint", str(tmp_path / "ghost.json")) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--count", "0"),
        ("simulate", "--count", "-3"),
        ("simulate", "--steps", "0"),
        ("benchmark", "--instances", "0"),
        ("train", "--checkpoint-every", "-1"),
        ("sample", "--threads", "0"),
    ])
    def test_override_below_its_minimum(self, tmp_path, capsys, argv):
        path = micro_config(tmp_path)
        checkpoint = [] if argv[0] in ("train", "sample") else ["--checkpoint", "policy.json"]
        out = tmp_path / "out"
        assert run(*argv, *checkpoint, "--config", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {argv[1]} must be >=" in err and f"got {argv[2]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("literal, shown", [("NaN", "nan"), ("Infinity", "inf"),
                                                ("1e999", "inf")])
    @pytest.mark.parametrize("where, keys", [
        ("x0.lower[0]", ("x0", "lower", 0)),
        ("constraints.input_box.upper[0]", ("constraints", "input_box", "upper", 0)),
        ("weights.Q_u", ("weights", "Q_u")),
        ("model.A[1][0]", ("model", "A", 1, 0)),
        ("model fixture", None),
    ])
    def test_non_finite_number_named_by_its_path(self, tmp_path, capsys, where, keys,
                                                 literal, shown):
        # JSON as Python reads it admits NaN, Infinity and overflowing literals
        bad = "__non_finite__"
        path = micro_config(tmp_path)
        table = json.loads(path.read_text())
        if keys is None:
            fixture = tmp_path / "model.json"
            fixture.write_text(json.dumps({"A": [[1.0, bad], [0.0, 1.0]], "B": [[0.0], [0.1]]})
                               .replace(f'"{bad}"', literal))
            table["model"] = {"file": fixture.name}
            expect = f"model: model fixture {fixture}: A[0][1]: must be finite, got {shown}"
        else:
            node = table
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = bad
            expect = f"{where}: must be finite, got {shown}"
        path.write_text(json.dumps(table).replace(f'"{bad}"', literal))
        for command in ("train", "simulate"):
            checkpoint = ["--checkpoint", "policy.json"] if command == "simulate" else []
            assert run(command, *checkpoint, "--config", str(path),
                       "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err == f"config error: {expect}\n"

    @pytest.mark.parametrize("where, entry, message", [
        ("x0", {"x0": {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1e308, 1e308]}},
         "gaussian |mean| + 8 std is not finite"),
        ("parameters[0]", {"parameters": [{"name": "target", "kind": "gaussian",
                                           "mean": [1.7e308, 0.0], "std": [1e307, 1.0]}]},
         "gaussian |mean| + 8 std is not finite"),
        ("noise", {"noise": {"kind": "gaussian", "scale": [1e308, 1e308]}},
         "gaussian 8 * scale is not finite"),
    ])
    def test_gaussian_that_overflows_is_a_config_error(self, tmp_path, capsys, where, entry,
                                                       message):
        path = micro_config(tmp_path, **entry)
        for command in ("train", "sample"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
            assert capsys.readouterr().err == f"config error: {where}: {message}\n"

    def test_simulate_that_leaves_the_floats_writes_no_summary(self, tmp_path, capsys):
        # no filterwarnings mark: the suite turns a RuntimeWarning into an
        # error, so this also shows that no numpy warning escapes the command
        config = micro_config(tmp_path)
        policy = init_policy(load_config(config).arch)
        for w, _ in policy.layers:
            w *= 1e200
        save_checkpoint(policy, tmp_path / "big.json")
        out = tmp_path / "sim"
        assert run("simulate", "--config", str(config), "--out", str(out),
                   "--checkpoint", str(tmp_path / "big.json")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: simulate: the state of run 0 left the floats at step 1")
        assert not (out / "summary.json").exists()

    def test_divergence_exits_2(self, tmp_path, capsys):
        path = micro_config(
            tmp_path,
            model={"A": [[2.0, 1.0], [0.0, 2.0]], "B": [[0.0], [1.0]]},
            training={"epochs": 3, "lr": 1e80, "minibatch": 8})
        assert run("train", "--config", str(path),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("training failed: ")


class TestPipeline:
    def test_all_commands_end_to_end(self, tmp_path, capsys):
        config = micro_config(tmp_path)

        sample_out = tmp_path / "sampled"
        assert run("sample", "--config", str(config), "--out", str(sample_out)) == 0
        check_manifest(sample_out, config)
        for part, m_part in (("train", 6), ("dev", 3), ("test", 3)):
            meta = json.loads((sample_out / "scenarios" / part / "meta.json").read_text())
            assert meta["m"] == m_part
            assert meta["s"] == 2

        train_out = tmp_path / "trained"
        assert run("train", "--config", str(config), "--out", str(train_out)) == 0
        check_manifest(train_out, config)
        header = (train_out / "history.csv").read_text().splitlines()[0]
        assert header == ",".join(HISTORY_COLUMNS)
        policy = load_checkpoint(train_out / "policy.json")
        assert policy.arch.hidden == (6,)
        assert ET.parse(train_out / "history.svg").getroot().tag.endswith("svg")

        cert_out = tmp_path / "certified"
        assert run("certify", "--config", str(config), "--out", str(cert_out),
                   "--checkpoint", str(train_out / "policy.json")) == 0
        check_manifest(cert_out, config)
        report = json.loads((cert_out / "certificate.json").read_text())
        assert list(report) == list(REPORT_KEYS)
        assert report["r"] == 6
        assert report["policy_checkpoint"] == "policy.json"
        with open(cert_out / "indicator.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["pass"] for r in rows} <= {"0", "1"}
        # an impossible bound is still a clean exit, just a negative verdict
        assert report["verdict"] is False
        assert "NOT CERTIFIED" in capsys.readouterr().out

        sim_out = tmp_path / "simulated"
        assert run("simulate", "--config", str(config), "--out", str(sim_out),
                   "--checkpoint", str(train_out / "policy.json")) == 0
        check_manifest(sim_out, config)
        summary = json.loads((sim_out / "summary.json").read_text())
        assert summary["count"] == 2 and summary["steps"] == 4
        assert len(summary["final_infnorm"]) == 2
        with open(sim_out / "sim_states.csv", newline="") as fh:
            state_rows = list(csv.DictReader(fh))
        assert len(state_rows) == 2 * 5
        for name in ("sim_state_0.svg", "sim_state_1.svg", "sim_input_0.svg"):
            assert ET.parse(sim_out / name).getroot().tag.endswith("svg")

        bench_out = tmp_path / "benchmarked"
        assert run("benchmark", "--config", str(config), "--out", str(bench_out),
                   "--checkpoint", str(train_out / "policy.json")) == 0
        check_manifest(bench_out, config)
        with open(bench_out / "benchmark.csv", newline="") as fh:
            bench_rows = list(csv.DictReader(fh))
        assert len(bench_rows) == 2
        assert all(float(r["ratio"]) > 0 for r in bench_rows)

    def test_train_rerun_is_byte_identical(self, tmp_path):
        config = micro_config(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", str(config), "--out", str(first)) == 0
        assert run("train", "--config", str(config), "--out", str(second)) == 0
        for name in ("history.csv", "policy.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_override_changes_draws(self, tmp_path):
        config = micro_config(tmp_path)
        base, other = tmp_path / "s5", tmp_path / "s9"
        assert run("sample", "--config", str(config), "--out", str(base)) == 0
        assert run("sample", "--config", str(config), "--out", str(other),
                   "--seed", "9") == 0
        assert manifest_of(other)["seed"] == 9
        first = (base / "scenarios" / "train" / "x0.csv").read_bytes()
        second = (other / "scenarios" / "train" / "x0.csv").read_bytes()
        assert first != second

    def test_checkpoint_every(self, tmp_path):
        config = micro_config(tmp_path)
        out = tmp_path / "ck"
        assert run("train", "--config", str(config), "--out", str(out),
                   "--checkpoint-every", "2") == 0
        saved = sorted(p.name for p in (out / "checkpoints").iterdir())
        assert saved == ["epoch_0001.json", "epoch_0003.json"]
        check_manifest(out, config)

    def test_overrides_at_their_minimum(self, tmp_path):
        config = micro_config(tmp_path)
        train_out = tmp_path / "trained"
        assert run("train", "--config", str(config), "--out", str(train_out),
                   "--checkpoint-every", "0") == 0
        assert not (train_out / "checkpoints").exists()
        checkpoint = str(train_out / "policy.json")
        sim_out = tmp_path / "sim"
        assert run("simulate", "--config", str(config), "--out", str(sim_out),
                   "--checkpoint", checkpoint, "--count", "1", "--steps", "1") == 0
        summary = json.loads((sim_out / "summary.json").read_text())
        assert (summary["count"], summary["steps"]) == (1, 1)
        bench_out = tmp_path / "bench"
        assert run("benchmark", "--config", str(config), "--out", str(bench_out),
                   "--checkpoint", checkpoint, "--instances", "1") == 0
        assert len((bench_out / "benchmark.csv").read_text().splitlines()) == 2

    def test_threads_flag_sets_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        config = micro_config(tmp_path)
        assert run("sample", "--config", str(config),
                   "--out", str(tmp_path / "out"), "--threads", "1") == 0
        import os
        assert os.environ["OMP_NUM_THREADS"] == "1"
