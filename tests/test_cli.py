import argparse
import ast
import csv
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from spdpc import cli, rng
from spdpc.config import load_config
from spdpc.policy import init_policy, load_checkpoint, save_checkpoint
from spdpc.trainer import HISTORY_COLUMNS

REPORT_KEYS = ["r", "m", "s", "beta", "delta", "mu_tilde", "alpha",
               "lower_bound", "verdict", "policy_checkpoint", "seed", "failures"]


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
        "weights": {"Q_u": 0.01, "Q_g": 10.0},
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

    def test_duplicate_key_named_by_its_path(self, tmp_path, capsys):
        path = micro_config(tmp_path)
        path.write_text(path.read_text().replace('"m": 12,', '"m": 200, "m": 12,'))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "config error: scenarios.m: duplicate key\n"

    def test_directory_as_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--config", str(tmp_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {tmp_path}: cannot read (Is a directory)\n"
        assert not out.exists()

    @pytest.mark.parametrize("checkpoint, message", [
        ("ckpt", "cannot read (Is a directory)"),
        ("broken.json", "not valid JSON (Expecting ',' delimiter: line 2 column 1 (char 14))"),
    ], ids=["directory", "broken-json"])
    def test_unreadable_checkpoint_is_one_error_line(self, tmp_path, capsys, checkpoint, message):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "broken.json").write_text('{"version": 1\n"arch": {}}')
        out = tmp_path / "out"
        assert run("certify", "--config", str(micro_config(tmp_path)), "--out", str(out),
                   "--checkpoint", str(tmp_path / checkpoint)) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / checkpoint}: {message}\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["arch"].update(input_dim=2.5),
         "arch.input_dim: expected an integer, got 2.5"),
        (lambda doc: doc["arch"].update(hidden=[20.7]),
         "arch.hidden[0]: expected an integer, got 20.7"),
        (lambda doc: doc["arch"].update(seed="5"), 'arch.seed: expected an integer, got "5"'),
        (lambda doc: doc.update(version=True), "version: expected an integer, got true"),
        (lambda doc: doc["layers"][1].update(b=["0.0"]),
         'layers[1].b[0]: expected a number, got "0.0"'),
        (lambda doc: doc["layers"][1].update(b=[True]),
         "layers[1].b[0]: expected a number, got true"),
        (lambda doc: doc.update(created="today"),
         "created: unknown field, expected one of ['arch', 'layers', 'seed', 'version']"),
        ("repeated W", "layers[0].W: duplicate key"),
    ], ids=["int-as-float", "hidden-float", "seed-string", "version-bool", "b-string",
            "b-bool", "unknown-key", "repeated-key"])
    def test_malformed_checkpoint_names_file_and_path(self, tmp_path, capsys, edit, message):
        path = micro_config(tmp_path)
        checkpoint = tmp_path / "policy.json"
        save_checkpoint(init_policy(load_config(path).arch), checkpoint)
        if callable(edit):
            doc = json.loads(checkpoint.read_text())
            edit(doc)
            checkpoint.write_text(json.dumps(doc))
        else:
            checkpoint.write_text(checkpoint.read_text().replace('{"W": ', '{"W": [], "W": ', 1))
        out = tmp_path / "out"
        assert run("certify", "--config", str(path), "--out", str(out),
                   "--checkpoint", str(checkpoint)) == 1
        assert capsys.readouterr().err == \
            f"error: {checkpoint}: malformed checkpoint ({message})\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("fixture, message", [
        ('{"A": [["1.0", 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]]}',
         'A[0][0]: expected a number, got "1.0"'),
        ('{"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [true]]}',
         "B[1][0]: expected a number, got true"),
        ('{"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]], "C": [[1.0]]}',
         "C: unknown field, expected one of ['A', 'B', 'source']"),
        ('{"A": [[0.0]], "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]]}',
         "A: duplicate key"),
    ], ids=["string-in-A", "bool-in-B", "unknown-key", "repeated-key"])
    def test_malformed_model_fixture_names_file_and_path(self, tmp_path, capsys, fixture,
                                                         message):
        (tmp_path / "model.json").write_text(fixture)
        path = micro_config(tmp_path, model={"file": "model.json"})
        assert run("train", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == \
            f"config error: {tmp_path / 'model.json'}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, reason", [("taken", "File exists"),
                                               ("taken/sub", "Not a directory")])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, where, reason):
        (tmp_path / "taken").write_text("a file\n")
        out = tmp_path / where
        assert run("train", "--config", str(micro_config(tmp_path)), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {out}: {reason}\n"
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--count", "0"),
        ("simulate", "--count", "-3"),
        ("simulate", "--steps", "0"),
        ("benchmark", "--instances", "0"),
        ("train", "--checkpoint-every", "-1"),
        ("train", "--threads", "0"),
    ])
    def test_override_below_its_minimum(self, tmp_path, capsys, argv):
        path = micro_config(tmp_path)
        checkpoint = [] if argv[0] == "train" else ["--checkpoint", "policy.json"]
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
            expect = f"{fixture}: A[0][1]: must be finite, got {shown}"
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
        assert run("train", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"config error: {where}: {message}\n"

    @pytest.mark.parametrize("keys, value, message", [
        (("scenarios", "m"), None, "scenarios.m: expected an integer, got null"),
        (("scenarios", "m"), "abc", 'scenarios.m: expected an integer, got "abc"'),
        (("scenarios", "m"), "300", 'scenarios.m: expected an integer, got "300"'),
        (("scenarios", "m"), 270.0, "scenarios.m: expected an integer, got 270.0"),
        (("policy", "hidden"), 5, "policy.hidden: expected a list, got 5"),
        (("policy", "hidden"), [20.9, 20], "policy.hidden[0]: expected an integer, got 20.9"),
        (("simulation", "count"), [3], "simulation.count: expected an integer, got [3]"),
        (("scenarios", "splits"), 3, "scenarios.splits: expected a list, got 3"),
        (("benchmark", "solver", "max_iters"), None,
         "benchmark.solver.max_iters: expected an integer, got null"),
        (("horizon",), "2", 'config.horizon: expected an integer, got "2"'),
        (("seed",), 1.9, "config.seed: expected an integer, got 1.9"),
        (("training", "lr"), "0.01", 'training.lr: expected a number, got "0.01"'),
        (("weights", "Q_x"), True, "weights.Q_x: expected a number, got true"),
        (("training", "epochs"), True, "training.epochs: expected an integer, got true"),
        (("weights", "Q_r"), 1.0,
         "weights.Q_r: no term of this stabilization loss reads it, got 1.0"),
        (("weights", "Q_du"), 5, "weights.Q_du: no term of this stabilization loss reads it, "
                                 "got 5.0"),
        (("weights", "Q_c"), 1.0,
         "weights.Q_c: no term of this stabilization loss reads it, got 1.0"),
        (("constraints", "input_box"), "drop",
         "weights.Q_g: no term of this stabilization loss reads it, got 100.0"),
        (("constraints", "contraction"), {"rate": 0.8},
         "constraints.contraction: shapes training only, so it needs weights.Q_c > 0"),
        (("scenarios", "splits"), [0.5, 0.5, 0.5], "scenarios.splits: fractions sum to 1.5 > 1"),
        (("scenarios", "splits"), [0.5, 0.0, 0.5],
         "scenarios.splits: fractions must be positive, got [0.5, 0.0, 0.5]"),
        (("scenarios", "splits"), [0.001, 0.5, 0.499],
         "scenarios.splits: fraction produces an empty split (0:0 of m=200)"),
        (("objective",), {"kind": "stabilization", "reference": {"constant": [1.0, 0.0]}},
         "objective.reference: unknown field, expected one of ['kind']"),
        (("objective",), {"kind": "stabilization", "track_indices": [0]},
         "objective.track_indices: unknown field, expected one of ['kind']"),
        (("objective",), {"kind": "terminal-smoothing", "target": {"constant": [0.0, 0.0]},
                          "reference": {"constant": [0.0, 0.0]}},
         "objective.reference: unknown field, expected one of ['kind', 'target']"),
        (("objective",), {"kind": "split-tracking", "reference": {"constant": [1.0]}},
         "objective.track_indices: missing"),
        (("objective",), {"kind": "split-tracking", "track_indices": [1, 1],
                          "reference": {"constant": [1.0, 5.0]}},
         "objective.track_indices: needs one or more distinct indices in [0, 2), got [1, 1]"),
        (("objective",), {"kind": "split-tracking", "track_indices": [],
                          "reference": {"constant": []}},
         "objective.track_indices: needs one or more distinct indices in [0, 2), got []"),
    ])
    def test_malformed_field_is_one_config_error_line(self, tmp_path, capsys, keys, value,
                                                      message):
        table = json.loads((ROOT / "configs" / "ex1_double_integrator_desk.json").read_text())
        node = table
        for key in keys[:-1]:
            node = node[key]
        if value == "drop":
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path = tmp_path / "ex1.json"
        path.write_text(json.dumps(table))
        out = tmp_path / "out"
        assert run("train", "--config", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "manifest.json").exists()

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

    @pytest.mark.parametrize("argv, code", [
        (("sample", "--config", "micro.json", "--out", "out"), 1),  # removed command
        (("train", "--out", "out"), 1),
        (("train", "--config", "micro.json", "--out", "out", "--seed", "abc"), 1),
        (("--help",), 0),
    ], ids=["unknown-command", "missing-config", "non-integer-seed", "help"])
    def test_usage_error_exits_1_and_help_exits_0(self, tmp_path, capsys, monkeypatch,
                                                  argv, code):
        monkeypatch.chdir(tmp_path)
        micro_config(tmp_path)
        assert run(*argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("usage: spdpc")
            assert "error:" in captured.err
        else:
            assert captured.out.startswith("usage: spdpc")
        assert not (tmp_path / "out").exists()

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
        assert list(report) == REPORT_KEYS
        assert report["r"] == 6
        assert report["policy_checkpoint"] == "policy.json"
        with open(cert_out / "indicator.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["pass"] for r in rows} <= {"0", "1"}
        # an impossible bound is still a clean exit, just a negative verdict
        assert report["verdict"] is False
        printed = capsys.readouterr().out
        assert "NOT CERTIFIED" in printed
        # the per-constraint lines are the certificate's counts
        assert re.findall(r"^  (\S+) (\S+): pass fraction (\S+)$", printed, re.M) == [
            (f["part"], f["kind"], f"{(report['r'] - f['failed']) / report['r']:.4f}")
            for f in report["failures"]]
        assert [f["part"] for f in report["failures"]] == ["inputs", "terminal"]

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
        assert run("train", "--config", str(config), "--out", str(base)) == 0
        assert run("train", "--config", str(config), "--out", str(other),
                   "--seed", "9") == 0
        assert manifest_of(other)["seed"] == 9
        first = (base / "history.csv").read_bytes()
        second = (other / "history.csv").read_bytes()
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
        assert run("train", "--config", str(config),
                   "--out", str(tmp_path / "out"), "--threads", "1") == 0
        import os
        assert os.environ["OMP_NUM_THREADS"] == "1"


ROOT = Path(__file__).resolve().parents[1]
COMMITTED = sorted((ROOT / "configs").glob("ex*.json"))


def test_readme_commands_are_the_parser_subcommands():
    """Every ``spdpc <command>`` line in README's code blocks names a real
    subcommand, and every subcommand appears in one."""
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    shown = [m.group(1) for block in blocks
             for m in re.finditer(r"^\s*spdpc\s+(\S+)", block, flags=re.M)]
    assert shown, "README shows no spdpc command"
    assert set(shown) <= set(subparsers.choices), sorted(set(shown) - set(subparsers.choices))
    assert set(subparsers.choices) <= set(shown), sorted(set(subparsers.choices) - set(shown))


def test_certify_goes_through_run_certification():
    """``cli`` names neither ``empirical_risk`` nor ``certify.certify``, so
    ``certify.run_certification`` stays the one composition of a certificate."""
    found = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Name) and node.id == "empirical_risk":
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("empirical_risk", "certify"):
            found.add(f"<attribute>.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "certify":
            found.update(alias.name for alias in node.names
                         if alias.name in ("empirical_risk", "certify"))
    assert not found, sorted(found)


def read_rows(path, id_cols):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[id_cols:]] for row in rows])


class TestSimulateAndBenchmarkInputs:
    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_draws_are_prefix_stable_blocks(self, tmp_path, monkeypatch, path):
        """simulate draws x0 and xi as ``ParamSpec.sample`` blocks on SIM_X0 and
        its noise as one block on SIM_NOISE; benchmark draws its instances on
        BENCH.  Three runs or instances are the first three of five."""
        cfg = load_config(path)
        checkpoint = tmp_path / "policy.json"
        save_checkpoint(init_policy(cfg.arch), checkpoint, seed=cfg.seed)
        seen = {}

        def capture(name):
            def stand_in(*args, **kwargs):
                seen[name] = args
                raise ValueError("inputs captured")
            return stand_in

        monkeypatch.setattr("spdpc.dynamics.simulate", capture("simulate"))
        monkeypatch.setattr("spdpc.baseline.benchmark", capture("benchmark"))
        drawn = {}
        for count in (3, 5):
            for argv in (("simulate", "--count", str(count), "--steps", "4"),
                         ("benchmark", "--instances", str(count))):
                assert run(*argv, "--config", str(path), "--out", str(tmp_path / argv[0]),
                           "--checkpoint", str(checkpoint)) == 1
            _, _, _, x0, xi, noise = seen["simulate"]
            cases = seen["benchmark"][2]
            drawn[count] = (x0, xi, noise, cases)
        x0, xi, noise, cases = drawn[5]
        want_x0, want_xi = cfg.params.sample(cfg.seed, rng.SIM_X0, 5)
        assert np.array_equal(x0, want_x0)
        assert np.array_equal(xi, want_xi) if want_xi.size else xi is None
        assert np.array_equal(noise, cfg.noise.draw(rng.substream(cfg.seed, rng.SIM_NOISE), 4, 5))
        want_x0, want_xi = cfg.params.sample(cfg.seed, rng.BENCH, 5)
        for t, (case_x0, case_xi) in enumerate(cases):
            assert np.array_equal(case_x0, want_x0[t])
            assert np.array_equal(case_xi, want_xi[t]) if want_xi.size else case_xi is None
        small_x0, small_xi, small_noise, small_cases = drawn[3]
        assert np.array_equal(small_x0, x0[:3])
        assert small_xi is None if xi is None else np.array_equal(small_xi, xi[:3])
        assert np.array_equal(small_noise, noise[:3])
        for small, large in zip(small_cases, cases[:3], strict=True):
            for a, b in zip(small, large):
                assert a is None and b is None or np.array_equal(a, b)

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_summary_reports_the_terminal_set(self, tmp_path, path):
        cfg = load_config(path)
        checkpoint = tmp_path / "policy.json"
        save_checkpoint(init_policy(cfg.arch), checkpoint, seed=cfg.seed)
        out = tmp_path / "sim"
        assert run("simulate", "--config", str(path), "--out", str(out),
                   "--checkpoint", str(checkpoint), "--count", "6", "--steps", "5") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == ["count", "steps", "final_infnorm", "input_violation_max",
                                 "state_violation_max", "terminal_violation_max"]
        final = read_rows(out / "sim_states.csv", 2).reshape(6, 6, -1)[:, -1]
        xi = read_rows(out / "sim_params.csv", 1).reshape(6, -1)
        terminal = cfg.constraints.terminal
        if terminal.kind == "box":
            worst = np.max(np.concatenate([final - terminal.upper, terminal.lower - final]))
        else:
            center = 0.0 if terminal.center is None else \
                xi[:, terminal.center.start:terminal.center.stop]
            worst = np.max(np.sqrt(np.sum((final - center) ** 2, axis=-1)) - terminal.radius)
        assert summary["terminal_violation_max"] == pytest.approx(max(worst, 0.0), rel=1e-12)
