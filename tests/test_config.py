import json
import re
from pathlib import Path

import pytest

from spdpc.config import ConfigError, load_config
from spdpc.objectives import BallConstraint, BoxConstraint, Constant, EllipseKeepOut
from spdpc.policy import param_count
from spdpc.sampling import XiSlice

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EXPERIMENTS = sorted(p.name for p in CONFIG_DIR.glob("ex*.json"))


def base_config():
    """A small, valid experiment dict that the mutation tests can break."""
    return {
        "name": "unit",
        "seed": 3,
        "mode": "full-horizon",
        "horizon": 2,
        "model": {"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]]},
        "noise": {"kind": "gaussian", "scale": [0.01, 0.01]},
        "x0": {"kind": "uniform", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "parameters": [
            {"name": "target", "kind": "uniform", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        ],
        "scenarios": {"m": 10, "s": 2, "splits": [0.5, 0.2, 0.3]},
        "policy": {"hidden": [6]},
        "objective": {"kind": "tracking", "reference": {"parameter": "target"}},
        "constraints": {"input_box": {"lower": [-1.0], "upper": [1.0]}},
        "terminal_set": {"kind": "ball", "radius": 0.5,
                         "center": {"parameter": "target"}},
        "weights": {"Q_x": 1.0, "Q_u": 0.1},
        "training": {"epochs": 4},
    }


def write(tmp_path, table):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(table))
    return path


class TestShippedConfigs:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_loads(self, name):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.model.n_x >= 1
        if cfg.mode == "full-horizon":
            assert cfg.arch.input_dim == cfg.model.n_x + cfg.params.xi_dim
            assert cfg.arch.output_dim == cfg.horizon * cfg.model.n_u
        else:
            assert cfg.arch.input_dim == cfg.model.n_x
            assert cfg.arch.output_dim == cfg.model.n_u
        assert abs(sum(cfg.splits) - 1.0) < 1e-12

    def test_quadcopter_model_wired_through_file_key(self):
        cfg = load_config(CONFIG_DIR / "ex2_quadcopter.json")
        assert (cfg.model.n_x, cfg.model.n_u) == (12, 4)
        assert param_count(cfg.arch) == 15440


class TestFieldMapping:
    def test_objects_built_from_table(self, tmp_path):
        cfg = load_config(write(tmp_path, base_config()))
        assert cfg.name == "unit"
        assert cfg.seed == 3
        assert (cfg.m, cfg.s) == (10, 2)
        assert cfg.params.xi_dim == 2
        # full-horizon policy input is state plus parameters, output the plan
        assert cfg.arch.input_dim == 4
        assert cfg.arch.output_dim == 2
        assert isinstance(cfg.objective.reference, XiSlice)
        assert cfg.terminal.kind == "ball"
        assert cfg.train.epochs == 4
        assert cfg.train.lr == 1e-3

    def test_terminal_set_is_the_terminal_constraint(self, tmp_path):
        table = base_config()
        cfg = load_config(write(tmp_path, table))
        assert cfg.terminal is cfg.constraints.terminal
        assert isinstance(cfg.terminal, BallConstraint)
        assert (cfg.terminal.radius, cfg.terminal.margin) == (0.5, 0.0)
        assert isinstance(cfg.terminal.center, XiSlice)
        table["terminal_set"] = {"kind": "box", "lower": [-0.1, -0.2], "upper": [0.1, 0.2],
                                 "margin": 0.05}
        cfg = load_config(write(tmp_path, table))
        assert isinstance(cfg.terminal, BoxConstraint)
        assert cfg.terminal.upper.tolist() == [0.1, 0.2]
        assert cfg.terminal.margin == 0.05

    def test_policy_seed_defaults_to_config_seed(self, tmp_path):
        table = base_config()
        cfg = load_config(write(tmp_path, table))
        assert cfg.arch.seed == 3
        table["policy"]["seed"] = 11
        cfg = load_config(write(tmp_path, table))
        assert cfg.arch.seed == 11

    def test_state_feedback_policy_shape(self, tmp_path):
        table = base_config()
        table["mode"] = "state-feedback"
        cfg = load_config(write(tmp_path, table))
        assert cfg.arch.input_dim == 2
        assert cfg.arch.output_dim == 1

    def test_constant_reference(self, tmp_path):
        table = base_config()
        table["objective"] = {"kind": "tracking",
                              "reference": {"constant": [0.5, 0.5]}}
        cfg = load_config(write(tmp_path, table))
        assert isinstance(cfg.objective.reference, Constant)
        assert cfg.objective.reference.values == (0.5, 0.5)

    def test_keep_out_built_from_parameters(self, tmp_path):
        table = base_config()
        table["parameters"].append(
            {"name": "radius", "kind": "uniform", "lower": [0.3], "upper": [0.7]})
        table["constraints"]["keep_out"] = {
            "radius": {"parameter": "radius"},
            "shape": {"constant": 1.0},
            "center_x": {"constant": 0.0},
            "center_y": {"constant": 0.0},
            "margin": 0.1,
        }
        table["constraints"]["input_box"]["margin"] = 0.05
        cfg = load_config(write(tmp_path, table))
        keep_out = [c for c in cfg.constraints.state if isinstance(c, EllipseKeepOut)]
        assert len(keep_out) == 1
        assert isinstance(keep_out[0].radius, XiSlice)
        assert keep_out[0].margin == 0.1
        assert cfg.constraints.inputs[0].margin == 0.05


class TestRejection:
    def check(self, tmp_path, table, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write(tmp_path, table))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_key_names_path(self, tmp_path):
        table = base_config()
        del table["scenarios"]["splits"]
        self.check(tmp_path, table, "scenarios.splits")

    def test_unknown_mode(self, tmp_path):
        table = base_config()
        table["mode"] = "bang-bang"
        self.check(tmp_path, table, "config.mode")

    def test_noise_dimension(self, tmp_path):
        table = base_config()
        table["noise"]["scale"] = [0.01]
        self.check(tmp_path, table, "noise.scale")

    @pytest.mark.parametrize("where", ["x0", "parameters[0]"])
    def test_uniform_width_must_fit_the_floats(self, tmp_path, where):
        table = base_config()
        dist = table["x0"] if where == "x0" else table["parameters"][0]
        dist["lower"], dist["upper"] = [-1e308, 0.0], [1e308, 1.0]
        self.check(tmp_path, table, rf"^{re.escape(where)}: uniform width upper - lower "
                                    "is not finite")
        dist["lower"], dist["upper"] = [1.0, 0.0], [-1.0, 1.0]
        self.check(tmp_path, table, rf"^{re.escape(where)}: uniform has lower > upper")

    def test_x0_dimension(self, tmp_path):
        table = base_config()
        table["x0"]["lower"] = [-1.0]
        table["x0"]["upper"] = [1.0]
        self.check(tmp_path, table, "x0")

    def test_two_way_split_rejected(self, tmp_path):
        table = base_config()
        table["scenarios"]["splits"] = [0.7, 0.3]
        self.check(tmp_path, table, "three fractions")

    def test_unknown_weight_field(self, tmp_path):
        table = base_config()
        table["weights"]["Q_z"] = 1.0
        self.check(tmp_path, table, "Q_z")

    def test_unknown_parameter_reference(self, tmp_path):
        table = base_config()
        table["objective"]["reference"] = {"parameter": "ghost"}
        self.check(tmp_path, table, "objective.reference")

    def test_reference_dimension(self, tmp_path):
        table = base_config()
        table["objective"]["reference"] = {"constant": [1.0, 2.0, 3.0]}
        self.check(tmp_path, table, "needs 2 values")

    def test_track_indices_range(self, tmp_path):
        table = base_config()
        table["objective"] = {"kind": "split-tracking", "track_indices": [5],
                              "reference": {"constant": [1.0]}}
        self.check(tmp_path, table, "track_indices")

    def test_terminal_box_bounds_length(self, tmp_path):
        table = base_config()
        table["terminal_set"] = {"kind": "box", "lower": [-0.1], "upper": [0.1]}
        self.check(tmp_path, table, "terminal_set")

    def test_terminal_margin_must_be_nonnegative(self, tmp_path):
        table = base_config()
        table["terminal_set"]["margin"] = -0.1
        self.check(tmp_path, table, r"terminal_set: margin")

    def test_unknown_terminal_kind(self, tmp_path):
        table = base_config()
        table["terminal_set"] = {"kind": "polytope"}
        self.check(tmp_path, table, "terminal_set.kind")

    def test_keep_out_needs_planar_state(self, tmp_path):
        table = base_config()
        table["model"] = {"A": [[1.0]], "B": [[1.0]]}
        table["noise"]["scale"] = [0.01]
        table["x0"] = {"kind": "uniform", "lower": [-1.0], "upper": [1.0]}
        table["parameters"] = []
        table["objective"] = {"kind": "stabilization"}
        table["terminal_set"] = {"kind": "box", "lower": [-0.1], "upper": [0.1]}
        table["constraints"] = {"keep_out": {
            "radius": {"constant": 0.5}, "shape": {"constant": 1.0},
            "center_x": {"constant": 0.0}, "center_y": {"constant": 0.0}}}
        self.check(tmp_path, table, "keep_out")

    def test_bad_certification_budget(self, tmp_path):
        table = base_config()
        table["certification"] = {"beta": 1.5}
        self.check(tmp_path, table, "certification.beta")

    def test_bad_seed(self, tmp_path):
        table = base_config()
        table["seed"] = -1
        self.check(tmp_path, table, "config.seed")

    def test_bad_epochs(self, tmp_path):
        table = base_config()
        table["training"]["epochs"] = 0
        self.check(tmp_path, table, "training")


class TestStrictSchema:
    """Every table rejects keys the schema does not name, with the JSON path."""

    def check(self, tmp_path, table, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write(tmp_path, table))

    def test_misspelt_constraint_is_not_dropped(self, tmp_path):
        table = base_config()
        table["constraints"]["input_bx"] = table["constraints"].pop("input_box")
        self.check(tmp_path, table, r"constraints\.input_bx: unknown field")

    def test_terminal_box_constraint_key_is_gone(self, tmp_path):
        # the terminal set lives in terminal_set alone
        table = base_config()
        table["constraints"]["terminal_box"] = {"lower": [-0.1, -0.1], "upper": [0.1, 0.1]}
        self.check(tmp_path, table, r"constraints\.terminal_box: unknown field")

    def test_misspelt_training_key(self, tmp_path):
        table = base_config()
        table["training"]["epoch"] = 3
        self.check(tmp_path, table, r"training\.epoch")

    def test_clip_is_not_an_option(self, tmp_path):
        table = base_config()
        table["training"]["clip"] = 1.0
        self.check(tmp_path, table, r"training\.clip")

    def test_solver_step0_is_not_an_option(self, tmp_path):
        # the line-search constants are fixed in baseline.py
        table = base_config()
        table["benchmark"] = {"solver": {"max_iters": 5, "step0": 0.5}}
        self.check(tmp_path, table, r"benchmark\.solver\.step0: unknown field")

    def test_misspelt_top_level_table(self, tmp_path):
        table = base_config()
        table["certfication"] = {"beta": 0.9}
        self.check(tmp_path, table, r"config\.certfication")

    @pytest.mark.parametrize("where, entry, fragment", [
        ("model", {"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [0.1]], "C": [[1.0]]},
         r"model\.C"),
        ("noise", {"kind": "gaussian", "scale": [0.01, 0.01], "sigma": 1.0}, r"noise\.sigma"),
        ("x0", {"kind": "uniform", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                "mean": [0.0, 0.0]}, r"x0\.mean"),
        ("scenarios", {"m": 10, "s": 2, "splits": [0.5, 0.2, 0.3], "r": 20},
         r"scenarios\.r"),
        ("policy", {"hidden": [6], "activation": "tanh"}, r"policy\.activation"),
        ("objective", {"kind": "tracking", "reference": {"parameter": "target"},
                       "targets": 1}, r"objective\.targets"),
        ("terminal_set", {"kind": "ball", "radius": 0.5, "lower": [0.0, 0.0]},
         r"terminal_set\.lower"),
        ("certification", {"beta": 0.9, "confidence": 0.99}, r"certification\.confidence"),
        ("simulation", {"count": 2, "step": 5}, r"simulation\.step"),
        ("benchmark", {"instances": 2, "solver": {"max_iter": 5}},
         r"benchmark\.solver\.max_iter"),
    ])
    def test_unknown_key_in_table(self, tmp_path, where, entry, fragment):
        table = base_config()
        table[where] = entry
        self.check(tmp_path, table, fragment)

    def test_unknown_key_in_parameter_and_nested_constraint(self, tmp_path):
        table = base_config()
        table["parameters"][0]["std"] = [1.0, 1.0]
        self.check(tmp_path, table, r"parameters\[0\]\.std")
        table = base_config()
        table["constraints"]["input_box"]["margn"] = 0.1
        self.check(tmp_path, table, r"constraints\.input_box\.margn")

    def test_table_must_be_an_object(self, tmp_path):
        table = base_config()
        table["training"] = [4]
        self.check(tmp_path, table, r"training: expected a JSON object")

    @pytest.mark.parametrize("key", ["instances", "repeats"])
    def test_benchmark_budgets_at_least_one(self, tmp_path, key):
        table = base_config()
        table["benchmark"] = {key: 0}
        self.check(tmp_path, table, r"benchmark: instances and repeats must be >= 1")
