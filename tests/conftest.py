import json
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def state_feedback_xi_config(tmp_path):
    """ex1 desk, a state-feedback config, with one uniform parameter
    component that its policy reads beside the state; one training epoch."""
    table = json.loads((REPO / "configs" / "ex1_double_integrator_desk.json").read_text())
    table["parameters"] = [{"name": "p", "kind": "uniform", "lower": [-1.0], "upper": [1.0]}]
    table["training"]["epochs"] = 1
    path = tmp_path / "state_feedback_xi.json"
    path.write_text(json.dumps(table))
    return path


@pytest.fixture
def relu(monkeypatch):
    """relu(a) as an op of its own, the reference that fused nodes holding a
    relu are checked against: forward np.maximum(a, 0.0), VJP g * (a > 0.0),
    so the subgradient at exactly 0 is 0."""
    monkeypatch.setitem(ad.OPS, "relu", (
        lambda vals, attrs: np.maximum(vals[0], 0.0),
        lambda node, g, taped: [(0, g * (node.input_values[0] > 0.0))]))
    return lambda a: ad._apply("relu", a)
