import json
from pathlib import Path

import pytest

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
