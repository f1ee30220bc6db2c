"""Recompute tests/reference/values.json and compare.

The file pins, per committed config, the loss parts and gradient of one
minibatch, one epoch's history row and, on the certified desk configs, the
test-split pass counts; ``tests/reference/regenerate.py`` says how each is
made and rewrites the file after a deliberate change.

Floats compare with a relative tolerance, so that another BLAS kernel does
not fail the test.  Measured on OpenBLAS 0.3.31 (Haswell kernels, 2-vCPU
x86-64), the values at 1 and 2 BLAS threads differ by at most 6.9e-14
relative: ex3_obstacle's ``epoch_0/dev_loss``, after 521 training steps.
The gradient and the loss of a single minibatch differ by at most 1.1e-15.
``RTOL`` is about a thousand times the largest spread.  Pass counts
compare exactly: they were equal at 1 and 2 threads.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-10

_spec = importlib.util.spec_from_file_location("regenerate", REFERENCE / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
EXPECTED = json.loads((REFERENCE / "values.json").read_text())


def flat(values, prefix=""):
    """``{"loss/total": 0.1, "grad_head/0": 0.2, ...}``: one number per path."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    out = {}
    for key, value in items:
        path = f"{prefix}{key}"
        out.update(flat(value, path + "/") if isinstance(value, (dict, list)) else {path: value})
    return out


def test_every_config_has_reference_values():
    assert sorted(EXPECTED) == [path.stem for path in regenerate.CONFIGS]


@pytest.mark.parametrize("path", regenerate.CONFIGS, ids=lambda p: p.stem)
def test_values_match_the_reference(path):
    got, want = regenerate.reference(path), EXPECTED[path.stem]
    assert got.pop("test_passes", None) == want.pop("test_passes", None)
    got, want = flat(got), flat(want)
    assert sorted(got) == sorted(want)
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)
