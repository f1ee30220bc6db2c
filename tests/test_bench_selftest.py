"""The benchmark's own self-test, run as part of the suite.

The benchmark wraps spdpc functions by name (``dynamics.rollout_tensors``,
``objectives.total_loss``, ``autodiff.Tape.backward``, ...).  Renaming one
of them, or changing what a training step or a solve calls, breaks the
benchmark; this test makes that a suite failure.  It checks names, units
and output checks at a tiny run length, never timings (about 30-50 s).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
