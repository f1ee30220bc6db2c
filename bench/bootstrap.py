"""Process start-up shared by the benchmark's entry points.

Imports nothing heavy: the BLAS thread count must be pinned through the
environment before numpy loads, and spdpc must come from this checkout's
``src/`` rather than from anything installed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to THREADS; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def use_checkout_source() -> None:
    """Import spdpc from ``ROOT/src``; exit with status 1 when it is not there."""
    package = SRC / "spdpc"
    if not (package / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise SystemExit(f"bench: this checkout has no {package} or {CONFIGS}; "
                         "the benchmark needs the whole repository")
    sys.path.insert(0, str(SRC))
    import spdpc
    loaded = Path(spdpc.__file__).resolve().parent
    if loaded != package.resolve():
        raise SystemExit(f"bench: spdpc loaded from {loaded}, not from {package}")
