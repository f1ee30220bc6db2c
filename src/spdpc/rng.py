"""Keyed random streams.

Every random draw in the pipeline comes from a generator keyed by
``(master seed, stream id, *counters)``: ``substream`` returns
``default_rng(SeedSequence((seed, stream, *counters)))``, so streams are
independent of each other and of the order they are opened in.

A block of draws comes from one generator in one call.  Generator fills a
block row-major, so row k of a count-n block equals row k of any larger
block: a set keeps its first draws when it grows.  The policy weights are
keyed per layer and the training shuffles per epoch.
"""

from __future__ import annotations

import numpy as np

# Stream ids.  Never renumber or reuse these: they are part of the
# reproducibility contract for scenario sets and checkpoints.
POLICY_INIT = 0
X0 = 1
XI = 2  # unused: ParamSpec.sample draws xi on counters 1, 2, ... of the x0 stream
OMEGA = 3
SHUFFLE = 4
SIM_X0 = 5
SIM_NOISE = 6
BENCH = 7


def substream(seed: int, stream: int, *counters: int) -> np.random.Generator:
    """Return a fresh generator for the given (seed, stream, counters) key."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((seed, stream) + counters))
