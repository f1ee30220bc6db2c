"""Order statistics for the benchmark's timings.

The machines this runs on change speed under the benchmark: other tenants
share the physical cores, and the same code runs 1.5-1.7x slower while
they are busy.  The slow stretches come and go on every scale, from a few
milliseconds to tens of seconds, and their share of a run differs from run
to run, so a mean or a median over a run measures the neighbours as much
as the program.  Each phase is therefore timed in short units of one kind
of work, and a unit kind's cost is a low percentile (FAST_Q) of its
samples: what the unit costs while the core is not contended.  A run only
needs a few percent of uncontended time, spread anywhere in it, for that
figure to hold.
"""

from __future__ import annotations

import statistics

FAST_Q = 2   # percentile taken as a unit's uncontended cost


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of ``values``, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fast(values) -> float:
    """A unit kind's uncontended cost: the FAST_Q-th percentile of its samples."""
    return percentile(values, FAST_Q)


def round_median(rounds, q: float) -> float:
    """Median over rounds of each round's q-th percentile."""
    return statistics.median(percentile(r, q) for r in rounds)
