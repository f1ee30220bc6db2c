"""Scenario sampling for training and certification.

A scenario set is the cross product of m parametric draws (initial state
x0_i plus parameter vector xi_i) with s disturbance sequences Omega_j: the
pair (i, j) plays rollout i under disturbance sequence j, giving r = m * s
scenarios total.  Disturbance sequences are shared across parametric draws
by construction, so a rollout of the set (``dynamics.rollout_pairs``)
computes what reads only the draw once per draw: the full-horizon plan,
``x0 Phi^T`` and ``U Gamma^T``, or the first state-feedback decision.  A
full-horizon ``W Gamma_w^T`` runs once per sequence.

Each block -- x0, each component of xi, Omega -- is drawn in one call from
its own generator (see ``rng``), and row i of a block is the same whether
the set holds 10 or 10000 scenarios.  Splits partition the *parametric*
index so no initial condition leaks between train, dev and test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .dynamics import NoiseSpec
from .objectives import XiSlice

DIST_KINDS = ("uniform", "gaussian", "constant")


@dataclass(frozen=True)
class DistSpec:
    """One sampled block: uniform box, gaussian, or a constant vector.

    uniform uses (lower, upper), gaussian uses (mean, std), constant uses
    (values,); all entries are per-dimension arrays of equal length.
    """

    kind: str
    a: tuple
    b: tuple = ()

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64)) if len(self.b) else None
        if self.kind == "constant":
            if b is not None:
                raise ValueError("constant distribution takes a single vector")
        else:
            if b is None or a.shape != b.shape:
                raise ValueError(f"{self.kind} needs two equal-length vectors")
            if self.kind == "uniform" and np.any(a > b):
                raise ValueError("uniform has lower > upper")
            if self.kind == "gaussian" and np.any(b < 0):
                raise ValueError("gaussian std must be non-negative")
            with np.errstate(over="ignore", invalid="ignore"):
                if self.kind == "uniform" and not np.all(np.isfinite(b - a)):
                    raise ValueError("uniform width upper - lower is not finite")
                if self.kind == "gaussian" and not np.all(np.isfinite(np.abs(a) + 8.0 * b)):
                    raise ValueError("gaussian |mean| + 8 std is not finite")
        object.__setattr__(self, "a", tuple(a.tolist()))
        object.__setattr__(self, "b", tuple(b.tolist()) if b is not None else ())
        # draw() is Generator.uniform's and Generator.normal's arithmetic
        spread = b - a if self.kind == "uniform" else b
        object.__setattr__(self, "_low_spread", (a, spread))

    @property
    def dim(self) -> int:
        return len(self.a)

    def draw(self, gen: np.random.Generator, count: int | None = None) -> np.ndarray:
        """One (dim,) draw, or a (count, dim) block from one call."""
        low, spread = self._low_spread
        shape = low.shape if count is None else (count, self.dim)
        if self.kind == "uniform":
            return low + spread * gen.random(shape)
        if self.kind == "gaussian":
            return low + spread * gen.standard_normal(shape)
        return np.broadcast_to(low, shape).copy()


@dataclass(frozen=True)
class ParamSpec:
    """x0 distribution plus the named components that make up xi."""

    x0: DistSpec
    components: tuple = ()  # ((name, DistSpec), ...)

    def __post_init__(self):
        comps = tuple((str(n), d) for n, d in self.components)
        names = [n for n, _ in comps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in {names}")
        object.__setattr__(self, "components", comps)

    @property
    def xi_dim(self) -> int:
        return sum(d.dim for _, d in self.components)

    def layout(self) -> dict[str, tuple[int, int]]:
        out, offset = {}, 0
        for name, dist in self.components:
            out[name] = (offset, offset + dist.dim)
            offset += dist.dim
        return out

    def slice_for(self, name: str) -> XiSlice:
        layout = self.layout()
        if name not in layout:
            raise ValueError(f"no parameter component named {name!r}; have {sorted(layout)}")
        return XiSlice(*layout[name])

    def draw_xi(self, gen: np.random.Generator) -> np.ndarray:
        if not self.components:
            return np.zeros(0)
        return np.concatenate([dist.draw(gen) for _, dist in self.components])

    def sample(self, seed: int, stream: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(x0 (count, n_x), xi (count, xi_dim)) blocks: x0 from
        ``substream(seed, stream, 0)``, component c of xi from
        ``substream(seed, stream, c + 1)``."""
        x0 = self.x0.draw(_rng.substream(seed, stream, 0), count)
        xi = [dist.draw(_rng.substream(seed, stream, c + 1), count)
              for c, (_, dist) in enumerate(self.components)]
        return x0, np.concatenate(xi, axis=1) if xi else np.zeros((count, 0))


@dataclass
class ScenarioSet:
    """m parametric draws crossed with s disturbance sequences."""

    x0: np.ndarray      # (m, n_x)
    xi: np.ndarray      # (m, xi_dim)
    omega: np.ndarray   # (s, N, n_x)
    seed: int
    indices: np.ndarray = field(default=None)  # original parametric ids, (m,)

    def __post_init__(self):
        if self.indices is None:
            self.indices = np.arange(self.x0.shape[0])

    @property
    def m(self) -> int:
        return self.x0.shape[0]

    @property
    def s(self) -> int:
        return self.omega.shape[0]

    @property
    def size(self) -> int:
        return self.m * self.s

    @property
    def horizon(self) -> int:
        return self.omega.shape[1]

    def pair_index(self, idx):
        """(i, j) of the flat pair indices ``idx``: pair idx = i * s + j, so
        every i's pairs are contiguous."""
        return idx // self.s, idx % self.s

    def pair_rows(self, idx):
        """Rollout inputs of the pairs ``idx``: (x0 (b, n_x), xi (b, d) or
        None when xi is empty, omega (b, N, n_x), i, j)."""
        i, j = self.pair_index(idx)
        xi = self.xi[i] if self.xi.shape[1] else None
        return self.x0[i], xi, self.omega[j], i, j


def sample_scenarios(spec: ParamSpec, noise: NoiseSpec, m: int, s: int,
                     horizon: int, seed: int) -> ScenarioSet:
    if m < 1 or s < 1 or horizon < 1:
        raise ValueError(f"need m, s, horizon >= 1, got {(m, s, horizon)}")
    x0, xi = spec.sample(seed, _rng.X0, m)
    omega = noise.draw(_rng.substream(seed, _rng.OMEGA), horizon, s)
    return ScenarioSet(x0, xi, omega, seed)


def split_ranges(fractions, m: int) -> list[tuple[int, int]]:
    """(start, stop) of each part when ``fractions`` split m parametric
    draws, at floor-of-cumulative-sum boundaries.

    Fractions must be positive and sum to at most 1; any remainder after the
    last boundary is dropped.  A fraction that rounds to an empty part is an
    error.
    """
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if sum(fractions) > 1.0 + 1e-12:
        raise ValueError(f"fractions sum to {sum(fractions)} > 1")
    # nudge before flooring: thirds of 1000 must end at 1000, not 999
    eps = 1e-9 * max(m, 1)
    bounds = [int(np.floor(c * m + eps)) for c in np.cumsum(fractions)]
    ranges = list(zip([0, *bounds], bounds))
    for start, stop in ranges:
        if stop <= start:
            raise ValueError(f"fraction produces an empty split ({start}:{stop} of m={m})")
    return ranges


def split(scenarios: ScenarioSet, fractions) -> list[ScenarioSet]:
    """Partition by parametric index into ``split_ranges(fractions, m)``."""
    return [ScenarioSet(scenarios.x0[start:stop].copy(), scenarios.xi[start:stop].copy(),
                        scenarios.omega, scenarios.seed,
                        indices=scenarios.indices[start:stop].copy())
            for start, stop in split_ranges(fractions, scenarios.m)]
