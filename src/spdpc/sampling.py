"""Scenario sampling for training and certification.

A scenario set is the cross product of m parametric draws (initial state
x0_i plus parameter vector xi_i) with s disturbance sequences Omega_j: the
pair (i, j) plays rollout i under disturbance sequence j, giving r = m * s
scenarios total.  Disturbance sequences are shared across parametric draws
by construction.

Draws are keyed by (seed, stream, index), so sample i is the same whether
the set holds 10 or 10000 scenarios and regardless of sampling order.
Splits partition the *parametric* index so no initial condition leaks
between train, dev and test.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

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
            with np.errstate(over="ignore", invalid="ignore"):
                if self.kind == "uniform" and not np.all(np.isfinite(b - a)):
                    raise ValueError("uniform width upper - lower is not finite")
            if self.kind == "gaussian" and np.any(b < 0):
                raise ValueError("gaussian std must be non-negative")
        object.__setattr__(self, "a", tuple(a.tolist()))
        object.__setattr__(self, "b", tuple(b.tolist()) if b is not None else ())

    @property
    def dim(self) -> int:
        return len(self.a)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        a = np.asarray(self.a)
        if self.kind == "constant":
            return a.copy()
        b = np.asarray(self.b)
        if self.kind == "uniform":
            return gen.uniform(a, b)
        return gen.normal(a, b)


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
    x0 = np.stack([spec.x0.draw(_rng.substream(seed, _rng.X0, i)) for i in range(m)])
    xi = np.stack([spec.draw_xi(_rng.substream(seed, _rng.XI, i)) for i in range(m)]) \
        if spec.xi_dim else np.zeros((m, 0))
    omega = np.stack([noise.draw(_rng.substream(seed, _rng.OMEGA, j), horizon) for j in range(s)])
    return ScenarioSet(x0, xi, omega, seed)


def split(scenarios: ScenarioSet, fractions) -> list[ScenarioSet]:
    """Partition by parametric index with floor-of-cumulative-sum boundaries.

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
    eps = 1e-9 * max(scenarios.m, 1)
    bounds = [int(np.floor(c * scenarios.m + eps)) for c in np.cumsum(fractions)]
    parts, start = [], 0
    for stop in bounds:
        if stop <= start:
            raise ValueError(
                f"fraction produces an empty split ({start}:{stop} of m={scenarios.m})")
        parts.append(ScenarioSet(
            scenarios.x0[start:stop].copy(),
            scenarios.xi[start:stop].copy(),
            scenarios.omega,
            scenarios.seed,
            indices=scenarios.indices[start:stop].copy(),
        ))
        start = stop
    return parts


# ---------------------------------------------------------------------------
# persistence: x0.csv / xi.csv / omega.csv + meta.json (schema in README)

def write_csv(path, header, rows):
    """CSV with a header row; floats go through repr so a reread is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def save_bundle(scenarios: ScenarioSet, directory) -> list[str]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n_x = scenarios.x0.shape[1]
    xi_dim = scenarios.xi.shape[1]
    n_w = scenarios.omega.shape[2]
    write_csv(directory / "x0.csv",
               ["i"] + [f"x{d}" for d in range(n_x)],
               [[int(scenarios.indices[row])] + [float(v) for v in scenarios.x0[row]]
                for row in range(scenarios.m)])
    write_csv(directory / "xi.csv",
               ["i"] + [f"xi{d}" for d in range(xi_dim)],
               [[int(scenarios.indices[row])] + [float(v) for v in scenarios.xi[row]]
                for row in range(scenarios.m)])
    write_csv(directory / "omega.csv",
               ["j", "k"] + [f"w{d}" for d in range(n_w)],
               [[j, k] + [float(v) for v in scenarios.omega[j, k]]
                for j in range(scenarios.s) for k in range(scenarios.horizon)])
    meta = {
        "m": scenarios.m, "s": scenarios.s, "horizon": scenarios.horizon,
        "n_x": n_x, "xi_dim": xi_dim, "n_w": n_w, "seed": scenarios.seed,
    }
    with open(directory / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    return ["x0.csv", "xi.csv", "omega.csv", "meta.json"]


def load_bundle(directory) -> ScenarioSet:
    directory = Path(directory)
    with open(directory / "meta.json") as fh:
        meta = json.load(fh)

    def read(name, id_cols):
        with open(directory / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = np.array([[int(v) for v in row[:id_cols]] for row in rows])
        vals = np.array([[float(v) for v in row[id_cols:]] for row in rows])
        return ids, vals.reshape(len(rows), -1)

    ids_x0, x0 = read("x0.csv", 1)
    _, xi = read("xi.csv", 1)
    _, flat = read("omega.csv", 2)
    omega = flat.reshape(meta["s"], meta["horizon"], meta["n_w"])
    return ScenarioSet(x0, xi.reshape(meta["m"], meta["xi_dim"]), omega,
                       meta["seed"], indices=ids_x0[:, 0])
