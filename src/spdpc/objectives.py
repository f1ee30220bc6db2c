"""Control objectives and soft-constraint penalties.

The training loss over a batch of rollouts is

    J = (1 / (batch * N)) * sum over rollouts of
        [ sum_k (stage cost + state penalty + input penalty) + terminal term ]

with ReLU-squared penalties standing in for the hard constraints during
training.  Each constraint maps a block to residuals that are <= 0 where it
holds: the penalty is relu(residual + margin)^2, and certification asks
that every residual be <= 0.  Everything is built from autodiff ops, so a
loss evaluated on eager arrays (monitoring, certification) and one evaluated
on a tape (training) share the same arithmetic.  Each term is evaluated once
over a whole (b, steps, n) time block rather than step by step, so a loss
records a fixed number of tape nodes whatever the horizon.

Objective kinds (``OBJECTIVES`` lists the fields and weights each reads):
  * ``stabilization``: quadratic state + action cost.
  * ``tracking``: quadratic distance to a reference + action cost.
  * ``split-tracking``: track selected state components, damp the rest.
  * ``terminal-smoothing``: reach a target state at the end of the horizon
    with smooth state/action increments (replaces the per-stage form).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad

# each objective kind: the StageObjective fields it reads, and the LossWeights
# its cost reads (Q_du from a horizon of 2 on)
OBJECTIVES = {"stabilization": ((), ("Q_x", "Q_u")),
              "tracking": (("reference",), ("Q_r", "Q_u")),
              "split-tracking": (("track_indices", "reference"), ("Q_r", "Q_x")),
              "terminal-smoothing": (("target",), ("Q_r", "Q_du", "Q_dx", "Q_u"))}

# the weight that charges each constraint part
PART_WEIGHTS = {"state": "Q_h", "inputs": "Q_g", "terminal": "Q_f"}


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights; unused entries stay at zero.

    Q_r tracking, Q_u action effort, Q_x state magnitude, Q_h state-constraint
    penalty, Q_g action-constraint penalty, Q_f terminal state and terminal-set
    penalty, Q_c contraction, Q_du action smoothing, Q_dx state smoothing.
    """

    Q_r: float = 0.0
    Q_u: float = 0.0
    Q_x: float = 0.0
    Q_h: float = 0.0
    Q_g: float = 0.0
    Q_f: float = 0.0
    Q_c: float = 0.0
    Q_du: float = 0.0
    Q_dx: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = float(getattr(self, f.name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v}")
            object.__setattr__(self, f.name, v)


# ---------------------------------------------------------------------------
# per-scenario value references

def _per_scenario(values, ndim: int) -> np.ndarray:
    """Shape (b, d) per-scenario values to broadcast over a rank-``ndim``
    (b, ..., d) block, i.e. the same values at every time step."""
    values = np.asarray(values, dtype=np.float64)
    return values.reshape(values.shape[:1] + (1,) * (ndim - 2) + values.shape[1:])


@dataclass(frozen=True)
class Constant:
    """A fixed vector shared by every scenario."""

    values: tuple

    def resolve(self, xi, batch: int) -> np.ndarray:
        v = np.asarray(self.values, dtype=np.float64)
        return np.broadcast_to(v, (batch, v.size))


@dataclass(frozen=True)
class XiSlice:
    """Columns [start, stop) of the scenario parameter vector."""

    start: int
    stop: int

    def resolve(self, xi, batch: int) -> np.ndarray:
        if xi is None or np.asarray(xi).shape[-1] < self.stop:
            raise ValueError(
                f"parameter vector too short for columns [{self.start}:{self.stop})"
            )
        return np.asarray(xi, dtype=np.float64)[:, self.start:self.stop]


# ---------------------------------------------------------------------------
# constraints

def _check_margin(margin) -> float:
    margin = float(margin)
    if not np.isfinite(margin) or margin < 0.0:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    return margin


@dataclass(frozen=True)
class BoxConstraint:
    """lower <= v <= upper, encoded as residuals (v - upper, lower - v).

    A (..., K, n) block of K n-vectors gives (..., 2K, n) residuals: rows
    0..K-1 hold v - upper and rows K..2K-1 hold lower - v, written by one
    ``box`` node into one buffer over contiguous K·n runs; the bounds are
    tiled to (K, n) once per K.

    ``margin`` tightens the training penalty by that amount without moving
    the constraint itself, so rollouts keep headroom against noise; checks
    of the true constraint go through ``residuals`` and never see it.
    """

    lower: tuple
    upper: tuple
    margin: float = 0.0
    kind = "box"

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape:
            raise ValueError(f"box bounds differ in shape: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("box has lower > upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "margin", _check_margin(self.margin))
        object.__setattr__(self, "_tiled", {})

    def residuals(self, v, xi=None):
        """(..., 2K, n) residuals of a (..., K, n) block; <= 0 inside."""
        if v.ndim < 2:
            raise ValueError(f"box residuals expect a (..., K, n) block, got shape {v.shape}")
        rows = v.shape[-2]
        bounds = self._tiled.get(rows)
        if bounds is None:
            bounds = self._tiled[rows] = (np.tile(self.lower, (rows, 1)),
                                          np.tile(self.upper, (rows, 1)))
        return ad.box(v, *bounds)


@dataclass(frozen=True)
class EllipseKeepOut:
    """Keep the state outside a parametric ellipse in the first two components.

    residual = radius^2 - shape * (x1 - center_x)^2 - (x2 - center_y)^2;
    non-positive residual means the state is clear of the obstacle.
    ``margin`` inflates the penalty (in squared-distance units) the same
    way as for ``BoxConstraint``.
    """

    radius: Constant | XiSlice
    shape: Constant | XiSlice
    center_x: Constant | XiSlice
    center_y: Constant | XiSlice
    margin: float = 0.0
    kind = "keep-out"

    def __post_init__(self):
        object.__setattr__(self, "margin", _check_margin(self.margin))

    def residuals(self, x, xi=None):
        """(b, ..., 1) residuals of a (b, ..., n_x) state block; the
        per-scenario parameters hold at every step of the block."""
        if x.ndim < 2:
            raise ValueError("keep-out residuals expect a (batch, ..., n_x) state block")
        radius, shape, cx, cy = (_per_scenario(ref.resolve(xi, x.shape[0]), x.ndim) for ref in
                                 (self.radius, self.shape, self.center_x, self.center_y))
        x1 = ad.narrow(x, -1, 0, 1)
        x2 = ad.narrow(x, -1, 1, 2)
        return ad.subtract(
            ad.subtract(radius * radius, ad.multiply(shape, ad.square(ad.subtract(x1, cx)))),
            ad.square(ad.subtract(x2, cy)),
        )


@dataclass(frozen=True)
class BallConstraint:
    """||x - center|| <= radius over the last axis, around the origin without
    a center.  residual = ||x - center|| - radius, so ``margin`` tightens the
    penalty in distance units; a parametric center holds at every step.
    """

    radius: float
    center: Constant | XiSlice | None = None
    margin: float = 0.0
    kind = "ball"

    def __post_init__(self):
        radius = float(self.radius)
        if not (np.isfinite(radius) and radius > 0.0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "margin", _check_margin(self.margin))

    def residuals(self, x, xi=None):
        """(...) residuals of a (..., n) vector or block; <= 0 inside."""
        if self.center is not None:
            x = ad.subtract(x, _per_scenario(self.center.resolve(xi, x.shape[0]), x.ndim))
        return ad.subtract(ad.l2norm(x), self.radius)


@dataclass(frozen=True)
class ContractionConstraint:
    """||x_next|| <= rate * ||x||: pulls successive states toward the origin."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate:
            raise ValueError(f"contraction rate must be positive, got {self.rate}")

    def residuals(self, x, x_next):
        """||x_next|| - rate * ||x||, row by row over (..., n_x) blocks."""
        return ad.subtract(ad.l2norm(x_next), ad.multiply(ad.l2norm(x), self.rate))


@dataclass
class ConstraintSet:
    """Constraints by the part of a rollout they bind: ``state`` and
    ``inputs`` at steps 0..N-1, ``terminal`` at step N.  ``contraction``
    links successive states and only shapes training."""

    state: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    contraction: ContractionConstraint | None = None
    terminal: BoxConstraint | BallConstraint | None = None

    def checked(self) -> list:
        """(part, constraint) for every constraint a rollout must meet."""
        parts = [("state", c) for c in self.state] + [("inputs", c) for c in self.inputs]
        return parts + ([] if self.terminal is None else [("terminal", self.terminal)])


# ---------------------------------------------------------------------------
# objectives

@dataclass(frozen=True)
class StageObjective:
    kind: str
    track_indices: tuple = ()            # split-tracking: which components form y
    reference: Constant | XiSlice | None = None  # tracking / split-tracking
    target: Constant | XiSlice | None = None     # terminal-smoothing end state

    def __post_init__(self):
        if self.kind not in OBJECTIVES:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        missing = [name for name in OBJECTIVES[self.kind][0] if not getattr(self, name)]
        if missing:
            raise ValueError(f"{self.kind} objective needs {' and '.join(missing)}")
        object.__setattr__(self, "track_indices", tuple(int(i) for i in self.track_indices))


def weights_read(objective: StageObjective, constraints: ConstraintSet, horizon: int) -> set:
    """The LossWeights fields ``total_loss`` reads: the objective's, Q_f, the
    weight of each part with a constraint, and Q_c with a contraction."""
    read = {"Q_f", *OBJECTIVES[objective.kind][1]} - ({"Q_du"} if horizon == 1 else set())
    read |= {PART_WEIGHTS[part] for part, _ in constraints.checked()}
    return read | ({"Q_c"} if constraints.contraction else set())


def rollout_blocks(states, actions) -> dict:
    """The blocks of a (b, N+1, n_x) state and (b, N, n_u) action rollout, eager
    or taped: the parts ``state`` x_0..x_{N-1}, ``inputs`` u and ``terminal``
    x_N that the loss and the indicator read, and ``next`` x_1..x_N."""
    if states.ndim != 3 or actions.ndim != 3:
        raise ValueError(f"expected (b, N+1, n_x) states and (b, N, n_u) actions, "
                         f"got {states.shape} and {actions.shape}")
    batch, horizon = actions.shape[:2]
    if states.shape[:2] != (batch, horizon + 1):
        raise ValueError(f"states {states.shape} do not bracket actions {actions.shape}")
    return {"state": ad.narrow(states, 1, 0, horizon), "inputs": actions,
            "next": ad.narrow(states, 1, 1, horizon + 1),
            "terminal": ad.narrow(states, 1, horizon, horizon + 1)}


def objective_cost(objective: StageObjective, weights: LossWeights, blocks: dict, xi=None):
    """The objective's cost terms, each summed over the batch and the horizon,
    from the ``rollout_blocks`` of a rollout and the (b, d) parameter block
    ``xi``; the cost is their sum."""
    x, u = blocks["state"], blocks["inputs"]
    batch, horizon = u.shape[:2]
    if objective.kind in ("tracking", "split-tracking"):
        ref = _per_scenario(objective.reference.resolve(xi, batch), 3)
    if objective.kind == "stabilization":
        terms = [ad.sumsq(x, weights.Q_x), ad.sumsq(u, weights.Q_u)]
    elif objective.kind == "tracking":
        terms = [ad.sumsq(ad.subtract(ref, x), weights.Q_r), ad.sumsq(u, weights.Q_u)]
    elif objective.kind == "split-tracking":
        # Q_r on the tracked components' error, Q_x on every other component
        cols = list(objective.track_indices)
        target = np.zeros(ref.shape[:-1] + x.shape[-1:])
        target[..., cols] = ref
        column_weight = np.full(x.shape[-1], weights.Q_x)
        column_weight[cols] = weights.Q_r
        terms = [ad.reduce_sum(ad.multiply(ad.square(ad.subtract(x, target)), column_weight))]
    else:  # terminal-smoothing: reach the target at step N with smooth increments
        target = _per_scenario(objective.target.resolve(xi, batch), 3)
        terms = [ad.sumsq(ad.subtract(blocks["terminal"], target), weights.Q_r)]
        if horizon > 1:
            du = ad.subtract(ad.narrow(u, 1, 1, horizon), ad.narrow(u, 1, 0, horizon - 1))
            terms.append(ad.sumsq(du, weights.Q_du))
        terms += [ad.sumsq(ad.subtract(blocks["next"], x), weights.Q_dx), ad.sumsq(u, weights.Q_u)]
    return terms


@dataclass
class LossParts:
    """J and its decomposition; total == objective + state + inputs + terminal.
    Only ``total`` is a tape tensor, when the loss was taped; it is a 0-d
    ndarray otherwise, and the parts are always 0-d ndarrays."""

    total: ad.Tensor | np.ndarray
    objective: np.ndarray
    state: np.ndarray
    inputs: np.ndarray
    terminal: np.ndarray

    def floats(self) -> dict[str, float]:
        return {name: getattr(self, name).item() for name in LOSS_PARTS}


LOSS_PARTS = tuple(f.name for f in fields(LossParts))


def total_loss(states, actions, xi, objective, constraints, weights) -> LossParts:
    """Normalized loss over a batch of rollouts.

    ``states`` (b, N+1, n_x) and ``actions`` (b, N, n_u) are the blocks from
    ``rollout_tensors`` (tensors or plain arrays); ``xi`` is the (b, d)
    parameter block or None.  Each constraint is charged on its part's
    ``rollout_blocks`` block with that part's ``PART_WEIGHTS`` weight.  A
    penalty whose weight is 0 is not built, so it records no tape nodes;
    every charged term meets in one ``autodiff.total`` node.
    """
    blocks = rollout_blocks(states, actions)
    batch, horizon = blocks["inputs"].shape[:2]
    obj = objective_cost(objective, weights, blocks, xi)

    terms = {"state": [], "inputs": [],
             "terminal": [ad.sumsq(blocks["terminal"], weights.Q_f)] if weights.Q_f else []}
    for part, c in constraints.checked():
        weight = getattr(weights, PART_WEIGHTS[part])
        if weight:
            terms[part].append(ad.relu_sumsq(c.residuals(blocks[part], xi), weight, c.margin))
    if constraints.contraction is not None and weights.Q_c:
        terms["state"].append(ad.relu_sumsq(
            constraints.contraction.residuals(blocks["state"], blocks["next"]), weights.Q_c))

    total, parts = ad.total([obj, terms["state"], terms["inputs"], terms["terminal"]],
                            1.0 / (batch * horizon))
    return LossParts(total, *parts)
