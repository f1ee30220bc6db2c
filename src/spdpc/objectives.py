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

Objective kinds:
  * ``stabilization``: quadratic state + action cost.
  * ``tracking``: quadratic distance to a reference + action cost.
  * ``split-tracking``: track selected state components, damp the rest.
  * ``terminal-smoothing``: reach a target state at the end of the horizon
    with smooth state/action increments (replaces the per-stage form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

OBJECTIVE_KINDS = ("stabilization", "tracking", "split-tracking", "terminal-smoothing")

WEIGHT_FIELDS = ("Q_r", "Q_u", "Q_x", "Q_h", "Q_g", "Q_f", "Q_c", "Q_du", "Q_dx")


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
        for name in WEIGHT_FIELDS:
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)


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

    def residuals(self, v, xi=None):
        """(..., 2n) residuals of a (..., n) vector or block; <= 0 inside."""
        return ad.concat([ad.subtract(v, self.upper), ad.subtract(self.lower, v)], axis=-1)


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
        xv = ad.as_tensor(x)
        ndim = xv.values.ndim
        if ndim < 2:
            raise ValueError("keep-out residuals expect a (batch, ..., n_x) state block")
        batch = xv.values.shape[0]
        radius, shape, cx, cy = (_per_scenario(ref.resolve(xi, batch), ndim) for ref in
                                 (self.radius, self.shape, self.center_x, self.center_y))
        x1 = ad.narrow(xv, -1, 0, 1)
        x2 = ad.narrow(xv, -1, 1, 2)
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
        xv = ad.as_tensor(x)
        if self.center is not None:
            center = self.center.resolve(xi, xv.values.shape[0])
            xv = ad.subtract(xv, _per_scenario(center, xv.values.ndim))
        return ad.subtract(ad.l2norm(xv), self.radius)


@dataclass(frozen=True)
class ContractionConstraint:
    """||x_next|| <= rate * ||x||: pulls successive states toward the origin."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate:
            raise ValueError(f"contraction rate must be positive, got {self.rate}")

    def residuals(self, x, x_next):
        """||x_next|| - rate * ||x||, row by row over (..., n_x) blocks."""
        return ad.subtract(ad.l2norm(x_next), ad.scale(ad.l2norm(x), self.rate))


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
# penalties

def penalty(residual, weight: float, margin: float = 0.0):
    """weight * sum relu(residual + margin)^2; zero iff every residual <= -margin."""
    return ad.relu_sumsq(residual, weight, margin)


def _sum(terms):
    """Sum of scalar tensors; 0 for none."""
    total = None
    for t in terms:
        total = t if total is None else ad.add(total, t)
    return ad.as_tensor(0.0) if total is None else total


# ---------------------------------------------------------------------------
# objectives

@dataclass(frozen=True)
class StageObjective:
    kind: str
    track_indices: tuple = ()            # split-tracking: which components form y
    reference: Constant | XiSlice | None = None  # tracking / split-tracking
    target: Constant | XiSlice | None = None     # terminal-smoothing end state

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "tracking" and self.reference is None:
            raise ValueError("tracking objective needs a reference")
        if self.kind == "split-tracking" and (not self.track_indices or self.reference is None):
            raise ValueError("split-tracking needs track_indices and a reference")
        if self.kind == "terminal-smoothing" and self.target is None:
            raise ValueError("terminal-smoothing needs a target")
        object.__setattr__(self, "track_indices", tuple(int(i) for i in self.track_indices))


def stage_cost(objective: StageObjective, weights: LossWeights, x, u, xi=None):
    """Stage cost summed over the batch: x (b, n_x) and u (b, n_u) at one
    step, or (b, steps, n_x) and (b, steps, n_u) blocks summed over time."""
    xv, uv = ad.as_tensor(x), ad.as_tensor(u)
    if xv.values.ndim == 1:
        raise ValueError("stage_cost expects batched (b, n) inputs")
    batch = xv.values.shape[0]
    if objective.kind == "stabilization":
        return ad.add(ad.sumsq(xv, weights.Q_x), ad.sumsq(uv, weights.Q_u))
    if objective.kind in ("tracking", "split-tracking"):
        ref = _per_scenario(objective.reference.resolve(xi, batch), xv.values.ndim)
    if objective.kind == "tracking":
        return ad.add(ad.sumsq(ad.subtract(ref, xv), weights.Q_r), ad.sumsq(uv, weights.Q_u))
    if objective.kind == "split-tracking":
        # Q_r on the tracked components' error, Q_x on every other component
        cols = list(objective.track_indices)
        target = np.zeros(ref.shape[:-1] + xv.values.shape[-1:])
        target[..., cols] = ref
        column_weight = np.full(xv.values.shape[-1], weights.Q_x)
        column_weight[cols] = weights.Q_r
        return ad.reduce_sum(ad.multiply(ad.square(ad.subtract(xv, target)), column_weight))
    raise ValueError(f"{objective.kind} has no per-stage cost")


@dataclass
class LossParts:
    """J and its decomposition; total == objective + state + inputs + terminal."""

    total: ad.Tensor
    objective: ad.Tensor
    state: ad.Tensor
    inputs: ad.Tensor
    terminal: ad.Tensor

    def floats(self) -> dict[str, float]:
        return {
            "total": self.total.item(),
            "objective": self.objective.item(),
            "state": self.state.item(),
            "inputs": self.inputs.item(),
            "terminal": self.terminal.item(),
        }


def total_loss(states, actions, xi, objective, constraints, weights) -> LossParts:
    """Normalized loss over a batch of rollouts.

    ``states`` (b, N+1, n_x) and ``actions`` (b, N, n_u) are the blocks from
    ``rollout_tensors`` (tensors or plain arrays); ``xi`` is the (b, d)
    parameter block or None.  Stage costs and penalties apply at steps
    0..N-1, the terminal terms at step N.  A penalty whose weight is 0 is
    not built, so it records no tape nodes.
    """
    states, actions = ad.as_tensor(states), ad.as_tensor(actions)
    if states.values.ndim != 3 or actions.values.ndim != 3:
        raise ValueError(f"expected (b, N+1, n_x) states and (b, N, n_u) actions, "
                         f"got {states.shape} and {actions.shape}")
    batch, horizon = actions.values.shape[:2]
    if states.values.shape[:2] != (batch, horizon + 1):
        raise ValueError(f"states {states.shape} do not bracket actions {actions.shape}")
    norm = 1.0 / (batch * horizon)
    running = ad.narrow(states, 1, 0, horizon)              # x_0 .. x_{N-1}
    after = ad.narrow(states, 1, 1, horizon + 1)            # x_1 .. x_N
    final = ad.narrow(states, 1, horizon, horizon + 1)      # x_N, (b, 1, n_x)

    if objective.kind == "terminal-smoothing":
        target = _per_scenario(objective.target.resolve(xi, batch), 3)
        terms = [ad.sumsq(ad.subtract(final, target), weights.Q_r)]
        if horizon > 1:
            du = ad.subtract(ad.narrow(actions, 1, 1, horizon),
                             ad.narrow(actions, 1, 0, horizon - 1))
            terms.append(ad.sumsq(du, weights.Q_du))
        terms.append(ad.sumsq(ad.subtract(after, running), weights.Q_dx))
        terms.append(ad.sumsq(actions, weights.Q_u))
        obj = _sum(terms)
    else:
        obj = stage_cost(objective, weights, running, actions, xi)

    blocks = {"state": running, "inputs": actions, "terminal": final}
    weight = {"state": weights.Q_h, "inputs": weights.Q_g, "terminal": weights.Q_f}
    terms = {"state": [], "inputs": [], "terminal": [ad.sumsq(final, weights.Q_f)]}
    for part, c in constraints.checked():
        if weight[part]:
            terms[part].append(penalty(c.residuals(blocks[part], xi), weight[part], c.margin))
    if constraints.contraction is not None and weights.Q_c:
        terms["state"].append(
            penalty(constraints.contraction.residuals(running, after), weights.Q_c))

    obj = ad.scale(obj, norm)
    sp, ip, term = (ad.scale(_sum(terms[part]), norm) for part in ("state", "inputs", "terminal"))
    total = ad.add(ad.add(obj, sp), ad.add(ip, term))
    return LossParts(total, obj, sp, ip, term)
