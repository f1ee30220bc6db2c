"""Discrete-time stochastic linear system and closed-loop rollouts.

The plant is x' = A x + B u + w with additive disturbance w.  Rollouts run
in two modes:

  * ``full-horizon``: the policy sees (x0, xi) once and emits the whole
    action sequence, which is then applied open loop.
  * ``state-feedback``: the policy is evaluated on the current state at
    every step.

``rollout_tensors`` is the only place the plant moves.  Its arithmetic goes
through the autodiff ops, so the same code path is eager (plain arrays in,
plain arrays out) or differentiable end to end when the policy closure
produces tape tensors.  A batched rollout is one (b, N+1, n_x) state block
and one (b, N, n_u) action block.  In full-horizon mode the states come
from the condensed prediction of linear MPC,

    [x_1; ...; x_N] = Phi x0 + Gamma U + Gamma_w W,

so the whole rollout costs one matmul against a constant on the tape.
State-feedback mode runs the recursion x' = x A^T + u B^T + w, and
``simulate`` runs that same recursion with a policy that replans every step.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import policy as pol

FULL_HORIZON = "full-horizon"
STATE_FEEDBACK = "state-feedback"
MODES = (FULL_HORIZON, STATE_FEEDBACK)


@dataclass
class LinearSystem:
    A: np.ndarray
    B: np.ndarray

    _prediction: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError(f"B must be ({self.A.shape[0]}, n_u), got {self.B.shape}")
        for name, matrix in (("A", self.A), ("B", self.B)):
            bad = np.argwhere(~np.isfinite(matrix))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"{name}[{i}][{j}]: must be finite, got {matrix[i, j]}")
        rank = controllability_rank(self.A, self.B)
        if rank < self.n_x:
            warnings.warn(
                f"(A, B) pair is not controllable: rank {rank} < {self.n_x}",
                stacklevel=2,
            )

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def prediction(self, horizon: int):
        """Condensed prediction matrices (Phi, Gamma, Gamma_w), cached per horizon.

        Stacking x_1..x_N into one (N * n_x) vector, x = Phi x0 + Gamma u +
        Gamma_w w with Phi (N n_x, n_x), Gamma (N n_x, N n_u) and Gamma_w
        (N n_x, N n_x); block (k, j) of Gamma is A^(k-j) B for j <= k.
        """
        if horizon not in self._prediction:
            powers = [np.eye(self.n_x)]
            for _ in range(horizon):
                powers.append(self.A @ powers[-1])
            zero = np.zeros_like(self.A)
            gamma_w = np.block([[powers[k - j] if j <= k else zero for j in range(horizon)]
                                for k in range(horizon)])
            gamma = gamma_w @ np.kron(np.eye(horizon), self.B)
            self._prediction[horizon] = (np.vstack(powers[1:]), gamma, gamma_w)
        return self._prediction[horizon]


def controllability_rank(A, B) -> int:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    blocks, block = [], B
    for _ in range(A.shape[0]):
        blocks.append(block)
        block = A @ block
    return int(np.linalg.matrix_rank(np.hstack(blocks)))


def load_model(path) -> LinearSystem:
    """Read a model fixture: JSON with dense "A" and "B" matrices."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return LinearSystem(np.asarray(doc["A"]), np.asarray(doc["B"]))
    except KeyError as exc:
        raise ValueError(f"model fixture {path} is missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"model fixture {path}: {exc}") from None


@dataclass
class NoiseSpec:
    """Additive disturbance distribution with an optional infinity-norm bound.

    ``scale`` is the per-dimension standard deviation (gaussian) or
    half-width (uniform).  Gaussian noise defaults to truncation at
    4 * max(scale); pass ``bound=None`` explicitly to disable.
    """

    kind: str
    scale: np.ndarray
    bound: float | None = "default"  # sentinel resolved in __post_init__

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "zero"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if np.any(self.scale < 0):
            raise ValueError("noise scale must be non-negative")
        if self.bound == "default":
            self.bound = 4.0 * float(self.scale.max()) if self.kind == "gaussian" else None
        if self.bound is not None:
            self.bound = float(self.bound)
            if self.bound <= 0 and self.kind != "zero":
                raise ValueError(f"noise bound must be positive, got {self.bound}")

    @property
    def dim(self) -> int:
        return self.scale.size

    def draw(self, gen: np.random.Generator, steps: int) -> np.ndarray:
        """Sample a (steps, dim) disturbance sequence."""
        size = (steps, self.dim)
        if self.kind == "zero":
            return np.zeros(size)
        if self.kind == "gaussian":
            w = gen.normal(0.0, 1.0, size=size) * self.scale
        else:
            w = gen.uniform(-1.0, 1.0, size=size) * self.scale
        if self.bound is not None:
            w = np.clip(w, -self.bound, self.bound)
        return w


def rollout_tensors(model, policy_fn, x0, xi, omega, mode, n_u):
    """Roll the closed loop over a batch; returns the state and action blocks.

    ``policy_fn`` maps a (b, d) tensor to actions: in full-horizon mode one
    call produces the flat (b, N * n_u) plan, in state-feedback mode it is
    called on the state at every step.  ``omega`` is (b, N, n_x).

    Returns (states, actions): tensors of shape (b, N+1, n_x) and (b, N, n_u),
    with states[:, 0] = x0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    batch, horizon, n_x = omega.shape
    if mode == FULL_HORIZON:
        z = x0
        if xi is not None and np.asarray(xi).size:
            z = ad.concat([x0, np.asarray(xi, dtype=np.float64)], axis=1)
        plan = policy_fn(z)
        if plan.values.shape[1] != horizon * n_u:
            raise ValueError(
                f"policy emits width {plan.values.shape[1]}, "
                f"horizon wants {horizon} * {n_u}"
            )
        phi, gamma, gamma_w = model.prediction(horizon)
        free = x0 @ phi.T + omega.reshape(batch, -1) @ gamma_w.T  # data only
        moved = ad.add(ad.matmul(plan, gamma.T), free)
        states = ad.concat([x0[:, None, :], ad.reshape(moved, (batch, horizon, n_x))], axis=1)
        return states, ad.reshape(plan, (batch, horizon, n_u))
    states = [ad.as_tensor(x0)]
    actions = []
    for k in range(horizon):
        actions.append(policy_fn(states[k]))
        # x' = x A^T + u B^T + w, row by row
        drift = ad.add(ad.matmul(states[k], model.A.T), ad.matmul(actions[k], model.B.T))
        states.append(ad.add(drift, omega[:, k, :]))
    return (ad.reshape(ad.concat(states, axis=1), (batch, horizon + 1, n_x)),
            ad.reshape(ad.concat(actions, axis=1), (batch, horizon, n_u)))


def simulate(model, policy, mode, x0, xi, omega):
    """Receding-horizon closed loop of c runs at once, eager; ``x0`` is
    (c, n_x), ``xi`` (c, d) or None and ``omega`` (c, steps, n_x).

    The state-feedback recursion with a policy that replans every step: a
    full-horizon policy plans from (x, xi) and only the plan's first action
    is applied.  Returns (states (c, steps+1, n_x), actions (c, steps, n_u));
    a state that leaves the floats raises ValueError naming its run and step.
    """
    if mode not in MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")

    def decide(x):
        if mode == STATE_FEEDBACK:
            return pol.apply_layers(policy.layers, x)
        z = x if xi is None else ad.concat([x, xi], axis=1)
        return ad.narrow(pol.apply_layers(policy.layers, z), 1, 0, model.n_u)

    states, actions = rollout_tensors(model, decide, x0, None, omega, STATE_FEEDBACK,
                                      model.n_u)
    bad = np.argwhere(~np.all(np.isfinite(states.values), axis=2))
    if bad.size:
        run, k = bad[0]
        raise ValueError(f"simulate: the state of run {run} left the floats at step {k}")
    return states.values, actions.values
