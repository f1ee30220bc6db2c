"""Discrete-time stochastic linear system and closed-loop rollouts.

The plant is x' = A x + B u + w with additive disturbance w.  Rollouts run
in two modes:

  * ``full-horizon``: the policy sees (x0, xi) once and emits the whole
    action sequence, which is then applied open loop.
  * ``state-feedback``: the policy sees (x_k, xi) at every step.

``rollout_tensors`` is the only place the plant moves.  Its arithmetic goes
through the autodiff ops, so the same code path is eager (plain arrays in,
plain arrays out) or differentiable end to end when the policy closure
produces tape tensors.  A batched rollout is one (b, N+1, n_x) state block
and one (b, N, n_u) action block.  In full-horizon mode the states come
from the condensed prediction of linear MPC,

    [x_1; ...; x_N] = Phi x0 + Gamma U + Gamma_w W,

so the whole rollout costs one matmul against a constant on the tape.
Rollouts of a scenario cross product take the pair index (i, j): pair p
plays draw i[p] under disturbance sequence j[p], so ``x0 Phi^T`` and the
plan's ``U Gamma^T`` are computed once per draw, ``W Gamma_w^T`` once per
sequence, and each pair's states gather and add those rows.
State-feedback mode runs the recursion x' = x A^T + u B^T + w; with pairs,
its first decision, on (x0, xi) alone, runs once per draw and is gathered,
and every step from there runs per pair.  ``simulate`` runs that same
recursion with a policy that replans every step.
"""

from __future__ import annotations

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


@dataclass
class NoiseSpec:
    """Additive disturbance distribution with an optional infinity-norm bound.

    ``scale`` is the per-dimension standard deviation (gaussian) or
    half-width (uniform).  ``draw`` clips each component at +-``bound``.
    Gaussian noise defaults to bound 4 * max(scale), 0 (so zeros) for a zero
    scale; pass ``bound=None`` explicitly to disable.
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
        with np.errstate(over="ignore"):
            if self.kind == "gaussian" and not np.all(np.isfinite(8.0 * self.scale)):
                raise ValueError("gaussian 8 * scale is not finite")
        if self.bound == "default":
            self.bound = 4.0 * float(self.scale.max()) if self.kind == "gaussian" else None
        elif self.bound is not None:
            self.bound = float(self.bound)
            if self.bound <= 0 and self.kind != "zero":
                raise ValueError(f"noise bound must be positive, got {self.bound}")

    @property
    def dim(self) -> int:
        return self.scale.size

    def draw(self, gen: np.random.Generator, steps: int, count: int | None = None) -> np.ndarray:
        """One (steps, dim) disturbance sequence, or a (count, steps, dim)
        block of them from one call."""
        size = (steps, self.dim) if count is None else (count, steps, self.dim)
        if self.kind == "zero":
            return np.zeros(size)
        if self.kind == "gaussian":
            w = gen.normal(0.0, 1.0, size=size) * self.scale
        else:
            w = gen.uniform(-1.0, 1.0, size=size) * self.scale
        if self.bound is not None:
            # clip's bits from two plain ufuncs, at half of np.clip's call cost
            w = np.minimum(np.maximum(w, -self.bound), self.bound)
        return w


def _untaped(values):
    """``values``, refused when it is a tape tensor: ``pairs`` gathers off the tape."""
    if isinstance(values, ad.Tensor):
        raise ValueError("rollout_tensors: pairs needs an untaped policy, got a tape tensor")
    return values


def rollout_tensors(model, policy_fn, x0, xi, omega, mode, pairs=None):
    """Roll the closed loop over a batch; returns the state and action blocks.

    ``policy_fn`` maps a (b, n_x + d) block, the state joined with ``xi``,
    to an action array or tape tensor: in full-horizon mode one call on x0
    produces the flat (b, N * n_u) plan, in state-feedback mode it is called
    on (x_k, xi) at every step.  ``xi`` is (b, d) or None, ``omega`` (b, N, n_x).

    ``pairs`` = (i, j), untaped only, crosses the rows: rollout p plays row
    i[p] of ``x0`` and ``xi`` under row j[p] of ``omega``.  In full-horizon
    mode the policy and the products then run once per row and are gathered;
    in state-feedback mode the first decision runs once per row of ``x0`` and
    is gathered, and the steps run per pair.  A policy that returns a tape
    tensor with ``pairs`` raises ValueError.

    Returns (states, actions) of shape (b, N+1, n_x) and (b, N, n_u), with
    states[:, 0] = x0: tape tensors when the policy's are, else ndarrays.
    """
    if mode not in MODES:
        raise ValueError(f"unknown rollout mode {mode!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    (seqs, horizon, n_x), n_u = omega.shape, model.n_u
    if mode == FULL_HORIZON:
        plan = policy_fn(pol.join_input(x0, xi))
        if plan.shape[1] != horizon * n_u:
            raise ValueError(f"policy emits width {plan.shape[1]}, "
                             f"horizon wants {horizon} * {n_u}")
        phi, gamma, gamma_w = model.prediction(horizon)
        free, noise = x0 @ phi.T, omega.reshape(seqs, -1) @ gamma_w.T  # data only
        driven = ad.matmul(plan, gamma.T)
        if pairs is None:
            moved = ad.add(driven, free + noise)
        else:
            # each pair's rows, summed in one block; addition commutes, so
            # (free + noise) + driven has the bits of driven + (free + noise)
            i, j = pairs
            moved = free.take(i, axis=0)
            moved += noise.take(j, axis=0)
            moved += _untaped(driven).take(i, axis=0)
            x0, plan = x0.take(i, axis=0), plan.take(i, axis=0)
        batch = x0.shape[0]
        states = ad.concat([x0[:, None, :], ad.reshape(moved, (batch, horizon, n_x))], axis=1)
        return states, ad.reshape(plan, (batch, horizon, n_u))
    actions = []
    if pairs is not None:
        # the first decision reads only the draw: one policy row per draw
        i, j = pairs
        actions.append(_untaped(policy_fn(pol.join_input(x0, xi)))[i])
        x0, xi, omega = x0[i], None if xi is None else xi[i], omega[j]
    joined = xi is not None and np.size(xi) > 0
    states = [x0]
    for k in range(horizon):
        if k == len(actions):  # else the pairs branch made step 0's decision
            z = ad.concat([states[k], xi], axis=1) if joined else states[k]
            actions.append(policy_fn(z))
        # x' = x A^T + u B^T + w, row by row
        drift = ad.add(ad.matmul(states[k], model.A.T), ad.matmul(actions[k], model.B.T))
        states.append(ad.add(drift, omega[:, k, :]))
    batch = x0.shape[0]
    return (ad.reshape(ad.concat(states, axis=1), (batch, horizon + 1, n_x)),
            ad.reshape(ad.concat(actions, axis=1), (batch, horizon, n_u)))


def rollout_pairs(model, policy, scenarios, mode, chunk: int):
    """Untaped rollouts of ``scenarios``, ``chunk`` pairs at a time; yields
    (pair indices, xi rows or None, states, actions) per chunk.

    Pair idx = i * s + j keeps each draw's pairs contiguous, so a chunk hands
    ``rollout_tensors`` its range of draws, its sequences and (i, j): all s
    sequences, or its own rows when it holds fewer than s pairs (each
    sequence then at most once).  So no product runs on more rows than the
    chunk has pairs, a full-horizon network runs once per draw, and a
    state-feedback network runs once per draw at step 0 and once per pair
    after it.
    """
    for start in range(0, scenarios.size, chunk):
        idx = np.arange(start, min(start + chunk, scenarios.size))
        i, j = scenarios.pair_index(idx)
        lo, hi = i[0], i[-1] + 1
        x0 = scenarios.x0[lo:hi]
        xi = scenarios.xi[lo:hi] if scenarios.xi.shape[1] else None
        omega = scenarios.omega
        if idx.size < scenarios.s:
            omega, j = omega[j], np.arange(idx.size)
        if mode == FULL_HORIZON:
            plans = pol.forward(policy, x0, xi)
            policy_fn = lambda z: plans
        else:
            policy_fn = lambda z: pol.forward(policy, z)
        states, actions = rollout_tensors(model, policy_fn, x0, xi, omega, mode,
                                          pairs=(i - lo, j))
        yield idx, None if xi is None else xi[i - lo], states, actions


def simulate(model, policy, x0, xi, omega):
    """Receding-horizon closed loop of c runs at once, eager; ``x0`` is
    (c, n_x), ``xi`` (c, d) or None and ``omega`` (c, steps, n_x).

    The state-feedback recursion with a policy that replans every step: in
    either mode the applied action is the first n_u outputs of the policy
    on (x, xi), so a full-horizon policy applies the first action of its
    plan.  Returns (states (c, steps+1, n_x), actions (c, steps, n_u)); a
    state that leaves the floats raises ValueError naming its run and step.
    """
    def decide(z):
        return pol.forward(policy, z)[:, :model.n_u]

    states, actions = rollout_tensors(model, decide, x0, xi, omega, STATE_FEEDBACK)
    bad = np.argwhere(~np.all(np.isfinite(states), axis=2))
    if bad.size:
        run, k = bad[0]
        raise ValueError(f"simulate: the state of run {run} left the floats at step {k}")
    return states, actions
