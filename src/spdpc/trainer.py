"""Policy optimization through sampled closed-loop rollouts.

Each step draws a minibatch of (parametric, disturbance) scenario pairs,
replays the closed loop on a tape, backpropagates the normalized loss to
the policy weights and applies a decoupled weight-decay Adam update.  Dev
loss is evaluated untaped after every epoch and the weights with the best
dev loss are the ones returned.  A loss, gradient, updated weight or dev
loss that is not finite raises ``TrainingDiverged``.

Everything downstream of the seed is deterministic: shuffles come from a
counter-keyed stream per epoch, so a rerun reproduces the history and the
checkpoint byte for byte.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import dynamics as dyn
from . import objectives as obj
from . import policy as pol
from . import rng as _rng
from .sampling import write_csv


class TrainingDiverged(RuntimeError):
    """The loss, a gradient or a weight left the floats."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    minibatch: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be >= 1, got {self.minibatch}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("betas must sit in [0, 1)")
        if self.lr <= 0 or self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("lr and eps must be positive, weight_decay non-negative")


@dataclass
class AdamWState:
    """First and second moment estimates, one pair per parameter array."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamWState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def flat_params(policy: pol.MlpPolicy) -> list:
    """Weight and bias arrays in a fixed order; views, not copies."""
    out = []
    for w, b in policy.layers:
        out.append(w)
        out.append(b)
    return out


def adamw_step(params, grads, state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place.

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state lengths disagree")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p[...] = p - cfg.lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p)


def policy_gradient(policy, model, x0, xi, omega, objective, constraints,
                    weights, mode):
    """Loss parts and per-array gradients for one minibatch of rollouts.

    ``x0`` is (b, n_x), ``xi`` (b, d) or None, ``omega`` (b, N, n_x).
    Returns (LossParts, gradients aligned with ``flat_params``).
    """
    tape = ad.Tape()
    layers = pol.taped_layers(tape, policy)
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(layers, z), x0, xi, omega, mode, model.n_u)
    parts = obj.total_loss(states, actions, xi, objective, constraints, weights)
    grad_map = tape.backward(parts.total)
    grads = []
    for w_t, b_t in layers:
        grads.append(grad_map[w_t.node])
        grads.append(grad_map[b_t.node])
    return parts, grads


def evaluate(policy, model, scenarios, objective, constraints, weights, mode,
             chunk: int = 512) -> dict[str, float]:
    """Mean loss parts over every scenario pair, computed untaped."""
    totals = {k: 0.0 for k in ("total", "objective", "state", "inputs", "terminal")}
    all_idx = np.arange(scenarios.size)
    for start in range(0, scenarios.size, chunk):
        idx = all_idx[start:start + chunk]
        x0, xi, omega, _, _ = scenarios.pair_rows(idx)
        states, actions = dyn.rollout_tensors(
            model, lambda z: pol.apply_layers(policy.layers, z),
            x0, xi, omega, mode, model.n_u)
        parts = obj.total_loss(states, actions, xi, objective, constraints, weights)
        for key, val in parts.floats().items():
            totals[key] += val * len(idx)
    return {k: v / scenarios.size for k, v in totals.items()}


HISTORY_COLUMNS = ("epoch", "train_loss", "dev_loss", "objective_cost",
                   "state_penalty", "input_penalty", "terminal_cost")


@dataclass
class TrainResult:
    policy: pol.MlpPolicy          # weights from the best dev epoch
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = float("inf")


def train(model, policy, train_set, dev_set, objective, constraints, weights,
          cfg: TrainConfig, mode, seed: int, on_epoch=None) -> TrainResult:
    """Optimize ``policy`` in place; returns the best-dev snapshot and history.

    ``on_epoch(epoch, policy, dev_loss)`` runs after each epoch when given,
    for periodic checkpointing.
    """
    params = flat_params(policy)
    state = AdamWState.for_params(params)
    result = TrainResult(policy=policy)
    for epoch in range(cfg.epochs):
        perm = _rng.substream(seed, _rng.SHUFFLE, epoch).permutation(train_set.size)
        acc = {k: 0.0 for k in ("total", "objective", "state", "inputs", "terminal")}
        for start in range(0, train_set.size, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            x0, xi, omega, i_idx, _ = train_set.pair_rows(idx)
            parts, grads = policy_gradient(
                policy, model, x0, xi, omega, objective, constraints, weights, mode)
            loss = parts.total.item()
            if not np.isfinite(loss):
                fault = f"loss is {loss}"
            elif not all(np.all(np.isfinite(g)) for g in grads):
                fault = "gradient left the floats"
            else:
                adamw_step(params, grads, state, cfg)
                fault = (None if all(np.all(np.isfinite(p)) for p in params)
                         else "weights left the floats after the update")
            if fault is not None:
                rows = sorted(set(int(i) for i in i_idx))
                raise TrainingDiverged(f"{fault} at epoch {epoch}, parametric rows {rows}")
            for key, val in parts.floats().items():
                acc[key] += val * len(idx)
        dev = evaluate(policy, model, dev_set, objective, constraints, weights, mode)
        if not np.isfinite(dev["total"]):
            raise TrainingDiverged(f"dev loss is {dev['total']} at epoch {epoch}")
        result.history.append({
            "epoch": epoch,
            "train_loss": acc["total"] / train_set.size,
            "dev_loss": dev["total"],
            "objective_cost": acc["objective"] / train_set.size,
            "state_penalty": acc["state"] / train_set.size,
            "input_penalty": acc["inputs"] / train_set.size,
            "terminal_cost": acc["terminal"] / train_set.size,
        })
        if dev["total"] < result.best_dev_loss:
            result.best_dev_loss = dev["total"]
            result.best_epoch = epoch
            result.policy = pol.MlpPolicy(policy.arch, copy.deepcopy(policy.layers))
        if on_epoch is not None:
            on_epoch(epoch, policy, dev["total"])
    return result


def save_history(rows, path) -> None:
    """History CSV; floats go through repr so a reread is exact."""
    write_csv(path, HISTORY_COLUMNS,
              ([row["epoch"]] + [float(row[c]) for c in HISTORY_COLUMNS[1:]] for row in rows))
