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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import dynamics as dyn
from . import objectives as obj
from . import policy as pol
from . import rng as _rng
from .files import write_csv


class TrainingDiverged(RuntimeError):
    """The loss, a gradient or a weight left the floats."""


def _diverged(fault: str, history) -> TrainingDiverged:
    last = f"last finite epoch {history[-1]['epoch']}" if history else "no epoch finished finite"
    return TrainingDiverged(f"{fault}; {last}")


def _blown_part(parts: dict) -> str:
    """The first loss part besides the total that is not finite (else the total), with its value."""
    name = next((k for k in obj.LOSS_PARTS if k != "total" and not np.isfinite(parts[k])), "total")
    return f"loss part {name} is {parts[name]}"


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
    """First and second moment estimates of the weight vector, and two scratch
    vectors that the update reuses every step."""

    m: np.ndarray
    v: np.ndarray
    s: np.ndarray
    r: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, p) -> "AdamWState":
        return cls(np.zeros_like(p), np.zeros_like(p), np.empty_like(p), np.empty_like(p))


def adamw_step(p, g, state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update of the vector ``p``, in place.

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)

    Every operation writes into the moments, ``p`` or the state's scratch,
    in the order of the formula, so no step allocates.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    m, v, s, r = state.m, state.v, state.s, state.r
    np.multiply(m, cfg.beta1, out=m)           # m = b1 m + (1 - b1) g
    np.multiply(g, 1.0 - cfg.beta1, out=s)
    np.add(m, s, out=m)
    np.multiply(v, cfg.beta2, out=v)           # v = b2 v + (1 - b2) g g
    np.multiply(g, 1.0 - cfg.beta2, out=s)
    np.multiply(s, g, out=s)
    np.add(v, s, out=v)
    np.divide(m, bc1, out=s)                   # s = mhat / (sqrt(vhat) + eps)
    np.divide(v, bc2, out=r)
    np.sqrt(r, out=r)
    np.add(r, cfg.eps, out=r)
    np.divide(s, r, out=s)
    np.multiply(p, cfg.weight_decay, out=r)    # p -= lr (s + weight_decay p)
    np.add(s, r, out=s)
    np.multiply(s, cfg.lr, out=s)
    np.subtract(p, s, out=p)


def policy_gradient(policy, model, x0, xi, omega, objective, constraints,
                    weights, mode):
    """Loss parts and the weight gradient for one minibatch of rollouts.

    ``x0`` is (b, n_x), ``xi`` (b, d) or None, ``omega`` (b, N, n_x).
    Returns (LossParts, gradient vector in ``autodiff.unpack`` layout).
    """
    tape = ad.Tape()
    flat = tape.param(policy.weights)
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(flat, policy.arch, z), x0, xi, omega, mode)
    parts = obj.total_loss(states, actions, xi, objective, constraints, weights)
    return parts, tape.backward(parts.total)[flat.node]


def evaluate(policy, model, scenarios, objective, constraints, weights, mode,
             chunk: int = 512) -> dict[str, float]:
    """Mean loss parts over every scenario pair, computed untaped."""
    totals = dict.fromkeys(obj.LOSS_PARTS, 0.0)
    for idx, xi, states, actions in dyn.rollout_pairs(model, policy, scenarios, mode, chunk):
        parts = obj.total_loss(states, actions, xi, objective, constraints, weights)
        for key, val in parts.floats().items():
            totals[key] += val * len(idx)
    return {k: v / scenarios.size for k, v in totals.items()}


# each history column after "epoch": the split whose mean it is, and the loss part
HISTORY = {"train_loss": ("train", "total"), "dev_loss": ("dev", "total"),
           "objective_cost": ("train", "objective"), "state_penalty": ("train", "state"),
           "input_penalty": ("train", "inputs"), "terminal_cost": ("train", "terminal")}
HISTORY_COLUMNS = ("epoch", *HISTORY)


@dataclass
class TrainResult:
    policy: pol.MlpPolicy          # weights from the best dev epoch
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = float("inf")


def train(model, policy, train_set, dev_set, objective, constraints, weights,
          cfg: TrainConfig, mode, seed: int, on_epoch=None) -> TrainResult:
    """Optimize ``policy.weights`` in place, one AdamW call a step; returns the
    best-dev snapshot, a copy that later updates do not touch, and history.

    ``on_epoch(epoch, policy, dev_loss)`` runs after each epoch when given,
    for periodic checkpointing.
    """
    flat = policy.weights
    state = AdamWState.like(flat)
    result = TrainResult(policy=policy)
    for epoch in range(cfg.epochs):
        perm = _rng.substream(seed, _rng.SHUFFLE, epoch).permutation(train_set.size)
        acc = dict.fromkeys(obj.LOSS_PARTS, 0.0)
        for start in range(0, train_set.size, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            x0, xi, omega, i_idx, _ = train_set.pair_rows(idx)
            parts, grad = policy_gradient(
                policy, model, x0, xi, omega, objective, constraints, weights, mode)
            floats = parts.floats()
            if not np.isfinite(floats["total"]):
                fault = _blown_part(floats)
            elif not np.isfinite(grad).all():
                fault = "gradient left the floats"
            else:
                adamw_step(flat, grad, state, cfg)
                fault = (None if np.isfinite(flat).all()
                         else "weights left the floats after the update")
            if fault is not None:
                rows = sorted(set(int(i) for i in i_idx))
                raise _diverged(f"{fault} at epoch {epoch}, parametric rows {rows}",
                                result.history)
            for key, val in floats.items():
                acc[key] += val * len(idx)
        dev = evaluate(policy, model, dev_set, objective, constraints, weights, mode)
        if not np.isfinite(dev["total"]):
            raise _diverged(f"dev {_blown_part(dev)} at epoch {epoch}", result.history)
        mean = {"train": {k: v / train_set.size for k, v in acc.items()}, "dev": dev}
        result.history.append({"epoch": epoch, **{c: mean[s][p] for c, (s, p) in HISTORY.items()}})
        if dev["total"] < result.best_dev_loss:
            result.best_dev_loss = dev["total"]
            result.best_epoch = epoch
            result.policy = pol.MlpPolicy(policy.arch, flat.copy())
        if on_epoch is not None:
            on_epoch(epoch, policy, dev["total"])
    return result


def save_history(rows, path) -> None:
    """History CSV; floats go through repr so a reread is exact."""
    write_csv(path, HISTORY_COLUMNS,
              ([row["epoch"]] + [float(row[c]) for c in HISTORY] for row in rows))
