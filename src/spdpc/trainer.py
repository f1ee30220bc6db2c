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
from .files import write_csv


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
    """First and second moment estimates, one pair per parameter array, and
    two scratch arrays per parameter that the update reuses every step."""

    m: list
    v: list
    scratch: list
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamWState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   scratch=[(np.empty_like(p), np.empty_like(p)) for p in params])


def flat_params(policy: pol.MlpPolicy) -> list:
    """Weight and bias arrays in a fixed order; views, not copies."""
    out = []
    for w, b in policy.layers:
        out.append(w)
        out.append(b)
    return out


def pack_params(policy: pol.MlpPolicy) -> np.ndarray:
    """Copy the weights into one vector and rebind ``policy.layers`` to views of it.

    The vector holds ``flat_params`` order, each array row-major.
    """
    flat = np.concatenate(flat_params(policy), axis=None)
    if flat.size != pol.param_count(policy.arch):
        raise ValueError(f"policy holds {flat.size} weights, its architecture "
                         f"{pol.param_count(policy.arch)}")
    views, start = [], 0
    for a in flat_params(policy):
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    policy.layers = list(zip(views[::2], views[1::2]))
    return flat


def adamw_step(params, grads, state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place.

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)

    Every operation writes into the moments, the parameter or the state's
    scratch, in the order of the formula, so no step allocates.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state lengths disagree")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p, g, m, v, (s, r) in zip(params, grads, state.m, state.v, state.scratch):
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
    """Optimize ``policy`` in place; returns the best-dev snapshot and history.

    The weights are packed into one vector first: ``policy.layers`` become
    views of it, and each step updates the whole vector with one AdamW call.
    ``result.policy`` is a copy that later updates do not touch.

    ``on_epoch(epoch, policy, dev_loss)`` runs after each epoch when given,
    for periodic checkpointing.
    """
    flat = pack_params(policy)
    grad = np.empty_like(flat)
    state = AdamWState.for_params([flat])
    result = TrainResult(policy=policy)
    for epoch in range(cfg.epochs):
        perm = _rng.substream(seed, _rng.SHUFFLE, epoch).permutation(train_set.size)
        acc = dict.fromkeys(obj.LOSS_PARTS, 0.0)
        for start in range(0, train_set.size, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            x0, xi, omega, i_idx, _ = train_set.pair_rows(idx)
            parts, grads = policy_gradient(
                policy, model, x0, xi, omega, objective, constraints, weights, mode)
            loss = parts.total.item()
            np.concatenate(grads, axis=None, out=grad)
            if not np.isfinite(loss):
                fault = f"loss is {loss}"
            elif not np.isfinite(grad).all():
                fault = "gradient left the floats"
            else:
                adamw_step([flat], [grad], state, cfg)
                fault = (None if np.isfinite(flat).all()
                         else "weights left the floats after the update")
            if fault is not None:
                rows = sorted(set(int(i) for i in i_idx))
                raise TrainingDiverged(f"{fault} at epoch {epoch}, parametric rows {rows}")
            for key, val in parts.floats().items():
                acc[key] += val * len(idx)
        dev = evaluate(policy, model, dev_set, objective, constraints, weights, mode)
        if not np.isfinite(dev["total"]):
            raise TrainingDiverged(f"dev loss is {dev['total']} at epoch {epoch}")
        mean = {"train": {k: v / train_set.size for k, v in acc.items()}, "dev": dev}
        result.history.append({"epoch": epoch, **{c: mean[s][p] for c, (s, p) in HISTORY.items()}})
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
              ([row["epoch"]] + [float(row[c]) for c in HISTORY] for row in rows))
