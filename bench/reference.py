"""Plain-numpy references the benchmark checks spdpc's outputs against.

Nothing here goes through spdpc's autodiff, rollout or certification code:
the forward pass, the plant update x' = A x + B u + w and the constraint
and terminal-set tests are written out directly from the config's numbers.
"""

from __future__ import annotations

import numpy as np
from spdpc.objectives import BoxConstraint, EllipseKeepOut

FULL_HORIZON = "full-horizon"


def mlp(layers, z: np.ndarray) -> np.ndarray:
    """relu(W z + b) on hidden layers, affine output; ``z`` is (d,) or (b, d)."""
    last = len(layers) - 1
    batched = z.ndim == 2
    for k, (w, b) in enumerate(layers):
        z = z @ w.T + b if batched else w @ z + b
        if k < last:
            z = np.maximum(z, 0.0)
    return z


def decision(layers, mode: str, n_u: int, x: np.ndarray, xi) -> np.ndarray:
    """The action applied at state ``x``: first planned action, or the feedback."""
    if mode == FULL_HORIZON:
        z = x if xi is None else np.concatenate([x, xi])
        return mlp(layers, z)[:n_u]
    return mlp(layers, x)


def reroll(cfg, layers, x0, xi, omega):
    """Closed loop over a batch: states (b, N+1, n_x), actions (b, N, n_u)."""
    A, B = cfg.model.A, cfg.model.B
    n_u = cfg.model.n_u
    batch, horizon = omega.shape[0], omega.shape[1]
    plan = None
    if cfg.mode == FULL_HORIZON:
        z = x0 if xi is None else np.concatenate([x0, xi], axis=1)
        plan = mlp(layers, z).reshape(batch, horizon, n_u)
    states, actions = [x0], []
    for k in range(horizon):
        u = plan[:, k, :] if plan is not None else mlp(layers, states[k])
        actions.append(u)
        states.append(states[k] @ A.T + u @ B.T + omega[:, k, :])
    return np.stack(states, axis=1), np.stack(actions, axis=1)


def _inside(c, block: np.ndarray, xi) -> np.ndarray:
    """Per-row: ``block`` (b, steps, dim) meets constraint ``c`` at every step."""
    if isinstance(c, BoxConstraint):
        return np.all((block >= c.lower) & (block <= c.upper), axis=(1, 2))
    if isinstance(c, EllipseKeepOut):
        batch = block.shape[0]
        radius = c.radius.resolve(xi, batch)
        shape = c.shape.resolve(xi, batch)
        dx = block[:, :, 0] - c.center_x.resolve(xi, batch)
        dy = block[:, :, 1] - c.center_y.resolve(xi, batch)
        return np.all(radius * radius - shape * (dx * dx) - dy * dy <= 0.0, axis=1)
    raise TypeError(f"no reference test for constraint {type(c).__name__}")


def passes(cfg, states, actions, xi) -> np.ndarray:
    """Pass flag per scenario: constraints at steps 0..N-1, terminal set at N."""
    horizon = actions.shape[1]
    ok = np.ones(states.shape[0], dtype=bool)
    for c in cfg.constraints.state:
        ok &= _inside(c, states[:, :horizon, :], xi)
    for c in cfg.constraints.inputs:
        ok &= _inside(c, actions, xi)
    final = states[:, -1, :]
    term = cfg.terminal
    if term.kind == "box":
        ok &= np.all((final >= np.asarray(term.lower)) & (final <= np.asarray(term.upper)),
                     axis=1)
    else:
        center = 0.0 if term.center is None else term.center.resolve(xi, final.shape[0])
        gap = final - center
        ok &= np.sqrt(np.sum(gap * gap, axis=1)) <= term.radius
    return ok
