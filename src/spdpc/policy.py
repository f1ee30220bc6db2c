"""Fully-connected ReLU control policies.

A policy maps the rollout input (current state, optionally concatenated
with the scenario parameter vector) to either a single action or a flat
action sequence for the whole horizon.  One ``apply_layers`` implementation
serves plain-numpy evaluation and taped training alike, so the trained and
deployed forward passes cannot drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng as _rng

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class PolicyArchitecture:
    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        for name in ("input_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer, input to output."""
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return [(dims[k + 1], dims[k]) for k in range(len(dims) - 1)]


def param_count(arch: PolicyArchitecture) -> int:
    return sum(rows * cols + rows for rows, cols in arch.layer_dims)


@dataclass
class MlpPolicy:
    arch: PolicyArchitecture
    layers: list = field(default_factory=list)  # [(W (out,in), b (out,)), ...]


def init_policy(arch: PolicyArchitecture) -> MlpPolicy:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
    layers = []
    for idx, (rows, cols) in enumerate(arch.layer_dims):
        gen = _rng.substream(arch.seed, _rng.POLICY_INIT, idx)
        bound = 1.0 / np.sqrt(cols)
        w = gen.uniform(-bound, bound, size=(rows, cols))
        layers.append((w, np.zeros(rows)))
    return MlpPolicy(arch, layers)


def apply_layers(layers, z):
    """Hidden layers are relu(W z + b); the output layer is affine.

    ``z`` is a single input (d,) or a batch (n, d); layer entries may be
    numpy arrays (eager) or tape tensors (training).
    """
    out = ad.as_tensor(z)
    batched = out.values.ndim == 2
    for k, (w, b) in enumerate(layers):
        if batched:
            out = ad.add(ad.matmul(out, ad.transpose(w)), b)
        else:
            out = ad.add(ad.matmul(w, out), b)
        if k < len(layers) - 1:
            out = ad.relu(out)
    return out


def _join_input(x, xi):
    x = ad.as_tensor(x)
    if xi is None:
        return x
    xi = np.asarray(xi, dtype=np.float64)
    if xi.size == 0:
        return x
    axis = 1 if x.values.ndim == 2 else 0
    return ad.concat([x, xi], axis=axis)


def forward(policy: MlpPolicy, x, xi=None) -> np.ndarray:
    """Evaluate the policy on one input (d,) -> (out,) or a batch (n, d) -> (n, out)."""
    z = _join_input(x, xi)
    expected = policy.arch.input_dim
    got = z.values.shape[-1]
    if got != expected:
        raise ValueError(f"policy expects input width {expected}, got {got}")
    return apply_layers(policy.layers, z).values


def action_sequence(policy: MlpPolicy, x0, xi, n_u: int) -> np.ndarray:
    """Full-horizon output reshaped to (N, n_u)."""
    flat = forward(policy, x0, xi)
    if flat.size % n_u != 0:
        raise ValueError(f"output width {flat.size} is not a multiple of n_u={n_u}")
    return flat.reshape(-1, n_u)


def taped_layers(tape: ad.Tape, policy: MlpPolicy):
    """Register all weights and biases as parameters on a fresh tape."""
    return [(tape.param(w), tape.param(b)) for w, b in policy.layers]


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(policy: MlpPolicy, path, seed: int | None = None) -> None:
    doc = {
        "arch": {
            "input_dim": policy.arch.input_dim,
            "hidden": list(policy.arch.hidden),
            "output_dim": policy.arch.output_dim,
            "seed": policy.arch.seed,
        },
        "layers": [{"W": w.tolist(), "b": b.tolist()} for w, b in policy.layers],
        "seed": policy.arch.seed if seed is None else int(seed),
        "version": CHECKPOINT_VERSION,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> MlpPolicy:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        version = doc["version"]
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        arch = PolicyArchitecture(
            input_dim=int(doc["arch"]["input_dim"]),
            hidden=tuple(doc["arch"]["hidden"]),
            output_dim=int(doc["arch"]["output_dim"]),
            seed=int(doc["arch"]["seed"]),
        )
        layers = [
            (np.asarray(layer["W"], dtype=np.float64), np.asarray(layer["b"], dtype=np.float64))
            for layer in doc["layers"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from None
    expected = arch.layer_dims
    if len(layers) != len(expected):
        raise ValueError(f"checkpoint has {len(layers)} layers, architecture wants {len(expected)}")
    for k, ((w, b), (rows, cols)) in enumerate(zip(layers, expected)):
        if w.shape != (rows, cols) or b.shape != (rows,):
            raise ValueError(
                f"layer {k}: shapes W{w.shape} b{b.shape} do not match ({rows}, {cols})"
            )
        for name, values in (("W", w), ("b", b)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"checkpoint {path}: layer {k} {name} is not finite")
    return MlpPolicy(arch, layers)
