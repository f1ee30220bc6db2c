"""Fully-connected ReLU control policies.

A policy maps the rollout input (current state, optionally concatenated
with the scenario parameter vector) to either a single action or a flat
action sequence for the whole horizon.  Its arithmetic is written once, in
``autodiff.mlp_values``: training records it as one ``mlp`` tape node per
call (``apply_layers``), and ``forward`` runs the same loop untaped, so
trained and deployed passes give the same bits and a decision needs no
autodiff.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng as _rng
from .files import at, read_json, read_table, write_json

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


@dataclass(frozen=True, eq=False)
class MlpPolicy:
    """Weights as one float64 vector in ``autodiff.unpack`` layout; ``layers``
    are its (W (out,in), b (out,)) views, built once here, so every pass reads
    an in-place update of ``weights``."""

    arch: PolicyArchitecture
    weights: np.ndarray
    layers: list = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", ad.unpack(self.weights, self.arch.layer_dims))

    def __reduce__(self):
        # a copy or a pickle carries the vector alone; the views are rebuilt on it
        return MlpPolicy, (self.arch, self.weights)


def init_policy(arch: PolicyArchitecture) -> MlpPolicy:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
    policy = MlpPolicy(arch, np.zeros(param_count(arch)))
    for idx, (w, _) in enumerate(policy.layers):
        gen = _rng.substream(arch.seed, _rng.POLICY_INIT, idx)
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = gen.uniform(-bound, bound, size=w.shape)
    return policy


def apply_layers(flat, arch: PolicyArchitecture, z):
    """The network with weight vector ``flat`` on a batch z (n, d) as one
    ``autodiff.mlp`` op: a tape tensor when ``z`` or ``flat`` is one, else the
    plain ndarray."""
    return ad.mlp(z, flat, arch.layer_dims)


def join_input(x, xi):
    """``x`` with ``xi`` appended on the last axis; ``x`` alone when ``xi`` is None or empty."""
    x = np.asarray(x, dtype=np.float64)
    if xi is None or np.size(xi) == 0:
        return x
    return np.concatenate([x, np.asarray(xi, dtype=np.float64)], axis=x.ndim - 1)


def forward(policy: MlpPolicy, x, xi=None) -> np.ndarray:
    """Evaluate the policy on one input (d,) -> (out,) or a batch (n, d) -> (n, out)."""
    z = join_input(x, xi)
    if z.shape[-1] != policy.arch.input_dim:
        raise ValueError(f"policy expects input width {policy.arch.input_dim}, got {z.shape[-1]}")
    return ad.mlp_values(z, policy.layers)


def action_sequence(policy: MlpPolicy, x0, xi, n_u: int) -> np.ndarray:
    """Full-horizon output reshaped to (N, n_u)."""
    flat = forward(policy, x0, xi)
    if flat.size % n_u != 0:
        raise ValueError(f"output width {flat.size} is not a multiple of n_u={n_u}")
    return flat.reshape(-1, n_u)


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
    write_json(path, doc, indent=None)


def load_checkpoint(path) -> MlpPolicy:
    """The policy in a checkpoint file; an error names the file and the JSON path."""
    doc = read_json(path)
    with at(path, "malformed checkpoint ({})"):
        top = read_table(doc, "", {"version": (int, MISSING), "arch": (dict, MISSING),
                                   "layers": ([dict], MISSING), "seed": (int, MISSING)})
        if top["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"version: unsupported checkpoint version {top['version']}")
        arch = PolicyArchitecture(**read_table(top["arch"], "arch", {
            "input_dim": (int, MISSING), "hidden": ([int], MISSING),
            "output_dim": (int, MISSING), "seed": (int, MISSING)}))
        layers = [tuple(np.asarray(v, dtype=np.float64) for v in read_table(
            layer, f"layers[{k}]", {"W": ([[float]], MISSING), "b": ([float], MISSING)}).values())
            for k, layer in enumerate(top["layers"])]
        expected = arch.layer_dims
        if len(layers) != len(expected):
            raise ValueError(f"layers: has {len(layers)}, the architecture wants {len(expected)}")
        for k, ((w, b), (rows, cols)) in enumerate(zip(layers, expected)):
            if w.shape != (rows, cols) or b.shape != (rows,):
                raise ValueError(f"layer {k}: shapes W{w.shape} b{b.shape} do not match "
                                 f"({rows}, {cols})")
    return MlpPolicy(arch, np.concatenate([a for layer in layers for a in layer], axis=None))
