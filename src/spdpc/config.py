"""Experiment configuration: one JSON file describes a whole problem.

The file names the plant, horizon, policy shape, scenario distributions,
objective, constraints, terminal set, loss weights and the budgets for
training, certification, simulation and benchmarking.  ``load_config``
builds the actual objects and cross-checks every dimension up front, so a
bad file fails here with the offending field in the message instead of
deep inside a rollout.

Value references appear wherever a quantity can vary per scenario: either
``{"constant": [..]}`` or ``{"parameter": "<name>"}`` naming a sampled
parameter component.

Every table is strict: a key the schema does not name is an error, so a
typo cannot silently drop a constraint or a setting.  Every number must be
finite; a NaN or an infinity is rejected with its JSON path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import SolverConfig
from .dynamics import MODES, LinearSystem, NoiseSpec, load_model
from .objectives import (BallConstraint, BoxConstraint, Constant, ConstraintSet,
                         ContractionConstraint, EllipseKeepOut, LossWeights,
                         StageObjective, WEIGHT_FIELDS)
from .policy import PolicyArchitecture
from .sampling import DistSpec, ParamSpec


class ConfigError(ValueError):
    """Raised with the JSON path of the offending field."""


def _require(table: dict, key: str, where: str):
    if key not in table:
        raise ConfigError(f"{where}.{key}: missing")
    return table[key]


def _get(table: dict, key: str, default):
    return table.get(key, default)


def _table(entry, where: str, allowed, by_kind=None) -> dict:
    """``entry`` as a JSON object whose keys all sit in ``allowed``; with
    ``by_kind``, also ``kind`` and the keys ``by_kind[kind]`` names."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(entry).__name__}")
    if by_kind is not None:
        if entry.get("kind") not in by_kind:
            return entry  # the caller reports the missing or unknown kind
        allowed = (*allowed, "kind", *by_kind[entry["kind"]])
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ConfigError(f"{', '.join(f'{where}.{k}' for k in unknown)}: unknown "
                          f"field{'s' if len(unknown) > 1 else ''}, expected one of "
                          f"{sorted(allowed)}")
    return entry


def _reject_non_finite(node, where: str = "") -> None:
    """Raise at the first NaN or infinity (``NaN``, ``Infinity``, ``1e999``)."""
    if isinstance(node, float) and not np.isfinite(node):
        raise ConfigError(f"{where}: must be finite, got {node}")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            _reject_non_finite(value, f"{where}[{pos}]")


TOP_LEVEL_KEYS = ("name", "seed", "mode", "horizon", "model", "noise", "x0", "parameters",
                  "scenarios", "policy", "objective", "constraints", "terminal_set",
                  "weights", "training", "certification", "simulation", "benchmark")
DIST_KEYS = {"uniform": ("lower", "upper"), "gaussian": ("mean", "std"),
             "constant": ("values",)}
TERMINAL_KEYS = {"box": ("lower", "upper"), "ball": ("radius", "center")}
BOX_KEYS = ("lower", "upper", "margin")


def _dist(entry, where: str, extra=()) -> DistSpec:
    """A distribution table: its kind plus that kind's vectors, in DistSpec order."""
    kind = _require(_table(entry, where, extra, DIST_KEYS), "kind", where)
    if kind not in DIST_KEYS:
        raise ConfigError(f"{where}.kind: unknown distribution {kind!r}")
    try:
        return DistSpec(kind, *(tuple(_require(entry, k, where)) for k in DIST_KEYS[kind]))
    except ConfigError:
        raise
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{where}: {err}") from err


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    mode: str
    horizon: int
    model: LinearSystem
    arch: PolicyArchitecture
    noise: NoiseSpec
    params: ParamSpec
    m: int
    s: int
    splits: tuple
    objective: StageObjective
    constraints: ConstraintSet
    weights: LossWeights
    train: object                # trainer.TrainConfig, imported lazily below
    beta: float
    delta: float
    sim_count: int
    sim_steps: int
    bench_instances: int
    bench_repeats: int
    solver: SolverConfig

    @property
    def terminal(self):
        """The terminal set, checked at step N: ``constraints.terminal``."""
        return self.constraints.terminal


def _value_ref(entry, params: ParamSpec, where: str, expect_dim=None):
    """Build a Constant or XiSlice from {"constant": ..}/{"parameter": ..}."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ConfigError(f"{where}: expected a constant or parameter reference")
    if "constant" in entry:
        values = entry["constant"]
        values = tuple(values) if isinstance(values, (list, tuple)) else (values,)
        ref = Constant(tuple(float(v) for v in values))
        dim = len(ref.values)
    elif "parameter" in entry:
        name = entry["parameter"]
        try:
            ref = params.slice_for(name)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
        dim = ref.stop - ref.start
    else:
        raise ConfigError(f"{where}: expected a constant or parameter reference")
    if expect_dim is not None and dim != expect_dim:
        raise ConfigError(f"{where}: needs {expect_dim} values, reference has {dim}")
    return ref


def _box(entry: dict, dim: int, where: str) -> BoxConstraint:
    _table(entry, where, BOX_KEYS)
    lower = _require(entry, "lower", where)
    upper = _require(entry, "upper", where)
    if len(lower) != dim or len(upper) != dim:
        raise ConfigError(f"{where}: bounds must have {dim} entries")
    try:
        return BoxConstraint(tuple(lower), tuple(upper),
                             margin=float(_get(entry, "margin", 0.0)))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _objective(entry: dict, params: ParamSpec, n_x: int) -> StageObjective:
    _table(entry, "objective", ("kind", "track_indices", "reference", "target"))
    kind = _require(entry, "kind", "objective")
    track = tuple(_get(entry, "track_indices", ()))
    if any(not 0 <= int(i) < n_x for i in track):
        raise ConfigError(f"objective.track_indices: indices must sit in [0, {n_x})")
    reference = None
    if "reference" in entry:
        expect = len(track) if kind == "split-tracking" else n_x
        reference = _value_ref(entry["reference"], params, "objective.reference", expect)
    target = None
    if "target" in entry:
        target = _value_ref(entry["target"], params, "objective.target", n_x)
    try:
        return StageObjective(kind=kind, track_indices=track,
                              reference=reference, target=target)
    except ValueError as err:
        raise ConfigError(f"objective: {err}") from err


def _constraints(entry: dict, params: ParamSpec, n_x: int, n_u: int) -> ConstraintSet:
    _table(entry, "constraints",
           ("state_box", "input_box", "keep_out", "contraction"))
    built = ConstraintSet()
    if "state_box" in entry:
        built.state.append(_box(entry["state_box"], n_x, "constraints.state_box"))
    if "input_box" in entry:
        built.inputs.append(_box(entry["input_box"], n_u, "constraints.input_box"))
    if "keep_out" in entry:
        where = "constraints.keep_out"
        ko = _table(entry["keep_out"], where,
                    ("radius", "shape", "center_x", "center_y", "margin"))
        if n_x < 2:
            raise ConfigError(f"{where}: needs at least two state dimensions")
        try:
            built.state.append(EllipseKeepOut(
                radius=_value_ref(_require(ko, "radius", where), params, where + ".radius", 1),
                shape=_value_ref(_require(ko, "shape", where), params, where + ".shape", 1),
                center_x=_value_ref(_require(ko, "center_x", where), params, where + ".center_x", 1),
                center_y=_value_ref(_require(ko, "center_y", where), params, where + ".center_y", 1),
                margin=float(_get(ko, "margin", 0.0))))
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    if "contraction" in entry:
        rate = _require(_table(entry["contraction"], "constraints.contraction", ("rate",)),
                        "rate", "constraints.contraction")
        try:
            built.contraction = ContractionConstraint(rate=float(rate))
        except ValueError as err:
            raise ConfigError(f"constraints.contraction: {err}") from err
    return built


def _terminal(entry: dict, params: ParamSpec, n_x: int):
    """The terminal set as a BoxConstraint or a BallConstraint."""
    where = "terminal_set"
    kind = _require(_table(entry, where, ("margin",), TERMINAL_KEYS), "kind", where)
    if kind == "box":
        return _box({k: v for k, v in entry.items() if k != "kind"}, n_x, where)
    if kind != "ball":
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    radius = _require(entry, "radius", where)
    center = None
    if "center" in entry:
        center = _value_ref(entry["center"], params, where + ".center", n_x)
    try:
        return BallConstraint(float(radius), center, margin=float(_get(entry, "margin", 0.0)))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def load_config(path) -> ExperimentConfig:
    from .trainer import TrainConfig  # avoid an import cycle at module load

    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err

    _table(raw, "config", TOP_LEVEL_KEYS)
    _reject_non_finite(raw)
    name = str(_require(raw, "name", "config"))
    seed = int(_require(raw, "seed", "config"))
    if seed < 0:
        raise ConfigError("config.seed: must be non-negative")
    horizon = int(_require(raw, "horizon", "config"))
    if horizon < 1:
        raise ConfigError("config.horizon: must be >= 1")
    mode = str(_require(raw, "mode", "config"))
    if mode not in MODES:
        raise ConfigError(f"config.mode: unknown mode {mode!r}, have {MODES}")

    model_entry = _require(raw, "model", "config")
    _table(model_entry, "model", ("file",) if "file" in model_entry else ("A", "B"))
    try:
        if "file" in model_entry:
            model = load_model(path.parent / model_entry["file"])
        else:
            model = LinearSystem(A=np.asarray(_require(model_entry, "A", "model"), dtype=np.float64),
                                 B=np.asarray(_require(model_entry, "B", "model"), dtype=np.float64))
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError) as err:
        raise ConfigError(f"model: {err}") from err
    n_x, n_u = model.n_x, model.n_u

    noise_entry = _table(_require(raw, "noise", "config"), "noise", ("kind", "scale", "bound"))
    try:
        noise = NoiseSpec(kind=_require(noise_entry, "kind", "noise"),
                          scale=np.asarray(_require(noise_entry, "scale", "noise"), dtype=np.float64),
                          bound=_get(noise_entry, "bound", "default"))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"noise: {err}") from err
    if noise.dim != n_x:
        raise ConfigError(f"noise.scale: needs {n_x} entries, got {noise.dim}")

    x0_dist = _dist(_require(raw, "x0", "config"), "x0")
    if x0_dist.dim != n_x:
        raise ConfigError(f"x0: needs {n_x} entries, got {x0_dist.dim}")
    components = []
    for pos, comp in enumerate(_get(raw, "parameters", [])):
        where = f"parameters[{pos}]"
        dist = _dist(comp, where, extra=("name",))
        components.append((_require(comp, "name", where), dist))
    try:
        params = ParamSpec(x0=x0_dist, components=tuple(components))
    except ValueError as err:
        raise ConfigError(f"parameters: {err}") from err

    scen = _table(_require(raw, "scenarios", "config"), "scenarios", ("m", "s", "splits"))
    m = int(_require(scen, "m", "scenarios"))
    s = int(_require(scen, "s", "scenarios"))
    splits = tuple(float(f) for f in _require(scen, "splits", "scenarios"))
    if len(splits) != 3:
        raise ConfigError("scenarios.splits: need exactly three fractions "
                          "(train, dev, test)")
    if m < 1 or s < 1:
        raise ConfigError("scenarios: m and s must be >= 1")

    policy_entry = _table(_require(raw, "policy", "config"), "policy", ("hidden", "seed"))
    hidden = tuple(int(h) for h in _require(policy_entry, "hidden", "policy"))
    input_dim = n_x + params.xi_dim if mode == "full-horizon" else n_x
    output_dim = horizon * n_u if mode == "full-horizon" else n_u
    try:
        arch = PolicyArchitecture(input_dim=input_dim, hidden=hidden,
                                  output_dim=output_dim,
                                  seed=int(_get(policy_entry, "seed", seed)))
    except ValueError as err:
        raise ConfigError(f"policy: {err}") from err

    objective = _objective(_require(raw, "objective", "config"), params, n_x)
    constraints = _constraints(_get(raw, "constraints", {}), params, n_x, n_u)
    constraints.terminal = _terminal(_require(raw, "terminal_set", "config"), params, n_x)

    weight_entry = _table(_require(raw, "weights", "config"), "weights", WEIGHT_FIELDS)
    try:
        weights = LossWeights(**{k: float(v) for k, v in weight_entry.items()})
    except ValueError as err:
        raise ConfigError(f"weights: {err}") from err

    train_entry = _table(_require(raw, "training", "config"), "training",
                         ("epochs", "lr", "beta1", "beta2", "eps", "weight_decay", "minibatch"))
    try:
        train = TrainConfig(
            epochs=int(_require(train_entry, "epochs", "training")),
            lr=float(_get(train_entry, "lr", 1e-3)),
            beta1=float(_get(train_entry, "beta1", 0.9)),
            beta2=float(_get(train_entry, "beta2", 0.999)),
            eps=float(_get(train_entry, "eps", 1e-8)),
            weight_decay=float(_get(train_entry, "weight_decay", 0.01)),
            minibatch=int(_get(train_entry, "minibatch", 64)))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"training: {err}") from err

    cert = _table(_get(raw, "certification", {}), "certification", ("beta", "delta"))
    beta = float(_get(cert, "beta", 0.9))
    delta = float(_get(cert, "delta", 0.01))
    if not 0 < beta <= 1:
        raise ConfigError(f"certification.beta: must sit in (0, 1], got {beta}")
    if not 0 < delta < 1:
        raise ConfigError(f"certification.delta: must sit in (0, 1), got {delta}")

    sim = _table(_get(raw, "simulation", {}), "simulation", ("count", "steps"))
    sim_count = int(_get(sim, "count", 20))
    sim_steps = int(_get(sim, "steps", 50))
    if sim_count < 1 or sim_steps < 1:
        raise ConfigError("simulation: count and steps must be >= 1")

    bench = _table(_get(raw, "benchmark", {}), "benchmark", ("instances", "repeats", "solver"))
    bench_instances = int(_get(bench, "instances", 10))
    bench_repeats = int(_get(bench, "repeats", 5))
    if bench_instances < 1 or bench_repeats < 1:
        raise ConfigError("benchmark: instances and repeats must be >= 1")
    solver_entry = _table(_get(bench, "solver", {}), "benchmark.solver",
                          ("max_iters", "tol"))
    try:
        solver = SolverConfig(
            max_iters=int(_get(solver_entry, "max_iters", 500)),
            tol=float(_get(solver_entry, "tol", 1e-8)))
    except ValueError as err:
        raise ConfigError(f"benchmark.solver: {err}") from err

    return ExperimentConfig(
        name=name, seed=seed, mode=mode, horizon=horizon, model=model,
        arch=arch, noise=noise, params=params, m=m, s=s, splits=splits,
        objective=objective, constraints=constraints, weights=weights,
        train=train, beta=beta, delta=delta, sim_count=sim_count, sim_steps=sim_steps,
        bench_instances=bench_instances, bench_repeats=bench_repeats,
        solver=solver)
