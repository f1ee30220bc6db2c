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

Every table is read against a spec that declares each key once, with its
JSON type, default and lower bound.  An unknown, missing or repeated key, a
wrong JSON type (``2.5``, ``"2"`` or ``true`` for an integer), a value below
its bound, a NaN or an infinity, and a non-zero loss weight that nothing
reads are all errors that name their JSON path.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .baseline import SolverConfig
from .dynamics import MODES, LinearSystem, NoiseSpec, load_model
from .objectives import (BallConstraint, BoxConstraint, Constant, ConstraintSet,
                         ContractionConstraint, EllipseKeepOut, LossWeights,
                         OBJECTIVES, StageObjective, weights_read)
from .policy import PolicyArchitecture
from .sampling import DistSpec, ParamSpec, split_ranges


class ConfigError(ValueError):
    """Raised with the JSON path of the offending field."""


@contextmanager
def _at(where: str):
    """Re-raise a ValueError, or a model file's OSError or OverflowError, as a
    ConfigError at ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except (OSError, OverflowError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "a JSON object", None: "null"}


def _typed(value, kind, where: str):
    """``value`` if it has the JSON type ``kind``: int, float (any number, as
    a Python float), str, dict, None (null), ``[kind]`` (a list, checked per
    element) or a tuple of alternatives.  A bool is no number, 2.0 no int."""
    alternatives = kind if isinstance(kind, tuple) else (kind,)
    for alt in alternatives:
        if isinstance(alt, list) and isinstance(value, list):
            return [_typed(v, alt[0], f"{where}[{pos}]") for pos, v in enumerate(value)]
        if alt is None and value is None:
            return None
        if alt in (int, float, str, dict) and not isinstance(value, bool) \
                and isinstance(value, (int, float) if alt is float else alt):
            return float(value) if alt is float else value
    names = " or ".join("a list" if isinstance(alt, list) else _TYPE_NAMES[alt]
                        for alt in alternatives)
    raise ConfigError(f"{where}: expected {names}, got {json.dumps(value)}")


def _read(entry, where: str, spec: dict) -> dict:
    """Every key of ``spec`` read from the JSON object ``entry``.  ``spec``
    maps a key to (JSON type, default) or (JSON type, default, lower bound);
    a default of ``MISSING`` makes the key required."""
    entry = _typed(entry, dict, where)
    unknown = sorted(set(entry) - set(spec))
    if unknown:
        raise ConfigError(f"{', '.join(f'{where}.{k}' for k in unknown)}: unknown "
                          f"field{'s' if len(unknown) > 1 else ''}, expected one of "
                          f"{sorted(spec)}")
    table = {}
    for key, (kind, default, *lower) in spec.items():
        path = f"{where}.{key}"
        if key not in entry:
            if default is MISSING:
                raise ConfigError(f"{path}: missing")
            table[key] = default
            continue
        table[key] = value = _typed(entry[key], kind, path)
        if lower and value < lower[0]:
            raise ConfigError(f"{path}: must be >= {lower[0]}, got {value}")
    return table


def _by_kind(entry, where: str, kinds: dict, extra: dict) -> dict:
    """A table whose keys depend on its ``kind``: ``kinds`` maps each kind to
    the spec of its own keys, and every kind also takes ``extra``."""
    kind = _typed(entry, dict, where).get("kind", MISSING)
    if kind not in tuple(kinds):  # a tuple compares an unhashable kind, a dict would hash it
        raise ConfigError(f"{where}.kind: " + ("missing" if kind is MISSING else
                          f"unknown kind {kind!r}, expected one of {sorted(kinds)}"))
    return _read(entry, where, {"kind": (str, MISSING), **extra, **kinds[kind]})


def _fields(cls) -> dict:
    """The spec of a dataclass: its fields' types and defaults, declared there alone."""
    return {f.name: ({"int": int, "float": float}[f.type], f.default) for f in fields(cls)}


_REPEATED = object()


def _mark_repeats(pairs) -> dict:
    """A JSON object as read, with ``_REPEATED`` for each key it holds more than once."""
    keys = [key for key, _ in pairs]
    return {key: _REPEATED if keys.count(key) > 1 else value for key, value in pairs}


def _check_json(node, where: str = "") -> None:
    """Raise at the first repeated key or number no float holds (``NaN``,
    ``Infinity``, ``1e999``, an integer literal of 400 digits)."""
    if node is _REPEATED:
        raise ConfigError(f"{where}: duplicate key")
    if isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:
        raise ConfigError(f"{where}: must be finite, got {node}")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_json(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            _check_json(value, f"{where}[{pos}]")


# the distribution kinds, their vectors in DistSpec order
_DISTS = {"uniform": {"lower": ([float], MISSING), "upper": ([float], MISSING)},
          "gaussian": {"mean": ([float], MISSING), "std": ([float], MISSING)},
          "constant": {"values": ([float], MISSING)}}
_BOX = {"lower": ([float], MISSING), "upper": ([float], MISSING), "margin": (float, 0.0)}


def _dist(entry, where: str, extra: dict) -> DistSpec:
    """A distribution table: its kind plus that kind's vectors."""
    table = _by_kind(entry, where, _DISTS, extra)
    with _at(where):
        return DistSpec(table["kind"], *(table[k] for k in _DISTS[table["kind"]]))


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


def _value_ref(entry, params: ParamSpec, where: str, expect_dim: int):
    """A Constant or XiSlice from {"constant": ..}/{"parameter": ..}; None for None."""
    if entry is None:
        return None
    table = _read(entry, where, {"constant": ((float, [float]), None), "parameter": (str, None)})
    if (table["constant"] is None) == (table["parameter"] is None):
        raise ConfigError(f"{where}: expected a constant or parameter reference")
    values = table["constant"]
    with _at(where):
        ref = params.slice_for(table["parameter"]) if values is None else \
            Constant(tuple(values) if isinstance(values, list) else (values,))
    dim = ref.stop - ref.start if values is None else len(ref.values)
    if dim != expect_dim:
        raise ConfigError(f"{where}: needs {expect_dim} values, reference has {dim}")
    return ref


def _box(table: dict, dim: int, where: str) -> BoxConstraint:
    if len(table["lower"]) != dim or len(table["upper"]) != dim:
        raise ConfigError(f"{where}: bounds must have {dim} entries")
    with _at(where):
        return BoxConstraint(table["lower"], table["upper"], margin=table["margin"])


# the JSON type of each StageObjective field a kind may read (OBJECTIVES says which)
_OBJECTIVE_FIELDS = {"track_indices": ([int], MISSING), "reference": (dict, MISSING),
                     "target": (dict, MISSING)}


def _objective(entry, params: ParamSpec, n_x: int) -> StageObjective:
    """The objective: its kind plus exactly the fields ``OBJECTIVES`` lists for it."""
    table = _by_kind(entry, "objective", {kind: {name: _OBJECTIVE_FIELDS[name] for name in reads}
                                          for kind, (reads, _) in OBJECTIVES.items()}, {})
    track = tuple(table.get("track_indices", ()))
    if "track_indices" in table and not (track and len(set(track)) == len(track)
                                         and all(0 <= i < n_x for i in track)):
        raise ConfigError(f"objective.track_indices: needs one or more distinct indices "
                          f"in [0, {n_x}), got {list(track)}")
    refs = {key: _value_ref(table[key], params, f"objective.{key}",
                            len(track) if key == "reference" and track else n_x)
            for key in ("reference", "target") if key in table}
    with _at("objective"):
        return StageObjective(kind=table["kind"], track_indices=track, **refs)


def _constraints(entry, params: ParamSpec, n_x: int, n_u: int) -> ConstraintSet:
    table = _read(entry, "constraints", {"state_box": (dict, None), "input_box": (dict, None),
                                         "keep_out": (dict, None), "contraction": (dict, None)})
    built = ConstraintSet()
    for key, dim, part in (("state_box", n_x, built.state), ("input_box", n_u, built.inputs)):
        if table[key] is not None:
            where = f"constraints.{key}"
            part.append(_box(_read(table[key], where, _BOX), dim, where))
    if table["keep_out"] is not None:
        where = "constraints.keep_out"
        ko = _read(table["keep_out"], where, {
            "radius": (dict, MISSING), "shape": (dict, MISSING), "center_x": (dict, MISSING),
            "center_y": (dict, MISSING), "margin": (float, 0.0)})
        if n_x < 2:
            raise ConfigError(f"{where}: needs at least two state dimensions")
        refs = {k: _value_ref(ko[k], params, f"{where}.{k}", 1)
                for k in ("radius", "shape", "center_x", "center_y")}
        with _at(where):
            built.state.append(EllipseKeepOut(**refs, margin=ko["margin"]))
    if table["contraction"] is not None:
        where = "constraints.contraction"
        rate = _read(table["contraction"], where, {"rate": (float, MISSING)})["rate"]
        with _at(where):
            built.contraction = ContractionConstraint(rate=rate)
    return built


def _terminal(entry, params: ParamSpec, n_x: int):
    """The terminal set as a BoxConstraint or a BallConstraint."""
    where = "terminal_set"
    table = _by_kind(entry, where, {
        "box": _BOX,
        "ball": {"radius": (float, MISSING), "center": (dict, None), "margin": (float, 0.0)},
    }, {})
    if table["kind"] == "box":
        return _box(table, n_x, where)
    center = _value_ref(table["center"], params, where + ".center", n_x)
    with _at(where):
        return BallConstraint(table["radius"], center, margin=table["margin"])


def load_config(path) -> ExperimentConfig:
    from .trainer import TrainConfig  # avoid an import cycle at module load

    path = Path(path)
    try:
        raw = json.loads(path.read_text(), object_pairs_hook=_mark_repeats)
    except OSError as err:  # missing, a directory, or not readable
        raise ConfigError(f"{path}: cannot read ({err.strerror})") from err
    except ValueError as err:  # bad JSON or bytes, or an integer past Python's digit limit
        raise ConfigError(f"{path}: not valid JSON ({err})") from err

    _check_json(raw)
    top = _read(raw, "config", {
        "name": (str, MISSING), "seed": (int, MISSING, 0), "mode": (str, MISSING),
        "horizon": (int, MISSING, 1), "model": (dict, MISSING), "noise": (dict, MISSING),
        "x0": (dict, MISSING), "parameters": ([dict], []), "scenarios": (dict, MISSING),
        "policy": (dict, MISSING), "objective": (dict, MISSING), "constraints": (dict, {}),
        "terminal_set": (dict, MISSING), "weights": (dict, MISSING),
        "training": (dict, MISSING), "certification": (dict, {}),
        "simulation": (dict, {}), "benchmark": (dict, {})})
    seed, mode, horizon = top["seed"], top["mode"], top["horizon"]
    if mode not in MODES:
        raise ConfigError(f"config.mode: unknown mode {mode!r}, have {MODES}")

    with _at("model"):
        if "file" in top["model"]:
            model = load_model(path.parent / _read(top["model"], "model",
                                                   {"file": (str, MISSING)})["file"])
        else:
            model = LinearSystem(**_read(top["model"], "model", {
                "A": ([[float]], MISSING), "B": ([[float]], MISSING)}))
    n_x, n_u = model.n_x, model.n_u

    with _at("noise"):
        noise = NoiseSpec(**_read(top["noise"], "noise", {
            "kind": (str, MISSING), "scale": ([float], MISSING),
            "bound": ((float, None), "default")}))
    if noise.dim != n_x:
        raise ConfigError(f"noise.scale: needs {n_x} entries, got {noise.dim}")

    x0_dist = _dist(top["x0"], "x0", {})
    if x0_dist.dim != n_x:
        raise ConfigError(f"x0: needs {n_x} entries, got {x0_dist.dim}")
    components = []
    for pos, comp in enumerate(top["parameters"]):
        dist = _dist(comp, f"parameters[{pos}]", {"name": (str, MISSING)})
        components.append((comp["name"], dist))
    with _at("parameters"):
        params = ParamSpec(x0=x0_dist, components=tuple(components))

    scen = _read(top["scenarios"], "scenarios", {
        "m": (int, MISSING, 1), "s": (int, MISSING, 1), "splits": ([float], MISSING)})
    if len(scen["splits"]) != 3:
        raise ConfigError("scenarios.splits: need exactly three fractions (train, dev, test)")
    with _at("scenarios.splits"):
        split_ranges(scen["splits"], scen["m"])

    policy = _read(top["policy"], "policy", {"hidden": ([int], MISSING), "seed": (int, seed, 0)})
    full = mode == "full-horizon"
    with _at("policy"):
        arch = PolicyArchitecture(input_dim=n_x + params.xi_dim if full else n_x,
                                  output_dim=horizon * n_u if full else n_u, **policy)

    objective = _objective(top["objective"], params, n_x)
    constraints = _constraints(top["constraints"], params, n_x, n_u)
    constraints.terminal = _terminal(top["terminal_set"], params, n_x)

    with _at("weights"):
        weights = LossWeights(**_read(top["weights"], "weights", _fields(LossWeights)))
    read = weights_read(objective, constraints, horizon)
    for name, value in vars(weights).items():
        if value and name not in read:
            raise ConfigError(f"weights.{name}: no term of this {objective.kind} loss reads it, "
                              f"got {value}")
    if constraints.contraction is not None and not weights.Q_c:
        raise ConfigError("constraints.contraction: shapes training only, "
                          "so it needs weights.Q_c > 0")

    with _at("training"):
        train = TrainConfig(**_read(top["training"], "training", _fields(TrainConfig)))

    beta, delta = _read(top["certification"], "certification",
                        {"beta": (float, 0.9), "delta": (float, 0.01)}).values()
    if not 0 < beta <= 1:
        raise ConfigError(f"certification.beta: must sit in (0, 1], got {beta}")
    if not 0 < delta < 1:
        raise ConfigError(f"certification.delta: must sit in (0, 1), got {delta}")

    sim = _read(top["simulation"], "simulation", {"count": (int, 20, 1), "steps": (int, 50, 1)})
    bench = _read(top["benchmark"], "benchmark", {
        "instances": (int, 10, 1), "repeats": (int, 5, 1), "solver": (dict, {})})
    with _at("benchmark.solver"):
        solver = SolverConfig(**_read(bench["solver"], "benchmark.solver",
                                      _fields(SolverConfig)))

    return ExperimentConfig(
        name=top["name"], seed=seed, mode=mode, horizon=horizon, model=model,
        arch=arch, noise=noise, params=params, m=scen["m"], s=scen["s"],
        splits=tuple(scen["splits"]), objective=objective, constraints=constraints,
        weights=weights, train=train, beta=beta, delta=delta,
        sim_count=sim["count"], sim_steps=sim["steps"],
        bench_instances=bench["instances"], bench_repeats=bench["repeats"],
        solver=solver)
