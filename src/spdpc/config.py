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

Every table is read by ``files.read_table`` against a spec declared here,
and a model fixture under the inline ``model`` table's spec, its errors
naming the file.  A non-zero weight that nothing reads is an error too.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from pathlib import Path

from .baseline import SolverConfig
from .dynamics import FULL_HORIZON, MODES, LinearSystem, NoiseSpec
from .files import ReadError as ConfigError  # the name cli and the tests catch
from .files import at, dataclass_spec, read_by_kind, read_json, read_table
from .objectives import (BallConstraint, BoxConstraint, Constant, ConstraintSet,
                         ContractionConstraint, EllipseKeepOut, LossWeights,
                         OBJECTIVES, StageObjective, weights_read)
from .policy import PolicyArchitecture
from .sampling import DistSpec, ParamSpec, split_ranges
from .trainer import TrainConfig


# the distribution kinds, their vectors in DistSpec order
_DISTS = {"uniform": {"lower": ([float], MISSING), "upper": ([float], MISSING)},
          "gaussian": {"mean": ([float], MISSING), "std": ([float], MISSING)},
          "constant": {"values": ([float], MISSING)}}
_BOX = {"lower": ([float], MISSING), "upper": ([float], MISSING), "margin": (float, 0.0)}


def _dist(entry, where: str, extra: dict) -> DistSpec:
    """A distribution table: its kind plus that kind's vectors."""
    table = read_by_kind(entry, where, _DISTS, extra)
    with at(where):
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
    train: TrainConfig
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
    table = read_table(entry, where, {"constant": ((float, [float]), None),
                                      "parameter": (str, None)})
    if (table["constant"] is None) == (table["parameter"] is None):
        raise ConfigError(f"{where}: expected a constant or parameter reference")
    values = table["constant"]
    with at(where):
        ref = params.slice_for(table["parameter"]) if values is None else \
            Constant(tuple(values) if isinstance(values, list) else (values,))
    dim = ref.stop - ref.start if values is None else len(ref.values)
    if dim != expect_dim:
        raise ConfigError(f"{where}: needs {expect_dim} values, reference has {dim}")
    return ref


def _box(table: dict, dim: int, where: str) -> BoxConstraint:
    if len(table["lower"]) != dim or len(table["upper"]) != dim:
        raise ConfigError(f"{where}: bounds must have {dim} entries")
    with at(where):
        return BoxConstraint(table["lower"], table["upper"], margin=table["margin"])


# the JSON type of each StageObjective field a kind may read (OBJECTIVES says which)
_OBJECTIVE_FIELDS = {"track_indices": ([int], MISSING), "reference": (dict, MISSING),
                     "target": (dict, MISSING)}


def _objective(entry, params: ParamSpec, n_x: int) -> StageObjective:
    """The objective: its kind plus exactly the fields ``OBJECTIVES`` lists for it."""
    table = read_by_kind(entry, "objective", {
        kind: {name: _OBJECTIVE_FIELDS[name] for name in reads}
        for kind, (reads, _) in OBJECTIVES.items()}, {})
    track = tuple(table.get("track_indices", ()))
    if "track_indices" in table and not (track and len(set(track)) == len(track)
                                         and all(0 <= i < n_x for i in track)):
        raise ConfigError(f"objective.track_indices: needs one or more distinct indices "
                          f"in [0, {n_x}), got {list(track)}")
    refs = {key: _value_ref(table[key], params, f"objective.{key}",
                            len(track) if key == "reference" and track else n_x)
            for key in ("reference", "target") if key in table}
    with at("objective"):
        return StageObjective(kind=table["kind"], track_indices=track, **refs)


def _constraints(entry, params: ParamSpec, n_x: int, n_u: int) -> ConstraintSet:
    table = read_table(entry, "constraints", {
        "state_box": (dict, None), "input_box": (dict, None), "keep_out": (dict, None),
        "contraction": (dict, None)})
    built = ConstraintSet()
    for key, dim, part in (("state_box", n_x, built.state), ("input_box", n_u, built.inputs)):
        if table[key] is not None:
            where = f"constraints.{key}"
            part.append(_box(read_table(table[key], where, _BOX), dim, where))
    if table["keep_out"] is not None:
        where = "constraints.keep_out"
        ko = read_table(table["keep_out"], where, {
            "radius": (dict, MISSING), "shape": (dict, MISSING), "center_x": (dict, MISSING),
            "center_y": (dict, MISSING), "margin": (float, 0.0)})
        if n_x < 2:
            raise ConfigError(f"{where}: needs at least two state dimensions")
        refs = {k: _value_ref(ko[k], params, f"{where}.{k}", 1)
                for k in ("radius", "shape", "center_x", "center_y")}
        with at(where):
            built.state.append(EllipseKeepOut(**refs, margin=ko["margin"]))
    if table["contraction"] is not None:
        where = "constraints.contraction"
        rate = read_table(table["contraction"], where, {"rate": (float, MISSING)})["rate"]
        with at(where):
            built.contraction = ContractionConstraint(rate=rate)
    return built


def _terminal(entry, params: ParamSpec, n_x: int):
    """The terminal set as a BoxConstraint or a BallConstraint."""
    where = "terminal_set"
    table = read_by_kind(entry, where, {
        "box": _BOX,
        "ball": {"radius": (float, MISSING), "center": (dict, None), "margin": (float, 0.0)},
    }, {})
    if table["kind"] == "box":
        return _box(table, n_x, where)
    center = _value_ref(table["center"], params, where + ".center", n_x)
    with at(where):
        return BallConstraint(table["radius"], center, margin=table["margin"])


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    top = read_table(read_json(path), "config", {
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

    model_spec = {"A": ([[float]], MISSING), "B": ([[float]], MISSING), "source": (str, None)}
    if "file" in top["model"]:  # a fixture, read under the inline table's spec
        fixture = path.parent / read_table(top["model"], "model", {"file": (str, MISSING)})["file"]
        doc = read_json(fixture)
        with at(fixture):
            table = read_table(doc, "", model_spec)
            model = LinearSystem(table["A"], table["B"])
    else:
        table = read_table(top["model"], "model", model_spec)
        with at("model"):
            model = LinearSystem(table["A"], table["B"])
    n_x, n_u = model.n_x, model.n_u

    table = read_table(top["noise"], "noise", {
        "kind": (str, MISSING), "scale": ([float], MISSING), "bound": ((float, None), "default")})
    with at("noise"):
        noise = NoiseSpec(**table)
    if noise.dim != n_x:
        raise ConfigError(f"noise.scale: needs {n_x} entries, got {noise.dim}")

    x0_dist = _dist(top["x0"], "x0", {})
    if x0_dist.dim != n_x:
        raise ConfigError(f"x0: needs {n_x} entries, got {x0_dist.dim}")
    components = []
    for pos, comp in enumerate(top["parameters"]):
        dist = _dist(comp, f"parameters[{pos}]", {"name": (str, MISSING)})
        components.append((comp["name"], dist))
    with at("parameters"):
        params = ParamSpec(x0=x0_dist, components=tuple(components))

    scen = read_table(top["scenarios"], "scenarios", {
        "m": (int, MISSING, 1), "s": (int, MISSING, 1), "splits": ([float], MISSING)})
    if len(scen["splits"]) != 3:
        raise ConfigError("scenarios.splits: need exactly three fractions (train, dev, test)")
    with at("scenarios.splits"):
        split_ranges(scen["splits"], scen["m"])

    policy = read_table(top["policy"], "policy", {"hidden": ([int], MISSING),
                                                  "seed": (int, seed, 0)})
    full = mode == FULL_HORIZON
    with at("policy"):
        arch = PolicyArchitecture(input_dim=n_x + params.xi_dim if full else n_x,
                                  output_dim=horizon * n_u if full else n_u, **policy)

    objective = _objective(top["objective"], params, n_x)
    constraints = _constraints(top["constraints"], params, n_x, n_u)
    constraints.terminal = _terminal(top["terminal_set"], params, n_x)

    table = read_table(top["weights"], "weights", dataclass_spec(LossWeights))
    with at("weights"):
        weights = LossWeights(**table)
    read = weights_read(objective, constraints, horizon)
    for name, value in vars(weights).items():
        if value and name not in read:
            raise ConfigError(f"weights.{name}: no term of this {objective.kind} loss reads it, "
                              f"got {value}")
    if constraints.contraction is not None and not weights.Q_c:
        raise ConfigError("constraints.contraction: shapes training only, "
                          "so it needs weights.Q_c > 0")

    table = read_table(top["training"], "training", dataclass_spec(TrainConfig))
    with at("training"):
        train = TrainConfig(**table)

    beta, delta = read_table(top["certification"], "certification",
                             {"beta": (float, 0.9), "delta": (float, 0.01)}).values()
    if not 0 < beta <= 1:
        raise ConfigError(f"certification.beta: must sit in (0, 1], got {beta}")
    if not 0 < delta < 1:
        raise ConfigError(f"certification.delta: must sit in (0, 1), got {delta}")

    sim = read_table(top["simulation"], "simulation", {"count": (int, 20, 1),
                                                       "steps": (int, 50, 1)})
    bench = read_table(top["benchmark"], "benchmark", {
        "instances": (int, 10, 1), "repeats": (int, 5, 1), "solver": (dict, {})})
    table = read_table(bench["solver"], "benchmark.solver", dataclass_spec(SolverConfig))
    with at("benchmark.solver"):
        solver = SolverConfig(**table)

    return ExperimentConfig(
        name=top["name"], seed=seed, mode=mode, horizon=horizon, model=model,
        arch=arch, noise=noise, params=params, m=scen["m"], s=scen["s"],
        splits=tuple(scen["splits"]), objective=objective, constraints=constraints,
        weights=weights, train=train, beta=beta, delta=delta,
        sim_count=sim["count"], sim_steps=sim["steps"],
        bench_instances=bench["instances"], bench_repeats=bench["repeats"],
        solver=solver)
