"""The benchmark's workloads, their set-up, and the pass that runs one.

Every workload runs the same phases through spdpc's public API, with the
calls the command line makes (``cli.run_train``, ``run_certify``,
``run_simulate``, ``run_benchmark``):

* train: ``trainer.train`` for a fixed number of epochs on the desk train
  split, with a dev evaluation after every epoch;
* heldout: ``trainer.evaluate`` of the trained policy on held-out pairs;
* certify: ``certify.run_certification`` on a large, freshly sampled
  held-out set, one call per block;
* decide: closed-loop episodes, one ``policy.action_sequence`` call (or
  ``policy.forward`` in state-feedback mode) per decision, the plant stepped
  in numpy;
* solve: warm-started ``baseline.solve`` calls at the config's
  ``benchmark.solver`` settings, on the instances ``spdpc benchmark`` draws.

Each phase is a closed loop with one client: the caller waits for every
step, check, decision and solve before issuing the next.  The phases run
interleaved in ROUNDS rounds, each round a slice of every phase: training
runs, certification blocks, DECISION_BLOCK decisions and solves.  The order
is fixed and the work is a fixed amount, scaled only by ``--seconds``, so a
seed fixes every result bit for bit.

Every phase is also cut into short units of one kind of work, each timed on
its own (see stats.py for why): the forward, backward and update parts of a
training step and the end-of-epoch dev evaluation; a certification block; a
decision; and a solve's taped losses, backward passes and line-search
trials.  Training steps and solves are cut where the CLOCKED functions
return and where ``trainer.train`` calls ``on_epoch``; a clock only notes
the time.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
from spdpc import autodiff, baseline, certify, config, objectives, rng, sampling, trainer
from spdpc import policy as pol
from spdpc.sampling import ScenarioSet

import bootstrap
import reference

NOMINAL_SECONDS = 30      # the sizes in WORKLOADS run about this long
ROUNDS = 20               # interleaved rounds, each a slice of every phase
DECISION_BLOCK = 500      # decisions per round
CERT_PASSES = 2           # times each certification block is certified: more samples
CERT_SEED_OFFSET = 2**32  # held-out master seed; workload seeds stay below it
REL_TOL = 1e-12           # decision against the raw-numpy forward pass
REROLL_CHUNK = 4096       # scenario pairs per reference re-roll chunk


@dataclass(frozen=True)
class Workload:
    """Work per run at NOMINAL_SECONDS.  The counts in SCALED scale with
    ``--seconds``; the size of a unit of work (epochs per training run,
    draws per certification block) does not."""

    config: str
    epochs: int            # epochs per training run
    train_runs: int        # identical training runs from the same initial weights
    cert_blocks: int       # run_certification calls
    cert_block_m: int      # parametric draws per block (times the config's s)
    heldout_m: int         # parametric draws scored for heldout_loss
    solves: int
    full_config: str | None = None   # paper-scale config to project train time for
    solver_max_iters: int | None = None  # overrides the config's benchmark.solver cap

    def sized(self, seconds: float) -> "Workload":
        scale = seconds / NOMINAL_SECONDS
        counts = {name: max(1, round(getattr(self, name) * scale)) for name in SCALED}
        counts["heldout_m"] = min(counts["heldout_m"],
                                  counts["cert_blocks"] * self.cert_block_m)
        return dataclasses.replace(self, **counts)


SCALED = ("train_runs", "cert_blocks", "heldout_m", "solves")

WORKLOADS = {
    # Loss-heavy taped path: N=20, 4x100 policy, keep-out and terminal
    # smoothing, about 1050 tape nodes per step.  At the config's 150-iteration
    # cap a solve takes 5-10 s and stops after 100-150 iterations depending on
    # the instance, so a run could afford two; capped at 20 iterations, ten
    # instances fit and every one runs the full 20.
    "obstacle": Workload(
        config="ex3_obstacle_desk", epochs=1, train_runs=8, cert_blocks=80,
        cert_block_m=25, heldout_m=250, solves=10, full_config="ex3_obstacle",
        solver_max_iters=20),
    # Small tape (about 110 nodes), N=2 state feedback: time spreads over
    # per-op dispatch and per-step policy calls, so a loss-condensing change
    # should leave it flat.  Large certification set, many substreams.
    "double_integrator": Workload(
        config="ex1_double_integrator_desk", epochs=20, train_runs=20,
        cert_blocks=100, cert_block_m=200, heldout_m=2000, solves=40,
        full_config="ex1_double_integrator"),
    # Deployment: single-state decisions of a 12-d policy and 150-iteration
    # solves at batch size one.  Training is the config's own three epochs.
    "quadcopter_online": Workload(
        config="ex2_quadcopter_desk", epochs=3, train_runs=40, cert_blocks=60,
        cert_block_m=250, heldout_m=5000, solves=5),
}


@dataclass
class Setup:
    """Everything a pass needs, generated from the workload seed."""

    name: str
    work: Workload
    cfg: object
    seed: int
    train_set: ScenarioSet
    dev_set: ScenarioSet
    cert_set: ScenarioSet
    episodes: list          # (x0, xi or None, noise (steps, n_x)) per episode
    instances: list         # (x0, xi or None) per solve
    policy: pol.MlpPolicy   # initial weights


def setup(name: str, seed: int, seconds: float) -> Setup:
    """Config load, scenario sampling and split, deployment inputs, policy init."""
    work = WORKLOADS[name].sized(seconds)
    cfg = config.load_config(bootstrap.CONFIGS / f"{work.config}.json")
    scenarios = sampling.sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s,
                                          cfg.horizon, seed)
    train_set, dev_set, _ = sampling.split(scenarios, cfg.splits)
    cert_set = sampling.sample_scenarios(
        cfg.params, cfg.noise, work.cert_blocks * work.cert_block_m, cfg.s,
        cfg.horizon, CERT_SEED_OFFSET + seed)

    episodes = []
    for i in range(math.ceil(ROUNDS * DECISION_BLOCK / cfg.sim_steps)):
        gen = rng.substream(seed, rng.SIM_X0, i)
        x0 = cfg.params.x0.draw(gen)
        xi = cfg.params.draw_xi(gen)
        noise = cfg.noise.draw(rng.substream(seed, rng.SIM_NOISE, i), cfg.sim_steps)
        episodes.append((x0, xi if xi.size else None, noise))
    instances = []
    for t in range(work.solves):
        gen = rng.substream(seed, rng.BENCH, t)
        x0 = cfg.params.x0.draw(gen)
        xi = cfg.params.draw_xi(gen)
        instances.append((x0, xi if xi.size else None))
    return Setup(name, work, cfg, seed, train_set, dev_set, cert_set, episodes,
                 instances, pol.init_policy(cfg.arch))


@dataclass
class PassResult:
    phase_s: Counter = field(default_factory=Counter)  # seconds per phase
    units: dict = field(default_factory=lambda: defaultdict(list))  # kind: seconds each
    train_steps: int = 0                              # steps the train.* units came from
    solve_units: list = field(default_factory=list)   # Counter of unit kinds per solve
    dev_loss: float = math.nan
    heldout_loss: float = math.nan
    flags: np.ndarray = None                          # certification pass flags
    actions: np.ndarray = None                        # (ROUNDS * DECISION_BLOCK, n_u)
    decision_ns: np.ndarray = None
    floor_ns: np.ndarray = None                       # raw-numpy forward, same inputs
    solves: list = field(default_factory=list)        # SolveResult or None
    solve_ms: list = field(default_factory=list)      # every solve, in order
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)

    def fail(self, kind: str, count: int, note: str) -> None:
        self.failed[kind] += count
        if len(self.notes) < 20:
            self.notes.append(note)


def _same_training(a, b) -> bool:
    return (a.history == b.history and a.best_epoch == b.best_epoch
            and all(np.array_equal(x, y) for lx, ly in zip(a.policy.layers, b.policy.layers)
                    for x, y in zip(lx, ly)))


# Functions whose returns cut training steps and solves into units.
CLOCKED = ((objectives, "total_loss", "forward"), (autodiff.Tape, "backward", "backward"),
           (trainer, "adamw_step", "update"))


@contextlib.contextmanager
def _clocks(marks: list):
    """Append (label, perf_counter_ns) to ``marks`` each time a CLOCKED function returns."""
    originals = []
    for owner, attr, label in CLOCKED:
        original = getattr(owner, attr)

        def clocked(*args, _original=original, _label=label, **kwargs):
            out = _original(*args, **kwargs)
            marks.append((_label, time.perf_counter_ns()))
            return out

        originals.append((owner, attr, original))
        setattr(owner, attr, clocked)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _train_units(s: Setup, t0: int, marks: list, out: PassResult) -> None:
    """Cut a training run into units, per rollout of the step they belong to:
    train.forward (up to the loss), train.backward, train.update (to the end
    of adamw_step); and train.evaluate, from an epoch's last update to its
    on_epoch call, which holds the dev evaluation."""
    size, mb = s.train_set.size, s.cfg.train.minibatch
    prev, j = t0, 0
    for label, t in marks:
        if label == "epoch":
            out.units["train.evaluate"].append((t - prev) / 1e9)
            prev, j = t, 0
        elif j < math.ceil(size / mb):
            out.units[f"train.{label}"].append((t - prev) / 1e9 / min(mb, size - j * mb))
            prev = t
            if label == "update":
                j += 1
                out.train_steps += 1


def _train(s: Setup, out: PassResult, span, runs, state: dict):
    """Identical training runs from the initial weights; the first is deployed."""
    cfg, work = s.cfg, s.work
    train_cfg = dataclasses.replace(cfg.train, epochs=work.epochs)
    steps = work.epochs * math.ceil(s.train_set.size / cfg.train.minibatch)
    for run in runs:
        policy = copy.deepcopy(s.policy)
        out.attempted["train"] += steps
        marks = []
        t0 = time.perf_counter_ns()
        with span("bench.train_run"), _clocks(marks):
            try:
                result = trainer.train(
                    cfg.model, policy, s.train_set, s.dev_set, cfg.objective,
                    cfg.constraints, cfg.weights, train_cfg, cfg.mode, s.seed,
                    on_epoch=lambda *_: marks.append(("epoch", time.perf_counter_ns())))
            except trainer.TrainingDiverged as err:
                out.fail("train", steps, f"training run {run}: {err}")
                continue
        _train_units(s, t0, marks, out)
        if not all(math.isfinite(row[k]) for row in result.history
                   for k in trainer.HISTORY_COLUMNS[1:]):
            out.fail("train", steps, f"training run {run}: non-finite loss")
        first = state.setdefault("first", result)
        if result is not first and not _same_training(first, result):
            out.fail("train", steps, f"training run {run} differs from run 0 on identical inputs")


def _heldout(s: Setup, best, out: PassResult, span):
    cfg, cert = s.cfg, s.cert_set
    m = s.work.heldout_m
    held = ScenarioSet(cert.x0[:m], cert.xi[:m], cert.omega, cert.seed)
    with span("bench.heldout"):
        out.heldout_loss = trainer.evaluate(best, cfg.model, held, cfg.objective,
                                            cfg.constraints, cfg.weights, cfg.mode)["total"]
    if not math.isfinite(out.heldout_loss):
        out.fail("train", 1, f"held-out loss is {out.heldout_loss}")


def _certify(s: Setup, best, out: PassResult, span, blocks):
    """Blocks k of CERT_PASSES passes over the set; every pass must give the same flags."""
    cfg, cert, bm = s.cfg, s.cert_set, s.work.cert_block_m
    for k in blocks:
        b = k % s.work.cert_blocks
        rows = slice(b * bm, (b + 1) * bm)
        block = ScenarioSet(cert.x0[rows], cert.xi[rows], cert.omega, cert.seed,
                            indices=cert.indices[rows])
        tb = time.perf_counter()
        with span("bench.certify_block"):
            _, flags = certify.run_certification(
                best, cfg.model, block, cfg.constraints, cfg.terminal, cfg.mode,
                cfg.beta, cfg.delta)
        out.units["certify.block"].append(time.perf_counter() - tb)
        pairs = slice(b * bm * cert.s, (b + 1) * bm * cert.s)
        if k < s.work.cert_blocks:
            out.flags[pairs] = flags
        elif not np.array_equal(out.flags[pairs], flags):
            out.fail("certify", block.size, f"block {b} gave other pass flags on pass "
                                            f"{k // s.work.cert_blocks + 1}")
        out.attempted["certify"] += block.size


def _check_certification(s: Setup, best, out: PassResult) -> None:
    """Pass flags against an independent re-roll, pair idx = i * s + j."""
    cfg, cert = s.cfg, s.cert_set
    for lo in range(0, cert.size, REROLL_CHUNK):
        idx = np.arange(lo, min(lo + REROLL_CHUNK, cert.size))
        i_idx, j_idx = idx // cert.s, idx % cert.s
        xi = cert.xi[i_idx] if cert.xi.shape[1] else None
        states, actions = reference.reroll(cfg, best.layers, cert.x0[i_idx], xi,
                                           cert.omega[j_idx])
        wrong = int(np.count_nonzero(reference.passes(cfg, states, actions, xi)
                                     != out.flags[idx]))
        if wrong:
            out.fail("certify", wrong, f"{wrong} pass flags disagree with the "
                                       f"numpy re-roll in pairs {idx[0]}..{idx[-1]}")


class _Episodes:
    """Closed-loop episodes of the config's simulation length, continued across rounds."""

    def __init__(self, s: Setup, out: PassResult):
        self.s, self.out = s, out
        n = ROUNDS * DECISION_BLOCK
        out.decision_ns = np.zeros(n, dtype=np.int64)
        out.floor_ns = np.zeros(n, dtype=np.int64)
        out.actions = np.zeros((n, s.cfg.model.n_u))
        self.k = 0
        self.episode, self.step, self.x = 0, 0, s.episodes[0][0]

    def decide(self, policy) -> None:
        s, out = self.s, self.out
        cfg = s.cfg
        A, B, n_u, mode = cfg.model.A, cfg.model.B, cfg.model.n_u, cfg.mode
        full = mode == reference.FULL_HORIZON
        for k in range(self.k, self.k + DECISION_BLOCK):
            _, xi, noise = s.episodes[self.episode]
            x = self.x
            t0 = time.perf_counter_ns()
            if full:
                u = pol.action_sequence(policy, x, xi, n_u)[0]
            else:
                u = pol.forward(policy, x)
            t1 = time.perf_counter_ns()
            ref = reference.decision(policy.layers, mode, n_u, x, xi)
            t2 = time.perf_counter_ns()
            out.decision_ns[k] = t1 - t0
            out.floor_ns[k] = t2 - t1
            out.actions[k] = u
            if not np.max(np.abs(u - ref)) <= REL_TOL * np.max(np.abs(ref)):
                out.fail("decide", 1, f"decision {k} is {u}, numpy forward gives {ref}")
            self.x = A @ x + B @ u + noise[self.step]
            self.step += 1
            if self.step == cfg.sim_steps:
                self.episode, self.step = self.episode + 1, 0
                if self.episode < len(s.episodes):
                    self.x = s.episodes[self.episode][0]
        self.k += DECISION_BLOCK
        out.attempted["decide"] += DECISION_BLOCK


def _solve(s: Setup, out: PassResult, span, instances, state: dict):
    """Solve instances in order; each warm-starts from the previous solution."""
    cfg = s.cfg
    solver = cfg.solver
    if s.work.solver_max_iters is not None:
        solver = dataclasses.replace(solver, max_iters=s.work.solver_max_iters)
    for t in instances:
        x0, xi = s.instances[t]
        prev = state.get("prev")
        warm = None if prev is None else baseline.shift_warm_start(prev)
        out.attempted["solve"] += 1
        marks = []
        t0 = time.perf_counter_ns()
        with span("bench.solve"), _clocks(marks):
            try:
                result = baseline.solve(cfg.model, x0, xi, cfg.horizon, cfg.objective,
                                        cfg.constraints, cfg.weights, solver,
                                        warm_start=warm)
            except ValueError as err:
                result = None
                out.fail("solve", 1, f"solve {t}: {err}")
        out.solve_ms.append((time.perf_counter_ns() - t0) / 1e6)
        _solve_units(t0, marks, out)
        out.solves.append(result)
        if result is None:
            continue
        values = np.asarray(result.values)
        if not (np.all(np.isfinite(values)) and np.all(np.diff(values) <= 0.0)):
            out.fail("solve", 1, f"solve {t}: objective values increase: {values.tolist()}")
        state["prev"] = result.actions


def _solve_units(t0: int, marks: list, out: PassResult) -> None:
    """Cut a solve into units: solve.forward (a loss that a backward pass
    follows), solve.backward, and solve.trial (any other loss: the first
    value and the line-search trials)."""
    counts = Counter()
    prev = t0
    for k, (label, t) in enumerate(marks):
        if label == "forward" and (k + 1 == len(marks) or marks[k + 1][0] != "backward"):
            label = "trial"
        out.units[f"solve.{label}"].append((t - prev) / 1e9)
        counts[f"solve.{label}"] += 1
        prev = t
    out.solve_units.append(counts)


def _share(count: int, r: int) -> range:
    """Indices dealt to round r when ``count`` items are spread over ROUNDS
    rounds; item 0 always falls in round 0."""
    return range(-(-r * count // ROUNDS), -(-(r + 1) * count // ROUNDS))


def run_pass(s: Setup, tracer=None) -> PassResult:
    """ROUNDS rounds, each a slice of training, certify, decide and solve."""
    out = PassResult()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    def phase(name, fn, *args):
        if tracer is not None:
            tracer.phase = name
        t0 = time.perf_counter()
        fn(*args)
        out.phase_s[name] += time.perf_counter() - t0

    out.flags = np.zeros(s.cert_set.size, dtype=bool)
    episodes = _Episodes(s, out)
    trained, solver_state = {}, {}
    for r in range(ROUNDS):
        phase("train", _train, s, out, span, _share(s.work.train_runs, r), trained)
        best = trained["first"].policy if trained else s.policy
        if r == 0:
            out.dev_loss = trained["first"].best_dev_loss if trained else math.nan
            phase("heldout", _heldout, s, best, out, span)
        phase("certify", _certify, s, best, out, span, _share(CERT_PASSES * s.work.cert_blocks, r))
        phase("decide", episodes.decide, best)
        phase("solve", _solve, s, out, span, _share(len(s.instances), r), solver_state)
    _check_certification(s, best, out)
    return out
