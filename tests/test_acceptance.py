"""Acceptance gate: one test per headline guarantee of the package.

Each test measures one end-to-end claim (gradient fidelity, certification
math, the two desk-scale case-study quality gates, policy-vs-solver timing,
parameter count, the core property suite, determinism) at its stated
tolerance and prints a single PASS line with the measured numbers.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the measurements;
the heavyweight cases drive the installed command line exactly the way a
user would and must finish inside their stated time budgets on an ordinary
machine.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc import trainer as tr
from spdpc import baseline as bl
from spdpc.certify import certify, hoeffding_alpha
from spdpc.config import load_config
from spdpc.objectives import (BoxConstraint, Constant, ConstraintSet,
                              ContractionConstraint, EllipseKeepOut,
                              LossWeights, StageObjective, XiSlice)
from spdpc.sampling import sample_scenarios, split

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*args):
    """Invoke the command line of the package under test as a subprocess and
    require exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(pol.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "spdpc.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, f"cli {args} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------------------
# 1. gradient fidelity on random problem configurations


def _random_setup(gen, kind):
    n_x = int(gen.integers(1, 4))
    n_u = int(gen.integers(1, 3))
    horizon = int(gen.integers(1, 4))
    batch = int(gen.integers(1, 5))
    while True:
        A = gen.normal(0.0, 0.6, size=(n_x, n_x))
        B = gen.normal(0.0, 1.0, size=(n_x, n_u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model = dyn.LinearSystem(A, B)
                break
            except Warning:
                continue
    mode = dyn.FULL_HORIZON if gen.random() < 0.5 else dyn.STATE_FEEDBACK

    if kind == "stabilization":
        objective = StageObjective(kind="stabilization")
    elif kind == "tracking":
        objective = StageObjective(kind="tracking",
                                   reference=Constant(gen.normal(size=n_x)))
    elif kind == "split-tracking":
        track = (0,)
        objective = StageObjective(kind="split-tracking", track_indices=track,
                                   reference=Constant(gen.normal(size=1)))
    else:
        objective = StageObjective(kind="terminal-smoothing",
                                   target=Constant(gen.normal(size=n_x)))

    state = [BoxConstraint(tuple(-gen.uniform(1, 2, n_x)),
                           tuple(gen.uniform(1, 2, n_x)),
                           margin=float(gen.uniform(0, 0.1)))]
    if n_x == 2 and gen.random() < 0.5:
        state.append(EllipseKeepOut(Constant([0.3]), Constant([1.0]),
                                    Constant([2.0]), Constant([2.0])))
    inputs = [BoxConstraint(tuple(-gen.uniform(0.5, 1.5, n_u)),
                            tuple(gen.uniform(0.5, 1.5, n_u)))]
    contraction = ContractionConstraint(rate=0.9) if gen.random() < 0.3 else None
    terminal = BoxConstraint(tuple(-gen.uniform(0.5, 1.5, n_x)),
                             tuple(gen.uniform(0.5, 1.5, n_x))) \
        if gen.random() < 0.5 else None
    constraints = ConstraintSet(state=state, inputs=inputs,
                                contraction=contraction, terminal=terminal)
    weights = LossWeights(*(float(gen.uniform(0.1, 5.0)) for _ in range(9)))

    out_dim = horizon * n_u if mode == dyn.FULL_HORIZON else n_u
    hidden = tuple(int(gen.integers(3, 7)) for _ in range(int(gen.integers(1, 3))))
    arch = pol.PolicyArchitecture(n_x, hidden, out_dim, seed=int(gen.integers(0, 1 << 16)))
    policy = pol.init_policy(arch)
    x0 = gen.uniform(-1.0, 1.0, size=(batch, n_x))
    omega = gen.normal(0.0, 0.1, size=(batch, horizon, n_x))
    return model, mode, objective, constraints, weights, policy, x0, omega


def _arrays(layers):
    """W0, b0, W1, b1, ...: each array of (W, b) pairs in ``ad.unpack`` order."""
    return [a for layer in layers for a in layer]


def test_gradients_match_finite_differences(monkeypatch):
    started = time.monotonic()
    gen = np.random.default_rng(20260815)
    kinds = ("stabilization", "tracking", "split-tracking", "terminal-smoothing")

    kink_gaps = []
    true_loop = ad.mlp_values

    def recording_loop(z, layers, inputs=None):
        h = z
        for w, b in layers[:-1]:  # each hidden pre-activation, as the loop computes it
            pre = h @ w.T + b
            if pre.size:
                kink_gaps.append(float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        return true_loop(z, layers, inputs)

    monkeypatch.setattr(ad, "mlp_values", recording_loop)

    checked, attempts = 0, 0
    worst_rel = 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 500, "kink-adjacent draws should be rare"
        model, mode, objective, constraints, weights, policy, x0, omega = \
            _random_setup(gen, kinds[checked % len(kinds)])

        kink_gaps.clear()
        parts, grad = tr.policy_gradient(policy, model, x0, None, omega,
                                         objective, constraints, weights, mode)
        # a parameter nudge of 1e-5 cannot flip any activation whose input
        # sits >= 1e-4 from the kink; resample the config otherwise
        if kink_gaps and min(kink_gaps) < 1e-4:
            continue

        flat = policy.weights

        def loss_now():
            states, actions = dyn.rollout_tensors(
                model, lambda z: pol.apply_layers(flat, policy.arch, z),
                x0, None, omega, mode)
            return obj.total_loss(states, actions, None, objective,
                                  constraints, weights).total.item()

        h = 1e-5
        grads = ad.unpack(grad, policy.arch.layer_dims)
        for arr, arr_grad in zip(_arrays(policy.layers), _arrays(grads)):
            for at in np.ndindex(arr.shape):
                old = arr[at]
                arr[at] = old + h
                up = loss_now()
                arr[at] = old - h
                down = loss_now()
                arr[at] = old
                fd = (up - down) / (2.0 * h)
                g = arr_grad[at]
                scale = max(abs(g), abs(fd))
                if scale >= 1e-5:
                    rel = abs(g - fd) / scale
                    worst_rel = max(worst_rel, rel)
                    assert rel <= 1e-4, f"grad mismatch {g} vs {fd} (rel {rel:.2e})"
                else:
                    assert abs(g - fd) <= 1e-7
        checked += 1

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS gradient fidelity: 100 random configurations, "
          f"max relative error {worst_rel:.2e} <= 1e-4, {elapsed:.1f}s")


def test_state_feedback_gradients_through_xi(monkeypatch):
    # a state-feedback policy reads concat(x_k, xi) at every step, and its
    # objective tracks a reference taken from xi: the taped per-step concat
    # under the same 1e-4 finite-difference rule
    gen = np.random.default_rng(20261019)
    kink_gaps = []
    true_loop = ad.mlp_values

    def recording_loop(z, layers, inputs=None):
        h = z
        for w, b in layers[:-1]:  # each hidden pre-activation, as the loop computes it
            pre = h @ w.T + b
            kink_gaps.append(float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        return true_loop(z, layers, inputs)

    monkeypatch.setattr(ad, "mlp_values", recording_loop)
    checked, attempts = 0, 0
    while checked < 20:
        attempts += 1
        assert attempts < 100, "kink-adjacent draws should be rare"
        n_x, n_u, horizon, batch = (int(gen.integers(1, 4)), int(gen.integers(1, 3)),
                                    int(gen.integers(1, 4)), int(gen.integers(1, 5)))
        # one Jordan block: controllable from any B whose last row is non-zero
        model = dyn.LinearSystem(0.5 * np.eye(n_x) + np.eye(n_x, k=1),
                                 gen.normal(size=(n_x, n_u)))
        xi_dim = n_x + 1  # the last component is read by the policy alone
        objective = StageObjective(kind="tracking", reference=XiSlice(0, n_x))
        constraints = ConstraintSet(inputs=[BoxConstraint((-0.5,) * n_u, (0.5,) * n_u)])
        weights = LossWeights(Q_r=1.0, Q_u=0.1, Q_g=2.0, Q_f=1.0)
        arch = pol.PolicyArchitecture(n_x + xi_dim, (5,), n_u, seed=int(gen.integers(1 << 16)))
        policy = pol.init_policy(arch)
        x0 = gen.uniform(-1.0, 1.0, size=(batch, n_x))
        xi = gen.uniform(-1.0, 1.0, size=(batch, xi_dim))
        omega = gen.normal(0.0, 0.1, size=(batch, horizon, n_x))

        kink_gaps.clear()
        _, grad = tr.policy_gradient(policy, model, x0, xi, omega, objective, constraints,
                                     weights, dyn.STATE_FEEDBACK)
        if min(kink_gaps) < 1e-4:
            continue

        flat = policy.weights

        def loss_now():
            states, actions = dyn.rollout_tensors(
                model, lambda z: pol.apply_layers(flat, policy.arch, z),
                x0, xi, omega, dyn.STATE_FEEDBACK)
            return obj.total_loss(states, actions, xi, objective,
                                  constraints, weights).total.item()

        h = 1e-5
        grads = ad.unpack(grad, policy.arch.layer_dims)
        for arr, arr_grad in zip(_arrays(policy.layers), _arrays(grads)):
            for at in np.ndindex(arr.shape):
                old = arr[at]
                arr[at] = old + h
                up = loss_now()
                arr[at] = old - h
                down = loss_now()
                arr[at] = old
                fd = (up - down) / (2.0 * h)
                g = arr_grad[at]
                scale = max(abs(g), abs(fd))
                if scale >= 1e-5:
                    assert abs(g - fd) / scale <= 1e-4, f"grad mismatch {g} vs {fd}"
                else:
                    assert abs(g - fd) <= 1e-7
        checked += 1


# ---------------------------------------------------------------------------
# 2. confidence-margin oracle and verdict truth table


def test_confidence_margin_and_verdict_truth_table():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    reference = mp.sqrt(-mp.log(mp.mpf("0.01") / 2) / (2 * 33330))
    got = hoeffding_alpha(33330, 0.01)
    assert abs(got - float(reference)) < 1e-9

    gen = np.random.default_rng(7)
    for _ in range(1000):
        mu = float(gen.uniform(0.0, 1.0))
        r = int(gen.integers(1, 10 ** 6))
        delta = float(gen.uniform(1e-6, 0.5))
        beta = float(gen.uniform(1e-6, 1.0))
        alpha = hoeffding_alpha(r, delta)
        report = certify(mu, r, r, 1, beta, delta)
        assert report.alpha == alpha
        assert report.verdict is bool(mu - alpha >= beta)
    print(f"PASS certification math: alpha(33330, 0.01) = {got:.12f} "
          f"within 1e-9 of extended precision; 1000-triple verdict table exact")


# ---------------------------------------------------------------------------
# 3. double-integrator case study at desk scale


def test_double_integrator_desk_quality_gate(tmp_path):
    started = time.monotonic()
    config = CONFIGS / "ex1_double_integrator_desk.json"
    run_cli("train", "--config", config, "--out", tmp_path / "run")
    run_cli("certify", "--config", config,
            "--checkpoint", tmp_path / "run" / "policy.json",
            "--out", tmp_path / "cert")
    run_cli("simulate", "--config", config,
            "--checkpoint", tmp_path / "run" / "policy.json",
            "--out", tmp_path / "sim")

    report = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    assert report["r"] >= 500
    assert report["mu_tilde"] >= 0.95

    _, states = read_csv(tmp_path / "sim" / "sim_states.csv")
    runs = int(states[:, 0].max()) + 1
    steps = int(states[:, 1].max())
    traj = states[:, 2:4].reshape(runs, steps + 1, 2)
    infnorm = np.abs(traj).max(axis=2)
    reached = (infnorm <= 0.5).any(axis=1)
    settled = infnorm[:, -1] <= 0.5
    assert reached.mean() >= 0.95
    assert settled.all(), f"unstable mode not contained: {infnorm[:, -1].max()}"

    _, actions = read_csv(tmp_path / "sim" / "sim_actions.csv")
    worst_u = np.abs(actions[:, 2]).max()
    assert worst_u <= 1.0 + 1e-6

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(f"PASS double integrator desk: mu~ {report['mu_tilde']:.4f} >= 0.95 "
          f"on r={report['r']}, reach {reached.mean():.0%}, "
          f"worst final |x|inf {infnorm[:, -1].max():.4f}, "
          f"max |u| {worst_u:.3f} <= 1+1e-6, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. obstacle-avoidance case study at desk scale


def test_obstacle_desk_quality_gate(tmp_path):
    started = time.monotonic()
    config = CONFIGS / "ex3_obstacle_desk.json"
    run_cli("train", "--config", config, "--out", tmp_path / "run")

    cfg = load_config(config)
    policy = pol.load_checkpoint(tmp_path / "run" / "policy.json")
    scen = sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon,
                            cfg.seed)
    _, _, test = split(scen, cfg.splits)
    x0 = np.repeat(test.x0, test.s, axis=0)
    xi = np.repeat(test.xi, test.s, axis=0)
    omega = np.tile(test.omega, (test.m, 1, 1))
    flat = policy.weights
    states, _ = dyn.rollout_tensors(
        cfg.model, lambda z: pol.apply_layers(flat, policy.arch, z),
        x0, xi, omega, cfg.mode)
    stacked = states  # (b, N+1, n_x)

    keep_out = next(c for c in cfg.constraints.state
                    if isinstance(c, EllipseKeepOut))
    residuals = keep_out.residuals(stacked, xi)  # (b, N+1, 1), every step
    clear = np.all(residuals <= 0.0, axis=(1, 2))
    target = xi[:, 0:2]
    in_ball = np.linalg.norm(stacked[:, -1] - target, axis=1) <= 0.5
    ok = clear & in_ball

    elapsed = time.monotonic() - started
    assert ok.mean() >= 0.90, (clear.mean(), in_ball.mean())
    assert elapsed < 1200.0
    print(f"PASS obstacle desk: {ok.mean():.2%} of {ok.size} held-out "
          f"trajectories clear the obstacle at every step and end within "
          f"0.5 of the target (obstacle {clear.mean():.2%}, "
          f"ball {in_ball.mean():.2%}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. policy evaluation vs online solve, single-threaded


def test_policy_beats_online_solver_by_5x(tmp_path):
    config = CONFIGS / "ex2_quadcopter_desk.json"
    cfg = load_config(config)
    assert (cfg.model.n_x, cfg.model.n_u, cfg.horizon) == (12, 4, 10)
    run_cli("train", "--config", config, "--out", tmp_path / "run")
    run_cli("benchmark", "--config", config,
            "--checkpoint", tmp_path / "run" / "policy.json",
            "--out", tmp_path / "bench", "--threads", 1)
    header, rows = read_csv(tmp_path / "bench" / "benchmark.csv")
    ratio = rows[:, header.index("ratio")]
    policy_us = rows[:, header.index("policy_ns_mean")].mean() / 1e3
    solver_us = rows[:, header.index("baseline_ns_mean")].mean() / 1e3
    assert ratio.mean() >= 5.0
    print(f"PASS timing: policy forward {policy_us:.0f}us vs online solve "
          f"{solver_us:.0f}us single-threaded, ratio mean {ratio.mean():.0f} "
          f"(min {ratio.min():.0f}) >= 5")


# ---------------------------------------------------------------------------
# 6. parameter count of the 12-state tracking architecture


def test_quadcopter_parameter_count():
    count = pol.param_count(pol.PolicyArchitecture(12, (100, 100), 40))
    assert count == 15440
    print(f"PASS parameter count: 12 -> [100, 100] -> 40 has {count} "
          f"trainable parameters (expected 15440)")


# ---------------------------------------------------------------------------
# 7. core property suite, re-checked in one place


def test_core_property_rollup():
    # open-loop rollouts superpose (linear dynamics): a full-horizon rollout
    # whose policy emits a fixed plan, rolls a, b and a + b in one batch
    gen = np.random.default_rng(11)
    model = dyn.LinearSystem(np.array([[1.2, 1.0], [0.0, 1.0]]),
                             np.array([[1.0], [0.5]]))
    x0a, x0b = gen.normal(size=2), gen.normal(size=2)
    ua, ub = gen.normal(size=(4, 1)), gen.normal(size=(4, 1))
    wa, wb = gen.normal(size=(4, 2)), gen.normal(size=(4, 2))
    plans = np.stack([ua, ub, ua + ub]).reshape(3, -1)
    rolled, _ = dyn.rollout_tensors(
        model, lambda z: plans, np.stack([x0a, x0b, x0a + x0b]), None,
        np.stack([wa, wb, wa + wb]), dyn.FULL_HORIZON)
    ta, tb, tsum = rolled
    sup_err = np.abs(tsum - (ta + tb)).max()
    assert sup_err <= 1e-10
    # and the condensed rollout replays through x' = A x + B u + w
    for x0, u, w, states in ((x0a, ua, wa, ta), (x0b, ub, wb, tb)):
        for k in range(4):
            pred = model.A @ states[k] + model.B @ u[k] + w[k]
            assert np.abs(states[k + 1] - pred).max() <= 1e-12
        assert np.array_equal(states[0], x0)

    # loss is nonnegative and penalties vanish exactly inside the sets
    objective = StageObjective(kind="stabilization")
    constraints = ConstraintSet(
        state=[BoxConstraint((-5.0, -5.0), (5.0, 5.0))],
        inputs=[BoxConstraint((-5.0,), (5.0,))],
        terminal=BoxConstraint((-5.0, -5.0), (5.0, 5.0)))
    weights = LossWeights(Q_x=1.0, Q_u=0.1, Q_h=10.0, Q_g=10.0, Q_f=1.0)
    arch = pol.PolicyArchitecture(2, (4,), 1, seed=3)
    policy = pol.init_policy(arch)
    x0 = gen.uniform(-0.5, 0.5, size=(3, 2))
    omega = gen.normal(0.0, 0.01, size=(3, 2, 2))
    flat = policy.weights
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(flat, arch, z),
        x0, None, omega, dyn.STATE_FEEDBACK)
    parts = obj.total_loss(states, actions, None, objective, constraints, weights)
    assert parts.total.item() >= 0.0
    assert parts.state.item() == 0.0 and parts.inputs.item() == 0.0

    # decomposition: total is exactly the sum of its published parts
    vals = parts.floats()
    decomp_err = abs(vals["total"] - (vals["objective"] + vals["state"]
                                      + vals["inputs"] + vals["terminal"]))
    assert decomp_err <= 1e-12

    # optimizer single-step hand value
    cfg = tr.TrainConfig(epochs=1, lr=0.01, weight_decay=0.0)
    theta = np.array([1.0])
    tr.adamw_step(theta, np.array([1.0]), tr.AdamWState.like(theta), cfg)
    adam_err = abs(theta[0] - 0.9900000001)
    assert adam_err < 1e-12

    # scenario sampling is bit-exact reproducible
    cfg1 = load_config(CONFIGS / "ex1_double_integrator_desk.json")
    a = sample_scenarios(cfg1.params, cfg1.noise, 10, 3, cfg1.horizon, 5)
    b = sample_scenarios(cfg1.params, cfg1.noise, 10, 3, cfg1.horizon, 5)
    assert np.array_equal(a.x0, b.x0) and np.array_equal(a.omega, b.omega)

    # unconstrained quadratic baseline matches its normal-equations solution
    A, B = model.A, model.B
    Q_x, Q_u, Q_f = 1.0, 0.1, 5.0
    x0v = np.array([1.0, 0.5])
    M = np.zeros((6, 2))
    c = np.zeros(6)
    M[0:2, 0] = B[:, 0]
    c[0:2] = A @ x0v
    M[2, 0] = 1.0
    M[3, 1] = 1.0
    M[4:6, 0] = (A @ B)[:, 0]
    M[4:6, 1] = B[:, 0]
    c[4:6] = A @ A @ x0v
    w = np.sqrt(np.array([Q_x, Q_x, Q_u, Q_u, Q_f, Q_f]))
    u_star, *_ = np.linalg.lstsq(w[:, None] * M, -w * c, rcond=None)
    res = bl.solve(model, x0v, None, 2, StageObjective(kind="stabilization"),
                   ConstraintSet(), LossWeights(Q_x=Q_x, Q_u=Q_u, Q_f=Q_f),
                   bl.SolverConfig(max_iters=2000, tol=1e-8))
    lq_err = np.abs(res.actions.flatten() - u_star).max()
    assert res.converged and lq_err <= 1e-6

    print(f"PASS property rollup: superposition {sup_err:.1e} <= 1e-10, "
          f"penalties exactly zero inside sets, decomposition {decomp_err:.1e} "
          f"<= 1e-12, optimizer step {adam_err:.1e} <= 1e-12, sampling "
          f"bit-exact, LQ-vs-normal-equations {lq_err:.1e} <= 1e-6")


# ---------------------------------------------------------------------------
# 8. training determinism


def test_training_is_deterministic(tmp_path):
    config = CONFIGS / "ex1_double_integrator_desk.json"
    run_cli("train", "--config", config, "--out", tmp_path / "a")
    run_cli("train", "--config", config, "--out", tmp_path / "b")
    history_same = ((tmp_path / "a" / "history.csv").read_bytes()
                    == (tmp_path / "b" / "history.csv").read_bytes())
    policy_same = ((tmp_path / "a" / "policy.json").read_bytes()
                   == (tmp_path / "b" / "policy.json").read_bytes())
    assert history_same and policy_same
    print("PASS determinism: two identical train runs produced byte-identical "
          "history.csv and policy.json")
