from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import dynamics as dyn
from spdpc import policy as pol
from spdpc.config import ConfigError, load_config

REPO = Path(__file__).resolve().parents[1]


def make_model(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dyn.LinearSystem(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


@pytest.fixture
def double_integrator():
    return make_model([[1.2, 1.0], [0.0, 1.0]], [[1.0], [0.5]])


def zero_policy(n_in, n_out):
    arch = pol.PolicyArchitecture(n_in, (4,), n_out)
    return pol.MlpPolicy(arch, np.zeros(pol.param_count(arch)))


def step(model, x, u, w):
    """One plant update as an N=1 state-feedback rollout whose policy returns ``u``.

    Takes single vectors or (b, .) batches and returns x_1 in the same rank.
    """
    single = np.ndim(x) == 1
    x, u, w = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, u, w))
    states, _ = dyn.rollout_tensors(model, lambda z: u, x, None,
                                    w[:, None, :], dyn.STATE_FEEDBACK)
    return states[0, 1] if single else states[:, 1]


def rollout(model, policy, mode, x0, xi, omega):
    """Eager rollout of one scenario; returns states (N+1, n_x) and actions (N, n_u)."""
    flat = policy.weights
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(flat, policy.arch, z),
        np.atleast_2d(np.asarray(x0, dtype=float)),
        None if xi is None else np.atleast_2d(xi), np.asarray(omega)[None], mode)
    return states[0], actions[0]


def open_loop(model, x0, actions, omega):
    """States (N+1, n_x) under a fixed action sequence (N, n_u): a full-horizon
    rollout whose policy ignores its input and emits the given plan."""
    plan = np.asarray(actions, dtype=float).reshape(1, -1)
    states, _ = dyn.rollout_tensors(model, lambda z: plan, np.atleast_2d(x0), None,
                                    np.asarray(omega)[None], dyn.FULL_HORIZON)
    return states[0]


def fixed_inputs(model, x0, actions, omega):
    """The same through the state-feedback recursion: the policy plays
    ``actions`` in order, whatever the state."""
    queue = iter(np.asarray(actions, dtype=float))
    states, _ = dyn.rollout_tensors(model, lambda z: next(queue)[None],
                                    np.atleast_2d(x0), None, np.asarray(omega)[None],
                                    dyn.STATE_FEEDBACK)
    return states[0]


def _recursion(model, x0, actions, omega):
    """x' = A x + B u + w, one step at a time, over a batch."""
    states = [x0]
    for k in range(actions.shape[1]):
        states.append(states[k] @ model.A.T + actions[:, k] @ model.B.T + omega[:, k])
    return np.stack(states, axis=1)


CONFIGS = sorted(p.stem for p in (REPO / "configs").glob("ex*.json"))


# ---------------------------------------------------------------------------
# step

def test_step_drift_only():
    m = make_model([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])
    out = step(m, [1.0, 0.0], [0.0], [0.0, 0.0])
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_step_pure_disturbance():
    m = make_model(np.zeros((2, 2)), [[1.0], [0.0]])
    out = step(m, [0.0, 0.0], [0.0], [0.3, -0.7])
    np.testing.assert_array_equal(out, [0.3, -0.7])


def test_step_matches_hand_value(double_integrator):
    out = step(double_integrator, [1.0, 1.0], [-1.0], [0.0, 0.0])
    np.testing.assert_allclose(out, [1.2, 0.5], atol=1e-15)


def test_step_batched_matches_single(double_integrator):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 2))
    us = rng.normal(size=(5, 1))
    ws = rng.normal(size=(5, 2))
    batch = step(double_integrator, xs, us, ws)
    for k in range(5):
        single = step(double_integrator, xs[k], us[k], ws[k])
        np.testing.assert_allclose(batch[k], single, atol=1e-14)


# ---------------------------------------------------------------------------
# model validation

def test_uncontrollable_pair_warns():
    with pytest.warns(UserWarning, match="not controllable"):
        dyn.LinearSystem(np.eye(2), np.array([[1.0], [0.0]]))


def test_controllable_pair_does_not_warn(recwarn):
    dyn.LinearSystem(np.array([[1.2, 1.0], [0.0, 1.0]]), np.array([[1.0], [0.5]]))
    assert not any("controllable" in str(w.message) for w in recwarn.list)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError, match="square"):
        dyn.LinearSystem(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="n_u"):
        dyn.LinearSystem(np.eye(2), np.ones((3, 1)))


def test_load_model_round_trip(tmp_path):
    """ex3 desk with its inline model moved into a fixture file loads the same plant."""
    table = json.loads((REPO / "configs" / "ex3_obstacle_desk.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps(table["model"]))
    table["model"] = {"file": "model.json"}
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(table))
    m = load_config(path).model
    assert m.n_x == 2 and m.n_u == 2
    assert np.array_equal(m.A, [[1.0, 0.1], [0.0, 1.0]]) and np.array_equal(m.B, np.eye(2))
    (tmp_path / "model.json").write_text('{"A": [[1.0]]}')
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(tmp_path / 'model.json'))}: "
                                          r"B: missing$"):
        load_config(path)


def test_quadcopter_fixture_loads_and_is_controllable():
    m = load_config(REPO / "configs" / "ex2_quadcopter_desk.json").model
    assert (m.n_x, m.n_u) == (12, 4)
    assert dyn.controllability_rank(m.A, m.B) == 12


# ---------------------------------------------------------------------------
# noise

def test_zero_noise():
    spec = dyn.NoiseSpec("zero", [0.0, 0.0])
    assert not spec.draw(np.random.default_rng(0), 10).any()


def test_gaussian_default_bound_and_truncation():
    spec = dyn.NoiseSpec("gaussian", [0.5, 0.5])
    assert spec.bound == pytest.approx(2.0)
    w = spec.draw(np.random.default_rng(1), 20000)
    assert np.abs(w).max() <= 2.0
    # surrogate for zero mean: |mean| <= 4 sigma / sqrt(n)
    assert np.all(np.abs(w.mean(axis=0)) <= 4 * 0.5 / np.sqrt(20000))


class _Replay:
    """A generator stand-in whose ``normal`` returns fixed standard-normal values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def normal(self, loc, scale, size):
        assert (loc, scale) == (0.0, 1.0)
        return self.values.reshape(size)


def test_truncation_is_np_clip_bit_for_bit():
    spec = dyn.NoiseSpec("gaussian", [1.0, 1.0])
    b = spec.bound
    edges = np.array([0.0, -0.0, b, -b, np.nextafter(b, np.inf), np.nextafter(-b, -np.inf),
                      np.nextafter(b, 0.0), np.nextafter(-b, 0.0), 1e300, -1e300])
    got = spec.draw(_Replay(edges), edges.size // 2)
    assert got.tobytes() == np.clip(edges, -b, b).reshape(-1, 2).tobytes()
    assert list(np.signbit(got.reshape(-1))[:2]) == [False, True]
    for bound, scale in ((2.0, [0.5, 0.5]), (0.3, [0.2, 1.5])):
        spec = dyn.NoiseSpec("gaussian", scale, bound=bound)
        got = spec.draw(np.random.default_rng(31), 50000)
        raw = np.random.default_rng(31).normal(0.0, 1.0, size=(50000, 2)) * spec.scale
        assert got.tobytes() == np.clip(raw, -bound, bound).tobytes()
        assert 0 < np.count_nonzero(np.abs(raw) > bound) < raw.size


def test_gaussian_bound_disabled():
    spec = dyn.NoiseSpec("gaussian", [1.0], bound=None)
    w = spec.draw(np.random.default_rng(2), 100000)
    assert np.abs(w).max() > 4.0  # untruncated tails exceed 4 sigma eventually


def test_uniform_support():
    spec = dyn.NoiseSpec("uniform", [0.2, 0.1])
    w = spec.draw(np.random.default_rng(3), 5000)
    assert np.abs(w[:, 0]).max() <= 0.2
    assert np.abs(w[:, 1]).max() <= 0.1


def test_noise_validation():
    with pytest.raises(ValueError, match="kind"):
        dyn.NoiseSpec("laplace", [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        dyn.NoiseSpec("gaussian", [-1.0])
    with pytest.raises(ValueError, match="positive"):
        dyn.NoiseSpec("gaussian", [1.0], bound=0.0)


# ---------------------------------------------------------------------------
# rollouts

def test_zero_policy_zero_noise_stays_at_origin(double_integrator):
    p = zero_policy(2, 1)
    states, actions = rollout(double_integrator, p, dyn.STATE_FEEDBACK, [0.0, 0.0], None,
                              np.zeros((3, 2)))
    assert not states.any()
    assert not actions.any()


def test_drift_hold_point():
    m = make_model([[1.0, 0.1], [0.0, 1.0]], np.eye(2))
    p = zero_policy(2, 2)
    states, _ = rollout(m, p, dyn.STATE_FEEDBACK, [1.0, 0.0], None, np.zeros((2, 2)))
    np.testing.assert_array_equal(states, [[1.0, 0.0]] * 3)


def test_rollout_shapes(double_integrator):
    p = zero_policy(2, 1)
    states, actions = rollout(double_integrator, p, dyn.STATE_FEEDBACK, [1.0, -1.0], None,
                              np.zeros((3, 2)))
    assert states.shape == (4, 2)
    assert actions.shape == (3, 1)


def test_trajectory_reconstruction_residual(double_integrator):
    # replaying the stored actions and noise through x' = A x + B u + w
    # reproduces every state
    arch = pol.PolicyArchitecture(2, (8,), 1, seed=4)
    p = pol.init_policy(arch)
    omega = dyn.NoiseSpec("gaussian", [0.1, 0.1]).draw(np.random.default_rng(4), 5)
    states, actions = rollout(double_integrator, p, dyn.STATE_FEEDBACK, [1.0, 2.0], None, omega)
    for k in range(5):
        pred = (double_integrator.A @ states[k] + double_integrator.B @ actions[k]
                + omega[k])
        assert np.abs(states[k + 1] - pred).max() <= 1e-12


def test_full_horizon_rollout_applies_plan(double_integrator):
    arch = pol.PolicyArchitecture(2, (6,), 3, seed=8)  # N=3 actions of width 1
    p = pol.init_policy(arch)
    x0 = np.array([0.5, -0.5])
    omega = np.random.default_rng(5).normal(0, 0.1, size=(3, 2))
    states, actions = rollout(double_integrator, p, dyn.FULL_HORIZON, x0, None, omega)
    plan = pol.action_sequence(p, x0, None, n_u=1)
    np.testing.assert_allclose(actions, plan, atol=1e-14)
    replay = _recursion(double_integrator, x0[None], plan[None], omega[None])[0]
    np.testing.assert_allclose(states, replay, atol=1e-14)


def test_full_horizon_passes_xi_to_policy(double_integrator):
    arch = pol.PolicyArchitecture(4, (6,), 2, seed=9)  # input x0 (2) + xi (2)
    p = pol.init_policy(arch)
    xi = np.array([0.3, 0.7])
    _, actions = rollout(double_integrator, p, dyn.FULL_HORIZON, [1.0, 0.0], xi,
                         np.zeros((2, 2)))
    plan = pol.action_sequence(p, [1.0, 0.0], xi, n_u=1)
    np.testing.assert_allclose(actions, plan, atol=1e-14)


def test_full_horizon_width_mismatch_rejected(double_integrator):
    arch = pol.PolicyArchitecture(2, (4,), 5, seed=1)  # 5 is not 3 * n_u
    p = pol.init_policy(arch)
    with pytest.raises(ValueError, match="width"):
        rollout(double_integrator, p, dyn.FULL_HORIZON, [0.0, 0.0], None, np.zeros((3, 2)))


def test_unknown_mode_rejected(double_integrator):
    with pytest.raises(ValueError, match="mode"):
        rollout(double_integrator, zero_policy(2, 1), "open-loop", [0.0, 0.0], None,
                np.zeros((2, 2)))


@pytest.mark.parametrize("mode", dyn.MODES)
def test_taped_pair_rollout_rejected(double_integrator, mode):
    # pairs gathers rows in numpy, off the tape, so a taped policy is refused
    horizon = 3
    arch = pol.PolicyArchitecture(2, (4,), horizon if mode == dyn.FULL_HORIZON else 1, seed=1)
    flat = ad.Tape().param(pol.init_policy(arch).weights)
    pairs = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="pairs"):
        dyn.rollout_tensors(double_integrator, lambda z: pol.apply_layers(flat, arch, z),
                            np.zeros((2, 2)), None, np.zeros((2, horizon, 2)), mode,
                            pairs=pairs)


def test_open_loop_superposition(double_integrator):
    # rollouts under fixed inputs superpose (linear dynamics), on the
    # condensed path and on the step recursion alike
    rng = np.random.default_rng(6)
    x0a, x0b = rng.normal(size=2), rng.normal(size=2)
    ua, ub = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
    wa, wb = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    for roll in (open_loop, fixed_inputs):
        ta = roll(double_integrator, x0a, ua, wa)
        tb = roll(double_integrator, x0b, ub, wb)
        tsum = roll(double_integrator, x0a + x0b, ua + ub, wa + wb)
        np.testing.assert_allclose(tsum, ta + tb, rtol=0, atol=1e-10)


def test_rollout_gradient_matches_fd(double_integrator):
    # d(terminal state component)/d(theta) through a 2-step rollout
    arch = pol.PolicyArchitecture(2, (5,), 1, seed=12)
    p = pol.init_policy(arch)
    x0 = np.array([[0.8, -0.3]])
    omega = np.random.default_rng(7).normal(0, 0.05, size=(1, 2, 2))

    def terminal_states(flat):
        states, _ = dyn.rollout_tensors(
            double_integrator,
            lambda z: pol.apply_layers(flat, arch, z),
            x0, None, omega, dyn.STATE_FEEDBACK,
        )
        return states

    flat0 = p.weights
    tape = ad.Tape()
    flat = tape.param(flat0)
    root = ad.reduce_sum(ad.narrow(ad.narrow(terminal_states(flat), 1, 2, 3), 2, 0, 1))
    grads = ad.unpack(tape.backward(root)[flat.node], arch.layer_dims)

    h = 1e-6
    for (w0, _), (analytic, _) in zip(ad.unpack(flat0, arch.layer_dims), grads):
        numeric = np.zeros_like(w0)
        for idx in np.ndindex(*w0.shape):
            old = w0[idx]
            w0[idx] = old + h
            hi = terminal_states(flat0)[0, -1, 0]
            w0[idx] = old - h
            lo = terminal_states(flat0)[0, -1, 0]
            w0[idx] = old
            numeric[idx] = (hi - lo) / (2 * h)
        err = np.abs(analytic - numeric)
        assert np.all(err <= np.maximum(1e-5, 1e-4 * np.abs(numeric)))


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("mode", dyn.MODES)
def test_block_rollout_matches_step_recursion(name, mode):
    from spdpc.config import load_config
    cfg = load_config(REPO / "configs" / f"{name}.json")
    model, horizon = cfg.model, cfg.horizon
    n_x, n_u = model.n_x, model.n_u
    gen = np.random.default_rng(21)
    batch = 7
    x0 = gen.uniform(-2.0, 2.0, size=(batch, n_x))
    omega = gen.normal(0.0, 0.1, size=(batch, horizon, n_x))
    full = mode == dyn.FULL_HORIZON
    arch = pol.PolicyArchitecture(n_x, (16,), horizon * n_u if full else n_u, seed=5)
    policy = pol.init_policy(arch)
    flat = policy.weights
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(flat, arch, z), x0, None, omega, mode)
    # an array-returning policy gives an untaped rollout of plain ndarrays
    assert type(states) is np.ndarray and type(actions) is np.ndarray
    assert states.shape == (batch, horizon + 1, n_x)
    assert actions.shape == (batch, horizon, n_u)
    np.testing.assert_array_equal(states[:, 0], x0)
    if full:
        plan = pol.forward(policy, x0).reshape(batch, horizon, n_u)
        np.testing.assert_array_equal(actions, plan)
    replay = _recursion(model, x0, actions, omega)
    err = np.abs(states - replay).max()
    assert err <= 1e-12 * np.abs(replay).max(), err


def test_prediction_matrices_hand_value(double_integrator):
    phi, gamma, gamma_w = double_integrator.prediction(2)
    A, B = double_integrator.A, double_integrator.B
    np.testing.assert_allclose(phi, np.vstack([A, A @ A]), atol=1e-15)
    expect = np.zeros((4, 2))
    expect[0:2, 0] = B[:, 0]
    expect[2:4, 0] = (A @ B)[:, 0]
    expect[2:4, 1] = B[:, 0]
    np.testing.assert_allclose(gamma, expect, atol=1e-15)
    np.testing.assert_array_equal(gamma_w[0:2, 2:4], 0.0)
    np.testing.assert_allclose(gamma_w[2:4, 0:2], A, atol=1e-15)
    assert double_integrator.prediction(2)[1] is gamma  # cached per horizon


# ---------------------------------------------------------------------------
# receding-horizon simulation

def test_receding_horizon_zero_noise_matches_rollout(double_integrator):
    p = pol.init_policy(pol.PolicyArchitecture(2, (8, 8), 1, seed=13))
    ref_states, ref_actions = rollout(double_integrator, p, dyn.STATE_FEEDBACK, [0.4, -0.2],
                                      None, np.zeros((6, 2)))
    states, actions = dyn.simulate(double_integrator, p,
                                   np.array([[0.4, -0.2]]), None, np.zeros((1, 6, 2)))
    np.testing.assert_allclose(states[0], ref_states, atol=1e-12)
    np.testing.assert_allclose(actions[0], ref_actions, atol=1e-12)


def test_simulate_returns_the_rollout_arrays(double_integrator, monkeypatch):
    rolled, roll = [], dyn.rollout_tensors

    def spy(*args):
        rolled.append(roll(*args))
        return rolled[-1]

    monkeypatch.setattr(dyn, "rollout_tensors", spy)
    p = pol.init_policy(pol.PolicyArchitecture(2, (8,), 1, seed=13))
    states, actions = dyn.simulate(double_integrator, p,
                                   np.array([[0.4, -0.2]]), None, np.zeros((1, 6, 2)))
    (want_states, want_actions), = rolled
    assert type(want_states) is np.ndarray and type(want_actions) is np.ndarray
    assert states is want_states and actions is want_actions


def test_receding_horizon_replans_full_horizon(double_integrator):
    p = pol.init_policy(pol.PolicyArchitecture(2, (6,), 4, seed=14))  # plans 4 steps
    states, actions = dyn.simulate(double_integrator, p,
                                   np.array([[0.2, 0.1]]), None, np.zeros((1, 3, 2)))
    assert states.shape == (1, 4, 2) and actions.shape == (1, 3, 1)
    for k in range(3):
        plan = pol.action_sequence(p, states[0, k], None, n_u=1)
        np.testing.assert_allclose(actions[0, k], plan[0], atol=1e-14)


def test_receding_horizon_single_step(double_integrator):
    p = zero_policy(2, 1)
    states, actions = dyn.simulate(double_integrator, p,
                                   np.array([[1.0, 1.0]]), None, np.zeros((1, 1, 2)))
    assert states.shape == (1, 2, 2) and actions.shape == (1, 1, 1)
    np.testing.assert_allclose(states[0, 1], [2.2, 1.0], atol=1e-15)


@pytest.mark.parametrize("name", [*CONFIGS, "state_feedback_xi"])
def test_simulate_matches_numpy_per_run_loop(name, request):
    # the batched simulation against one run and one vector at a time, with
    # each decision from the deployed single-input forward pass
    from spdpc.config import load_config
    cfg = load_config(request.getfixturevalue("state_feedback_xi_config")
                      if name == "state_feedback_xi" else REPO / "configs" / f"{name}.json")
    model, n_u, full = cfg.model, cfg.model.n_u, cfg.mode == dyn.FULL_HORIZON
    policy = pol.init_policy(cfg.arch)
    gen = np.random.default_rng(31)
    count, steps = 3, 7
    x0 = np.stack([cfg.params.x0.draw(gen) for _ in range(count)])
    xi = np.stack([cfg.params.draw_xi(gen) for _ in range(count)])
    omega = np.stack([cfg.noise.draw(gen, steps) for _ in range(count)])
    states, actions = dyn.simulate(model, policy, x0,
                                   xi if xi.shape[1] else None, omega)
    ref_states = np.zeros_like(states)
    ref_actions = np.zeros_like(actions)
    for c in range(count):
        ref_states[c, 0] = x = x0[c]
        for k in range(steps):
            u = (pol.action_sequence(policy, x, xi[c], n_u)[0] if full
                 else pol.forward(policy, x, xi[c]))
            x = model.A @ x + model.B @ u + omega[c, k]
            ref_actions[c, k], ref_states[c, k + 1] = u, x
    assert states.shape == (count, steps + 1, model.n_x)
    assert actions.shape == (count, steps, n_u)
    for got, want in ((states, ref_states), (actions, ref_actions)):
        err = np.abs(got - want).max()
        assert err <= 1e-12 * np.abs(want).max(), err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_simulate_names_the_run_and_step_that_leave_the_floats(double_integrator):
    # run 0 rests at the origin; runs 1 and 2 are driven by a gain of 1e200
    # until their states overflow, and the error names the first of them
    p = pol.MlpPolicy(pol.PolicyArchitecture(2, (), 1), np.array([1e200, 1e200, 0.0]))
    x0 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        x, first = x0[1], None
        for k in range(1, 7):
            x = double_integrator.A @ x + double_integrator.B @ (p.layers[0][0] @ x)
            if first is None and not np.all(np.isfinite(x)):
                first = k
    assert first is not None
    with pytest.raises(ValueError, match=f"run 1 left the floats at step {first}$"):
        dyn.simulate(double_integrator, p, x0, None, np.zeros((3, 6, 2)))
