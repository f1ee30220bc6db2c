from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import dynamics as dyn
from spdpc import policy as pol

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
    p = pol.init_policy(arch)
    p.layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
    return p


# ---------------------------------------------------------------------------
# step

def test_step_drift_only():
    m = make_model([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])
    out = dyn.step(m, [1.0, 0.0], [0.0], [0.0, 0.0])
    np.testing.assert_array_equal(out.values, [1.0, 0.0])


def test_step_pure_disturbance():
    m = make_model(np.zeros((2, 2)), [[1.0], [0.0]])
    out = dyn.step(m, [0.0, 0.0], [0.0], [0.3, -0.7])
    np.testing.assert_array_equal(out.values, [0.3, -0.7])


def test_step_matches_hand_value(double_integrator):
    out = dyn.step(double_integrator, [1.0, 1.0], [-1.0], [0.0, 0.0])
    np.testing.assert_allclose(out.values, [1.2, 0.5], atol=1e-15)


def test_step_batched_matches_single(double_integrator):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 2))
    us = rng.normal(size=(5, 1))
    ws = rng.normal(size=(5, 2))
    batch = dyn.step(double_integrator, xs, us, ws).values
    for k in range(5):
        single = dyn.step(double_integrator, xs[k], us[k], ws[k]).values
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
    path = tmp_path / "model.json"
    path.write_text('{"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}')
    m = dyn.load_model(path)
    assert m.n_x == 2 and m.n_u == 2
    with pytest.raises(ValueError, match="missing key"):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[1.0]]}')
        dyn.load_model(bad)


def test_quadcopter_fixture_loads_and_is_controllable():
    m = dyn.load_model(REPO / "configs" / "quadcopter_model.json")
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
    traj = dyn.rollout(double_integrator, p, dyn.STATE_FEEDBACK, [0.0, 0.0], None, np.zeros((3, 2)))
    assert not traj.states.any()
    assert not traj.actions.any()


def test_drift_hold_point():
    m = make_model([[1.0, 0.1], [0.0, 1.0]], np.eye(2))
    p = zero_policy(2, 2)
    traj = dyn.rollout(m, p, dyn.STATE_FEEDBACK, [1.0, 0.0], None, np.zeros((2, 2)))
    np.testing.assert_array_equal(traj.states, [[1.0, 0.0]] * 3)


def test_rollout_shapes(double_integrator):
    p = zero_policy(2, 1)
    traj = dyn.rollout(double_integrator, p, dyn.STATE_FEEDBACK, [1.0, -1.0], None, np.zeros((3, 2)))
    assert traj.states.shape == (4, 2)
    assert traj.actions.shape == (3, 1)


def test_trajectory_reconstruction_residual(double_integrator):
    arch = pol.PolicyArchitecture(2, (8,), 1, seed=4)
    p = pol.init_policy(arch)
    omega = dyn.NoiseSpec("gaussian", [0.1, 0.1]).draw(np.random.default_rng(4), 5)
    traj = dyn.rollout(double_integrator, p, dyn.STATE_FEEDBACK, [1.0, 2.0], None, omega)
    assert traj.reconstruction_residual(double_integrator) <= 1e-12


def test_full_horizon_rollout_applies_plan(double_integrator):
    arch = pol.PolicyArchitecture(2, (6,), 3, seed=8)  # N=3 actions of width 1
    p = pol.init_policy(arch)
    x0 = np.array([0.5, -0.5])
    omega = np.random.default_rng(5).normal(0, 0.1, size=(3, 2))
    traj = dyn.rollout(double_integrator, p, dyn.FULL_HORIZON, x0, None, omega)
    plan = pol.action_sequence(p, x0, None, n_u=1)
    np.testing.assert_allclose(traj.actions, plan, atol=1e-14)
    replay = dyn.rollout_open_loop(double_integrator, x0, plan, omega)
    np.testing.assert_allclose(traj.states, replay.states, atol=1e-14)


def test_full_horizon_passes_xi_to_policy(double_integrator):
    arch = pol.PolicyArchitecture(4, (6,), 2, seed=9)  # input x0 (2) + xi (2)
    p = pol.init_policy(arch)
    xi = np.array([0.3, 0.7])
    traj = dyn.rollout(double_integrator, p, dyn.FULL_HORIZON, [1.0, 0.0], xi, np.zeros((2, 2)))
    plan = pol.action_sequence(p, [1.0, 0.0], xi, n_u=1)
    np.testing.assert_allclose(traj.actions, plan, atol=1e-14)


def test_full_horizon_width_mismatch_rejected(double_integrator):
    arch = pol.PolicyArchitecture(2, (4,), 5, seed=1)  # 5 is not 3 * n_u
    p = pol.init_policy(arch)
    with pytest.raises(ValueError, match="width"):
        dyn.rollout(double_integrator, p, dyn.FULL_HORIZON, [0.0, 0.0], None, np.zeros((3, 2)))


def test_unknown_mode_rejected(double_integrator):
    with pytest.raises(ValueError, match="mode"):
        dyn.rollout(double_integrator, zero_policy(2, 1), "open-loop", [0.0, 0.0], None, np.zeros((2, 2)))


def test_open_loop_superposition(double_integrator):
    rng = np.random.default_rng(6)
    x0a, x0b = rng.normal(size=2), rng.normal(size=2)
    ua, ub = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
    wa, wb = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    ta = dyn.rollout_open_loop(double_integrator, x0a, ua, wa)
    tb = dyn.rollout_open_loop(double_integrator, x0b, ub, wb)
    tsum = dyn.rollout_open_loop(double_integrator, x0a + x0b, ua + ub, wa + wb)
    np.testing.assert_allclose(tsum.states, ta.states + tb.states, rtol=0, atol=1e-10)


def test_rollout_gradient_matches_fd(double_integrator):
    # d(terminal state component)/d(theta) through a 2-step rollout
    arch = pol.PolicyArchitecture(2, (5,), 1, seed=12)
    p = pol.init_policy(arch)
    x0 = np.array([[0.8, -0.3]])
    omega = np.random.default_rng(7).normal(0, 0.05, size=(1, 2, 2))

    def terminal_component(policy):
        states, _ = dyn.rollout_tensors(
            double_integrator,
            lambda z: pol.apply_layers(policy.layers, z),
            x0, None, omega, dyn.STATE_FEEDBACK, 1,
        )
        return states.values[0, -1, 0]

    tape = ad.Tape()
    layers = pol.taped_layers(tape, p)
    states, _ = dyn.rollout_tensors(
        double_integrator,
        lambda z: pol.apply_layers(layers, z),
        x0, None, omega, dyn.STATE_FEEDBACK, 1,
    )
    root = ad.reduce_sum(ad.narrow(ad.narrow(states, 1, 2, 3), 2, 0, 1))
    grads = tape.backward(root)

    h = 1e-6
    for li, (w0, b0) in enumerate(p.layers):
        analytic = grads[layers[li][0].node]
        numeric = np.zeros_like(w0)
        for idx in np.ndindex(*w0.shape):
            pert = [((w.copy(), b.copy())) for w, b in p.layers]
            pert[li][0][idx] = w0[idx] + h
            hi = terminal_component(pol.MlpPolicy(arch, pert))
            pert[li][0][idx] = w0[idx] - h
            lo = terminal_component(pol.MlpPolicy(arch, pert))
            numeric[idx] = (hi - lo) / (2 * h)
        err = np.abs(analytic - numeric)
        assert np.all(err <= np.maximum(1e-5, 1e-4 * np.abs(numeric)))


def _recursion(model, x0, actions, omega):
    """x' = A x + B u + w, one step at a time, over a batch."""
    states = [x0]
    for k in range(actions.shape[1]):
        states.append(states[k] @ model.A.T + actions[:, k] @ model.B.T + omega[:, k])
    return np.stack(states, axis=1)


@pytest.mark.parametrize("name", sorted(p.stem for p in (REPO / "configs").glob("ex*.json")))
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
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(policy.layers, z), x0, None, omega, mode, n_u)
    assert states.shape == (batch, horizon + 1, n_x)
    assert actions.shape == (batch, horizon, n_u)
    np.testing.assert_array_equal(states.values[:, 0], x0)
    if full:
        plan = pol.apply_layers(policy.layers, x0).values.reshape(batch, horizon, n_u)
        np.testing.assert_array_equal(actions.values, plan)
    replay = _recursion(model, x0, actions.values, omega)
    err = np.abs(states.values - replay).max()
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
    traj = dyn.rollout(double_integrator, p, dyn.STATE_FEEDBACK, [0.4, -0.2], None, np.zeros((6, 2)))
    states, actions = dyn.simulate_receding_horizon(
        double_integrator, p, dyn.STATE_FEEDBACK, [0.4, -0.2], None,
        lambda k: np.zeros(2), steps=6,
    )
    np.testing.assert_allclose(states, traj.states, atol=1e-12)
    np.testing.assert_allclose(actions, traj.actions, atol=1e-12)


def test_receding_horizon_replans_full_horizon(double_integrator):
    p = pol.init_policy(pol.PolicyArchitecture(2, (6,), 4, seed=14))  # plans 4 steps
    states, actions = dyn.simulate_receding_horizon(
        double_integrator, p, dyn.FULL_HORIZON, [0.2, 0.1], None,
        lambda k: np.zeros(2), steps=3,
    )
    assert states.shape == (4, 2) and actions.shape == (3, 1)
    for k in range(3):
        plan = pol.action_sequence(p, states[k], None, n_u=1)
        np.testing.assert_allclose(actions[k], plan[0], atol=1e-14)


def test_receding_horizon_single_step(double_integrator):
    p = zero_policy(2, 1)
    states, actions = dyn.simulate_receding_horizon(
        double_integrator, p, dyn.STATE_FEEDBACK, [1.0, 1.0], None,
        lambda k: np.zeros(2), steps=1,
    )
    assert states.shape == (2, 2) and actions.shape == (1, 1)
    np.testing.assert_allclose(states[1], [2.2, 1.0], atol=1e-15)
