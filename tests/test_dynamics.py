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


def step(model, x, u, w):
    """One plant update as an N=1 state-feedback rollout whose policy returns ``u``.

    Takes single vectors or (b, .) batches and returns x_1 in the same rank.
    """
    single = np.ndim(x) == 1
    x, u, w = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x, u, w))
    states, _ = dyn.rollout_tensors(model, lambda z: ad.as_tensor(u), x, None,
                                    w[:, None, :], dyn.STATE_FEEDBACK, u.shape[1])
    return states.values[0, 1] if single else states.values[:, 1]


def rollout(model, policy, mode, x0, xi, omega):
    """Eager rollout of one scenario; returns states (N+1, n_x) and actions (N, n_u)."""
    states, actions = dyn.rollout_tensors(
        model, lambda z: pol.apply_layers(policy.layers, z),
        np.atleast_2d(np.asarray(x0, dtype=float)),
        None if xi is None else np.atleast_2d(xi), np.asarray(omega)[None], mode, model.n_u)
    return states.values[0], actions.values[0]


def open_loop(model, x0, actions, omega):
    """States (N+1, n_x) under a fixed action sequence (N, n_u): a full-horizon
    rollout whose policy ignores its input and emits the given plan."""
    plan = ad.as_tensor(np.asarray(actions, dtype=float).reshape(1, -1))
    states, _ = dyn.rollout_tensors(model, lambda z: plan, np.atleast_2d(x0), None,
                                    np.asarray(omega)[None], dyn.FULL_HORIZON, model.n_u)
    return states.values[0]


def fixed_inputs(model, x0, actions, omega):
    """The same through the state-feedback recursion: the policy plays
    ``actions`` in order, whatever the state."""
    queue = iter(np.asarray(actions, dtype=float))
    states, _ = dyn.rollout_tensors(model, lambda z: ad.as_tensor(next(queue)[None]),
                                    np.atleast_2d(x0), None, np.asarray(omega)[None],
                                    dyn.STATE_FEEDBACK, model.n_u)
    return states.values[0]


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
    with pytest.raises(ValueError, match="mode"):
        dyn.simulate(double_integrator, zero_policy(2, 1), "open-loop", np.zeros((1, 2)),
                     None, np.zeros((1, 2, 2)))


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
    ref_states, ref_actions = rollout(double_integrator, p, dyn.STATE_FEEDBACK, [0.4, -0.2],
                                      None, np.zeros((6, 2)))
    states, actions = dyn.simulate(double_integrator, p, dyn.STATE_FEEDBACK,
                                   np.array([[0.4, -0.2]]), None, np.zeros((1, 6, 2)))
    np.testing.assert_allclose(states[0], ref_states, atol=1e-12)
    np.testing.assert_allclose(actions[0], ref_actions, atol=1e-12)


def test_receding_horizon_replans_full_horizon(double_integrator):
    p = pol.init_policy(pol.PolicyArchitecture(2, (6,), 4, seed=14))  # plans 4 steps
    states, actions = dyn.simulate(double_integrator, p, dyn.FULL_HORIZON,
                                   np.array([[0.2, 0.1]]), None, np.zeros((1, 3, 2)))
    assert states.shape == (1, 4, 2) and actions.shape == (1, 3, 1)
    for k in range(3):
        plan = pol.action_sequence(p, states[0, k], None, n_u=1)
        np.testing.assert_allclose(actions[0, k], plan[0], atol=1e-14)


def test_receding_horizon_single_step(double_integrator):
    p = zero_policy(2, 1)
    states, actions = dyn.simulate(double_integrator, p, dyn.STATE_FEEDBACK,
                                   np.array([[1.0, 1.0]]), None, np.zeros((1, 1, 2)))
    assert states.shape == (1, 2, 2) and actions.shape == (1, 1, 1)
    np.testing.assert_allclose(states[0, 1], [2.2, 1.0], atol=1e-15)


@pytest.mark.parametrize("name", CONFIGS)
def test_simulate_matches_numpy_per_run_loop(name):
    # the batched simulation against one run and one vector at a time, with
    # each decision from the deployed single-input forward pass
    from spdpc.config import load_config
    cfg = load_config(REPO / "configs" / f"{name}.json")
    model, n_u, full = cfg.model, cfg.model.n_u, cfg.mode == dyn.FULL_HORIZON
    policy = pol.init_policy(cfg.arch)
    gen = np.random.default_rng(31)
    count, steps = 3, 7
    x0 = np.stack([cfg.params.x0.draw(gen) for _ in range(count)])
    xi = np.stack([cfg.params.draw_xi(gen) for _ in range(count)])
    omega = np.stack([cfg.noise.draw(gen, steps) for _ in range(count)])
    states, actions = dyn.simulate(model, policy, cfg.mode, x0,
                                   xi if xi.shape[1] else None, omega)
    ref_states = np.zeros_like(states)
    ref_actions = np.zeros_like(actions)
    for c in range(count):
        ref_states[c, 0] = x = x0[c]
        for k in range(steps):
            u = (pol.action_sequence(policy, x, xi[c], n_u)[0] if full
                 else pol.forward(policy, x))
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
    p = pol.init_policy(pol.PolicyArchitecture(2, (), 1))
    p.layers = [(np.full((1, 2), 1e200), np.zeros(1))]
    x0 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        x, first = x0[1], None
        for k in range(1, 7):
            x = double_integrator.A @ x + double_integrator.B @ (p.layers[0][0] @ x)
            if first is None and not np.all(np.isfinite(x)):
                first = k
    assert first is not None
    with pytest.raises(ValueError, match=f"run 1 left the floats at step {first}$"):
        dyn.simulate(double_integrator, p, dyn.STATE_FEEDBACK, x0, None, np.zeros((3, 6, 2)))
