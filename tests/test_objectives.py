from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc import trainer
from spdpc.config import load_config
from spdpc.sampling import sample_scenarios


def weights(**kw):
    return obj.LossWeights(**kw)


def const(*vals):
    return obj.Constant(tuple(vals))


def blocks(states, actions):
    """Per-step (b, n) arrays stacked into the (b, N+1, n_x) / (b, N, n_u) blocks."""
    return np.stack(states, axis=1), np.stack(actions, axis=1)


# ---------------------------------------------------------------------------
# weights and refs

def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="Q_h"):
        obj.LossWeights(Q_h=-1.0)


def test_xi_slice_resolves_columns():
    xi = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    got = obj.XiSlice(1, 3).resolve(xi, 2)
    np.testing.assert_array_equal(got, [[2.0, 3.0], [5.0, 6.0]])
    with pytest.raises(ValueError, match="too short"):
        obj.XiSlice(1, 5).resolve(xi, 2)


def test_constant_broadcasts():
    got = const(1.0, 2.0).resolve(None, 3)
    assert got.shape == (3, 2)
    np.testing.assert_array_equal(got[2], [1.0, 2.0])


# ---------------------------------------------------------------------------
# penalties: hand values

def test_state_box_penalty_hand_value():
    box = obj.BoxConstraint((-10.0, -10.0), (10.0, 10.0))
    r = box.residuals(np.array([11.0, 0.0]))
    assert obj.penalty(r, 10.0).item() == pytest.approx(10.0, abs=1e-12)


def test_input_box_penalty_hand_value():
    box = obj.BoxConstraint((-1.0,), (2.5,))
    r = box.residuals(np.array([3.0]))
    assert obj.penalty(r, 2.0).item() == pytest.approx(0.5, abs=1e-12)


def test_penalty_zero_inside_box_including_boundary():
    box = obj.BoxConstraint((-1.0,), (1.0,))
    assert obj.penalty(box.residuals(np.array([1.0])), 100.0).item() == 0.0
    assert obj.penalty(box.residuals(np.array([-1.0])), 100.0).item() == 0.0
    assert obj.penalty(box.residuals(np.array([0.3])), 100.0).item() == 0.0


def test_penalty_doubles_with_weight():
    box = obj.BoxConstraint((-1.0,), (1.0,))
    r = box.residuals(np.array([1.7]))
    assert obj.penalty(r, 20.0).item() == pytest.approx(2 * obj.penalty(r, 10.0).item(), rel=1e-15)


def test_contraction_penalty_hand_values():
    x = np.array([[1.0, 0.0]])

    def contraction_penalty(x, x_next, rate):
        return obj.penalty(obj.ContractionConstraint(rate).residuals(x, x_next), 1.0).item()

    assert contraction_penalty(x, x, 0.8) == pytest.approx(0.04, abs=1e-12)
    assert contraction_penalty(x, x, 0.9) == pytest.approx(0.01, abs=1e-12)
    shrunk = np.array([[0.8, 0.0]])
    assert contraction_penalty(x, shrunk, 0.8) == 0.0


def test_ball_residual_hand_values():
    ball = obj.BallConstraint(radius=5.0)
    r = ball.residuals(np.array([[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]])).values
    np.testing.assert_array_equal(r, [0.0, -5.0, 5.0])  # boundary residual is exactly 0
    assert obj.penalty(ball.residuals(np.array([[6.0, 8.0]])), 2.0).item() == 50.0


def test_ball_residual_with_parametric_center_and_margin():
    ball = obj.BallConstraint(radius=1.0, center=obj.XiSlice(1, 3), margin=0.5)
    xi = np.array([[9.0, 1.0, 1.0], [9.0, -2.0, 0.0]])
    block = np.array([[[1.0, 1.5], [1.0, 2.0]], [[-2.0, 0.0], [-2.0, 0.25]]])  # (b, steps, n)
    r = ball.residuals(block, xi).values
    np.testing.assert_allclose(r, [[-0.5, 0.0], [-1.0, -0.75]], atol=1e-15)
    # margin 0.5 tightens the penalty: relu(r + 0.5)^2 = 0 + 0.25 + 0 + 0
    assert obj.penalty(ball.residuals(block, xi), 1.0, ball.margin).item() == 0.25
    # the residual itself, which certification reads, ignores the margin
    assert np.all(r <= 0.0)


def test_ball_validation():
    for bad in (0.0, -1.0, float("inf")):
        with pytest.raises(ValueError, match="radius"):
            obj.BallConstraint(radius=bad)


def test_keepout_residual_hand_values():
    ell = obj.EllipseKeepOut(const(1.0), const(1.0), const(0.0), const(0.0))
    outside = ell.residuals(np.array([[2.0, 0.0]]))
    assert outside.values[0, 0] == pytest.approx(-3.0, abs=1e-12)
    boundary = ell.residuals(np.array([[1.0, 0.0]]))
    assert boundary.values[0, 0] == pytest.approx(0.0, abs=1e-12)
    inside = ell.residuals(np.array([[0.5, 0.0]]))
    assert inside.values[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert obj.penalty(inside, 100.0).item() == pytest.approx(56.25, abs=1e-10)


def test_keepout_reads_parameters_from_xi():
    ell = obj.EllipseKeepOut(
        obj.XiSlice(0, 1), obj.XiSlice(1, 2), obj.XiSlice(2, 3), obj.XiSlice(3, 4))
    xi = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 5.0, 0.0]])
    x = np.array([[0.5, 0.0], [5.0, 0.0]])
    r = ell.residuals(x, xi).values
    assert r[0, 0] == pytest.approx(0.75)
    assert r[1, 0] == pytest.approx(4.0)  # on-center with radius 2: 4 - 0 - 0


# ---------------------------------------------------------------------------
# stage costs: hand values

def test_stabilization_stage_cost_hand_value():
    w = weights(Q_x=5.0, Q_u=0.2)
    s = obj.StageObjective("stabilization")
    got = obj.stage_cost(s, w, np.array([[1.0, 1.0]]), np.array([[1.0]]))
    assert got.item() == pytest.approx(10.2, abs=1e-12)


def test_tracking_cost_zero_on_reference():
    w = weights(Q_r=3.0, Q_u=0.5)
    s = obj.StageObjective("tracking", reference=const(1.0, -1.0))
    got = obj.stage_cost(s, w, np.array([[1.0, -1.0]]), np.array([[2.0]]))
    assert got.item() == pytest.approx(0.5 * 4.0, abs=1e-12)


def test_split_tracking_zero_when_on_track_and_rest_zero():
    w = weights(Q_r=20.0, Q_x=5.0)
    s = obj.StageObjective("split-tracking", track_indices=(2,), reference=const(1.0))
    x = np.zeros((1, 4))
    x[0, 2] = 1.0
    got = obj.stage_cost(s, w, x, np.zeros((1, 2)))
    assert got.item() == pytest.approx(0.0, abs=1e-15)
    x[0, 0] = 2.0  # untracked component now costs Q_x * 4
    got = obj.stage_cost(s, w, x, np.zeros((1, 2)))
    assert got.item() == pytest.approx(20.0, abs=1e-12)


def test_objective_validation():
    with pytest.raises(ValueError, match="kind"):
        obj.StageObjective("minimum-time")
    with pytest.raises(ValueError, match="reference"):
        obj.StageObjective("tracking")
    with pytest.raises(ValueError, match="target"):
        obj.StageObjective("terminal-smoothing")


# ---------------------------------------------------------------------------
# total loss

def simple_constraints():
    return obj.ConstraintSet(
        state=[obj.BoxConstraint((-10.0, -10.0), (10.0, 10.0))],
        inputs=[obj.BoxConstraint((-1.0,), (1.0,))],
    )


def test_total_loss_single_step_hand_value():
    # One rollout, one step: stage cost 10.2, no violations, terminal at origin.
    w = weights(Q_x=5.0, Q_u=0.2, Q_h=10.0, Q_g=100.0, Q_f=1.0)
    states = np.array([[[1.0, 1.0], [0.0, 0.0]]])  # (b=1, N+1=2, n_x=2)
    actions = np.array([[[1.0]]])
    parts = obj.total_loss(states, actions, None, obj.StageObjective("stabilization"),
                           simple_constraints(), w)
    assert parts.total.item() == pytest.approx(10.2, abs=1e-12)
    assert parts.state.item() == 0.0
    assert parts.inputs.item() == 0.0
    assert parts.terminal.item() == 0.0


def test_total_loss_counts_terminal_and_penalties():
    w = weights(Q_x=1.0, Q_u=0.0, Q_h=2.0, Q_g=3.0, Q_f=4.0)
    cs = obj.ConstraintSet(
        state=[obj.BoxConstraint((-1.0, -1.0), (1.0, 1.0))],
        inputs=[obj.BoxConstraint((-0.5,), (0.5,))],
        terminal=obj.BoxConstraint((-0.1, -0.1), (0.1, 0.1)),
    )
    states = np.array([[[2.0, 0.0], [0.2, 0.0]]])
    actions = np.array([[[1.5]]])
    parts = obj.total_loss(states, actions, None, obj.StageObjective("stabilization"), cs, w)
    # stage: 4.0; state penalty: 2 * 1^2 = 2; input penalty: 3 * 1^2 = 3;
    # terminal: 4 * 0.04 + 4 * relu(0.2 - 0.1)^2 = 0.16 + 0.04
    assert parts.objective.item() == pytest.approx(4.0, abs=1e-12)
    assert parts.state.item() == pytest.approx(2.0, abs=1e-12)
    assert parts.inputs.item() == pytest.approx(3.0, abs=1e-12)
    assert parts.terminal.item() == pytest.approx(0.2, abs=1e-12)
    assert parts.total.item() == pytest.approx(9.2, abs=1e-12)


def test_terminal_smoothing_hand_value():
    w = weights(Q_r=1.0, Q_u=1.0, Q_du=1.0, Q_dx=1.0)
    s = obj.StageObjective("terminal-smoothing", target=const(1.0, 0.0))
    states = np.array([[[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]])
    actions = np.array([[[0.5, 0.0], [0.5, 0.0]]])
    parts = obj.total_loss(states, actions, None, s, obj.ConstraintSet(), w)
    # terminal distance 0; du increment 0; dx: 0.25 + 0.25; effort: 0.25 + 0.25
    # normalized by batch * N = 2
    assert parts.total.item() == pytest.approx(1.0 / 2.0, abs=1e-12)


def test_contraction_enters_state_bucket():
    w = weights(Q_c=1.0)
    cs = obj.ConstraintSet(contraction=obj.ContractionConstraint(0.8))
    states = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    actions = np.array([[[0.0]]])
    parts = obj.total_loss(states, actions, None, obj.StageObjective("stabilization"), cs, w)
    assert parts.state.item() == pytest.approx(0.04, abs=1e-12)


def test_zero_weight_penalty_records_no_tape_nodes():
    rng = np.random.default_rng(14)
    states, actions = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 3, 1))
    s = obj.StageObjective("stabilization")
    every = obj.ConstraintSet(state=[obj.BoxConstraint((-0.5, -0.5), (0.5, 0.5))],
                              inputs=[obj.BoxConstraint((-0.1,), (0.1,))],
                              contraction=obj.ContractionConstraint(0.5),
                              terminal=obj.BallConstraint(0.1))

    def taped(constraints, w):
        tape = ad.Tape()
        loss = obj.total_loss(tape.param(states), tape.param(actions), None, s, constraints, w)
        return len(tape.nodes), loss.total.item()

    bare = taped(obj.ConstraintSet(), weights(Q_x=1.0, Q_u=1.0))
    assert taped(every, weights(Q_x=1.0, Q_u=1.0)) == bare
    for name in ("Q_h", "Q_g", "Q_c", "Q_f"):
        nodes, loss = taped(every, weights(Q_x=1.0, Q_u=1.0, **{name: 1.0}))
        assert nodes > bare[0] and loss > bare[1], name


def test_loss_nonnegative_on_random_rollouts():
    rng = np.random.default_rng(11)
    w = weights(Q_x=5.0, Q_u=0.2, Q_h=10.0, Q_g=100.0, Q_f=1.0)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(1, 5))
        states, actions = blocks([rng.normal(scale=5, size=(b, 2)) for _ in range(n + 1)],
                                 [rng.normal(scale=2, size=(b, 1)) for _ in range(n)])
        parts = obj.total_loss(states, actions, None, obj.StageObjective("stabilization"),
                               simple_constraints(), w)
        assert parts.total.item() >= 0.0


def test_decomposition_sums_to_total():
    rng = np.random.default_rng(12)
    w = weights(Q_x=5.0, Q_u=0.2, Q_h=10.0, Q_g=100.0, Q_f=1.0)
    cs = simple_constraints()
    cs.terminal = obj.BoxConstraint((-0.1, -0.1), (0.1, 0.1))
    states, actions = blocks([rng.normal(scale=3, size=(4, 2)) for _ in range(4)],
                             [rng.normal(scale=2, size=(4, 1)) for _ in range(3)])
    parts = obj.total_loss(states, actions, None, obj.StageObjective("stabilization"), cs, w)
    f = parts.floats()
    assert abs(f["total"] - (f["objective"] + f["state"] + f["inputs"] + f["terminal"])) <= 1e-12


def test_batch_mean_consistency():
    rng = np.random.default_rng(13)
    w = weights(Q_x=5.0, Q_u=0.2, Q_h=10.0, Q_g=100.0, Q_f=1.0)
    cs = simple_constraints()
    s = obj.StageObjective("stabilization")
    sa = [rng.normal(size=(3, 2)) for _ in range(3)]
    aa = [rng.normal(size=(3, 1)) for _ in range(2)]
    sb = [rng.normal(size=(3, 2)) for _ in range(3)]
    ab = [rng.normal(size=(3, 1)) for _ in range(2)]
    ja = obj.total_loss(*blocks(sa, aa), None, s, cs, w).total.item()
    jb = obj.total_loss(*blocks(sb, ab), None, s, cs, w).total.item()
    union = blocks([np.vstack([x, y]) for x, y in zip(sa, sb)],
                   [np.vstack([x, y]) for x, y in zip(aa, ab)])
    ju = obj.total_loss(*union, None, s, cs, w).total.item()
    assert abs(ju - 0.5 * (ja + jb)) <= 1e-12


def test_mismatched_states_actions_rejected():
    with pytest.raises(ValueError, match="bracket"):
        obj.total_loss(np.zeros((1, 1, 2)), np.zeros((1, 1, 1)), None,
                       obj.StageObjective("stabilization"), obj.ConstraintSet(), weights())


def test_batch_from_trajectories_layout():
    # a batch of 4 rollouts is 4 batches of 1 stacked along the first axis,
    # so the loss reads one layout whatever the batch size
    m = dyn.LinearSystem(np.array([[1.2, 1.0], [0.0, 1.0]]), np.array([[1.0], [0.5]]))
    p = pol.init_policy(pol.PolicyArchitecture(2, (4,), 1, seed=2))

    def roll(x0):
        states, actions = dyn.rollout_tensors(
            m, lambda z: pol.apply_layers(p.layers, z), x0, None,
            np.zeros((x0.shape[0], 3, 2)), dyn.STATE_FEEDBACK, 1)
        return states.values, actions.values

    x0 = np.array([[0.1 * k, -0.1] for k in range(4)])
    states, actions = roll(x0)
    assert states.shape == (4, 4, 2) and actions.shape == (4, 3, 1)
    singles = [roll(x0[k:k + 1]) for k in range(4)]
    np.testing.assert_array_equal(states[:, 0], x0)
    # atol: BLAS rounding between batch and single-row products
    np.testing.assert_allclose(states, np.concatenate([s for s, _ in singles]),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(actions, np.concatenate([a for _, a in singles]),
                               rtol=0, atol=1e-15)


def test_loss_gradient_through_rollout_matches_fd():
    m = dyn.LinearSystem(np.array([[1.2, 1.0], [0.0, 1.0]]), np.array([[1.0], [0.5]]))
    arch = pol.PolicyArchitecture(2, (6,), 1, seed=3)
    p = pol.init_policy(arch)
    w = weights(Q_x=5.0, Q_u=0.2, Q_h=10.0, Q_g=100.0, Q_f=1.0)
    s = obj.StageObjective("stabilization")
    x0 = np.array([[0.7, -0.4], [-0.5, 0.9]])
    omega = np.random.default_rng(14).normal(0, 0.05, size=(2, 2, 2))
    with_ball = simple_constraints()
    with_ball.terminal = obj.BallConstraint(0.1, center=const(0.05, 0.0), margin=0.02)
    for cs in (simple_constraints(), with_ball):
        check_loss_gradient(m, p, x0, omega, s, cs, w)


def check_loss_gradient(m, p, x0, omega, s, cs, w):
    def loss_for(layers):
        states, actions = dyn.rollout_tensors(
            m, lambda z: pol.apply_layers(layers, z), x0, None, omega, dyn.STATE_FEEDBACK, 1)
        return obj.total_loss(states, actions, None, s, cs, w).total

    tape = ad.Tape()
    taped = pol.taped_layers(tape, p)
    grads = tape.backward(loss_for(taped))

    h = 1e-6
    for li in range(len(p.layers)):
        w0 = p.layers[li][0]
        analytic = grads[taped[li][0].node]
        numeric = np.zeros_like(w0)
        for idx in np.ndindex(*w0.shape):
            pert = [(wt.copy(), bt.copy()) for wt, bt in p.layers]
            pert[li][0][idx] = w0[idx] + h
            hi = loss_for(pert).item()
            pert[li][0][idx] = w0[idx] - h
            lo = loss_for(pert).item()
            numeric[idx] = (hi - lo) / (2 * h)
        err = np.abs(analytic - numeric)
        assert np.all(err <= np.maximum(1e-6, 1e-4 * np.abs(numeric)))


def test_margin_tightens_penalty_only():
    # v = 0.95 sits inside [-1, 1] but inside the 0.1 tightening band:
    # residual + margin = 0.05 on the upper face, so relu^2 = 0.0025
    tight = obj.BoxConstraint((-1.0,), (1.0,), margin=0.1)
    v = np.array([0.95])
    assert obj.penalty(tight.residuals(v), 1.0, tight.margin).item() == pytest.approx(
        0.0025, abs=1e-15)
    loose = obj.BoxConstraint((-1.0,), (1.0,))
    assert obj.penalty(loose.residuals(v), 1.0, loose.margin).item() == 0.0
    # the raw residuals are what certification checks, and they ignore margin
    assert np.all(tight.residuals(v).values <= 0.0)


def test_margin_validation():
    with pytest.raises(ValueError, match="margin"):
        obj.BoxConstraint((-1.0,), (1.0,), margin=-0.1)
    with pytest.raises(ValueError, match="margin"):
        obj.EllipseKeepOut(radius=const(0.5), shape=const(1.0),
                           center_x=const(0.0), center_y=const(0.0),
                           margin=float("nan"))


def test_keepout_margin_inflates_penalty_onset():
    keep_out = obj.EllipseKeepOut(radius=const(0.5), shape=const(1.0),
                                  center_x=const(0.0), center_y=const(0.0),
                                  margin=0.1)
    x = np.array([[0.55, 0.0]])  # clear of the true ellipse, inside the margin band
    assert np.all(keep_out.residuals(x).values <= 0.0)
    assert obj.penalty(keep_out.residuals(x), 1.0, keep_out.margin).item() > 0.0
    x_far = np.array([[0.8, 0.0]])  # past the inflated surface too
    assert obj.penalty(keep_out.residuals(x_far), 1.0, keep_out.margin).item() == 0.0


def test_split_tracking_reference_follows_track_index_order():
    # reference[k] belongs to track_indices[k], whatever order they come in
    w = weights(Q_r=1.0, Q_x=1.0)
    s = obj.StageObjective("split-tracking", track_indices=(3, 1), reference=const(2.0, -1.0))
    x = np.array([[0.0, -1.0, 0.0, 2.0]])
    assert obj.stage_cost(s, w, x, np.zeros((1, 1))).item() == 0.0


# ---------------------------------------------------------------------------
# fused squared penalties against the op chains they stand for

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (REPO / "configs").glob("ex*.json"))


def unfused_quad(v, weight):
    """weight * sum of squares as a square -> sum -> scale chain."""
    return ad.scale(ad.reduce_sum(ad.square(v)), weight)


def unfused_penalty(residual, weight, margin=0.0):
    """weight * sum relu(residual + margin)^2 as an add -> relu -> square ->
    sum -> scale chain."""
    if margin:
        residual = ad.add(residual, margin)
    return unfused_quad(ad.relu(residual), weight)


def loss_bits(cfg, policy, scenarios):
    """Taped loss parts and gradients, and the untaped evaluation, as bytes."""
    x0, xi, omega, _, _ = scenarios.pair_rows(np.arange(scenarios.size))
    parts, grads = trainer.policy_gradient(policy, cfg.model, x0, xi, omega, cfg.objective,
                                           cfg.constraints, cfg.weights, cfg.mode)
    evaluated = trainer.evaluate(policy, cfg.model, scenarios, cfg.objective,
                                 cfg.constraints, cfg.weights, cfg.mode)
    return ([np.float64(v).tobytes() for v in parts.floats().values()]
            + [g.tobytes() for g in grads]
            + [np.float64(v).tobytes() for v in evaluated.values()])


@pytest.mark.parametrize("name", CONFIGS)
def test_total_loss_is_the_unfused_loss_bit_for_bit(name, monkeypatch):
    cfg = load_config(REPO / "configs" / f"{name}.json")
    scenarios = sample_scenarios(cfg.params, cfg.noise, 8, 2, cfg.horizon, cfg.seed)
    policy = pol.init_policy(cfg.arch)
    gen = np.random.default_rng(5)
    for _, b in policy.layers:
        b[...] = gen.normal(scale=2.0, size=b.shape)  # plans that cross the constraints
    fused = loss_bits(cfg, policy, scenarios)
    monkeypatch.setattr(ad, "sumsq", unfused_quad)
    monkeypatch.setattr(obj, "penalty", unfused_penalty)
    assert loss_bits(cfg, policy, scenarios) == fused
