import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import certify as cert
from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc import trainer as tr
from spdpc.config import load_config
from spdpc.objectives import (BallConstraint, BoxConstraint, Constant, ConstraintSet,
                              ContractionConstraint, EllipseKeepOut, XiSlice)
from spdpc.sampling import ScenarioSet, sample_scenarios

# several fixtures pin the state with A = I on purpose
pytestmark = pytest.mark.filterwarnings("ignore:.*not controllable")


class TestHoeffding:
    def test_frozen_value_and_extended_precision(self):
        got = cert.hoeffding_alpha(33330, 0.01)
        assert got == pytest.approx(0.008915307553253418, abs=1e-15)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        exact = mp.sqrt(-mp.log(mp.mpf("0.01") / 2) / (2 * 33330))
        assert abs(got - float(exact)) < 1e-9

    def test_quadrupling_samples_halves_the_margin(self):
        a = cert.hoeffding_alpha(5000, 0.05)
        b = cert.hoeffding_alpha(20000, 0.05)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_monotone_in_samples_and_confidence(self):
        assert cert.hoeffding_alpha(1000, 0.01) > cert.hoeffding_alpha(2000, 0.01)
        # a looser confidence requirement shrinks the margin
        assert cert.hoeffding_alpha(1000, 0.05) < cert.hoeffding_alpha(1000, 0.01)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="at least one sample"):
            cert.hoeffding_alpha(0, 0.01)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="delta"):
                cert.hoeffding_alpha(100, bad)


class TestVerdict:
    def test_truth_table_over_1000_triples(self):
        gen = np.random.default_rng(17)
        for _ in range(1000):
            mu = float(gen.uniform(0, 1))
            r = int(gen.integers(1, 10 ** 6))
            delta = float(gen.uniform(1e-6, 0.9))
            beta = float(gen.uniform(1e-9, 1.0))
            report = cert.certify(mu, r, m=r, s=1, beta=beta, delta=delta)
            alpha = cert.hoeffding_alpha(r, delta)
            assert report.alpha == alpha
            assert report.lower_bound == mu - alpha
            assert report.verdict is ((mu - alpha) >= beta)

    def test_boundary_equality_certifies(self):
        # beta set to the exact float lower bound: non-strict comparison passes
        mu, r, delta = 0.93, 250000, 0.01
        beta = mu - cert.hoeffding_alpha(r, delta)
        report = cert.certify(mu, r, m=r, s=1, beta=beta, delta=delta)
        assert report.verdict is True
        nudged = np.nextafter(beta, 1.0)
        assert cert.certify(mu, r, m=r, s=1, beta=nudged, delta=delta).verdict is False

    def test_input_validation(self):
        with pytest.raises(ValueError, match="mu_tilde"):
            cert.certify(1.2, 10, 10, 1, beta=0.5, delta=0.1)
        with pytest.raises(ValueError, match="beta"):
            cert.certify(0.5, 10, 10, 1, beta=0.0, delta=0.1)


def lands_in(terminal, x_final, xi=None):
    """Per row: does a one-step rollout ending at ``x_final`` pass ``terminal``?"""
    x_final = np.asarray(x_final, dtype=float)
    states = np.stack([np.zeros_like(x_final), x_final], axis=1)
    actions = np.zeros((x_final.shape[0], 1, 1))
    passes = cert.satisfied(states, actions, xi, ConstraintSet(terminal=terminal))
    return passes[:, 0].tolist()


class TestTerminalSet:
    def test_box_membership_including_boundary(self):
        box = BoxConstraint((-0.1, -0.1), (0.1, 0.1))
        x = np.array([[0.0, 0.0], [0.1, -0.1], [0.11, 0.0], [0.0, -0.2]])
        assert lands_in(box, x) == [True, True, False, False]

    def test_ball_at_origin(self):
        ball = BallConstraint(radius=1.0)
        x = np.array([[0.6, 0.8], [0.7, 0.8], [0.0, 0.0]])
        assert lands_in(ball, x) == [True, False, True]

    def test_ball_with_constant_center(self):
        ball = BallConstraint(radius=0.5, center=Constant((1.0, 1.0)))
        x = np.array([[1.0, 1.4], [1.0, 1.6]])
        assert lands_in(ball, x) == [True, False]

    def test_ball_centered_per_scenario(self):
        ball = BallConstraint(radius=0.5, center=XiSlice(0, 2))
        xi = np.array([[0.0, 0.0], [5.0, 5.0]])
        x = np.array([[0.1, 0.1], [0.1, 0.1]])
        assert lands_in(ball, x, xi) == [True, False]

    def test_ball_boundary_passes_and_margin_stays_out(self):
        # ||x - c|| == r exactly on the first row; margin only tightens training
        ball = BallConstraint(radius=5.0, center=XiSlice(0, 2), margin=1.0)
        xi = np.array([[1.0, 1.0], [1.0, 1.0], [-2.0, 0.0]])
        x = np.array([[4.0, 5.0], [4.0, np.nextafter(5.0, 6.0)], [-2.0, 4.5]])
        assert lands_in(ball, x, xi) == [True, False, True]

    def test_validation(self):
        with pytest.raises(ValueError, match="lower > upper"):
            BoxConstraint(lower=(1.0,), upper=(0.0,))
        with pytest.raises(ValueError, match="radius"):
            BallConstraint(radius=0.0)
        with pytest.raises(ValueError, match="margin"):
            BallConstraint(radius=1.0, margin=-0.5)


def synthetic(states, actions):
    return np.asarray(states, dtype=float)[None], np.asarray(actions, dtype=float)[None]


def passes_all(states, actions, constraints, terminal):
    """satisfied() of a single rollout, all checked constraints together."""
    return cert.satisfied(states, actions, None, replace(constraints, terminal=terminal))[0].all()


class TestIndicator:
    box_pm1 = ConstraintSet(state=[BoxConstraint((-1.0, -1.0), (1.0, 1.0))],
                            inputs=[BoxConstraint((-0.5,), (0.5,))])
    wide_terminal = BallConstraint(radius=100.0)

    def test_clean_trajectory_passes(self):
        s, a = synthetic([[0.0, 0.0], [0.5, 0.5], [0.9, 0.9]], [[0.1], [0.2]])
        assert passes_all(s, a, self.box_pm1, self.wide_terminal)

    def test_state_violation_fails(self):
        s, a = synthetic([[0.0, 0.0], [1.5, 0.0], [0.0, 0.0]], [[0.1], [0.2]])
        assert not passes_all(s, a, self.box_pm1, self.wide_terminal)

    def test_input_violation_fails(self):
        s, a = synthetic([[0.0, 0.0], [0.1, 0.0], [0.0, 0.0]], [[0.6], [0.0]])
        assert not passes_all(s, a, self.box_pm1, self.wide_terminal)

    def test_terminal_miss_fails(self):
        tight = BoxConstraint((-0.1, -0.1), (0.1, 0.1))
        s, a = synthetic([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0]], [[0.1], [0.1]])
        assert not passes_all(s, a, self.box_pm1, tight)

    def test_final_state_answers_to_terminal_set_not_state_box(self):
        # x_N breaks the running state box but sits inside the terminal set
        s, a = synthetic([[0.0, 0.0], [0.9, 0.0], [1.5, 0.0]], [[0.1], [0.1]])
        assert passes_all(s, a, self.box_pm1, self.wide_terminal)

    def test_boundary_riding_passes(self):
        s, a = synthetic([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], [[0.5], [-0.5]])
        assert passes_all(s, a, self.box_pm1, self.wide_terminal)

    def test_training_margin_never_enters_the_decision(self):
        # tightened constraints shape the loss; the verdict is about the
        # true bounds, so riding the un-inflated boundary still passes
        padded = ConstraintSet(
            state=[BoxConstraint((-1.0, -1.0), (1.0, 1.0), margin=0.2)],
            inputs=[BoxConstraint((-0.5,), (0.5,), margin=0.1)])
        s, a = synthetic([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], [[0.5], [-0.5]])
        assert passes_all(s, a, padded, self.wide_terminal)

    def test_contraction_never_enters_the_decision(self):
        grows = ConstraintSet(state=[BoxConstraint((-10.0, -10.0), (10.0, 10.0))],
                              contraction=ContractionConstraint(rate=0.5))
        s, a = synthetic([[0.1, 0.0], [5.0, 0.0], [9.0, 0.0]], [[0.0], [0.0]])
        assert passes_all(s, a, grows, self.wide_terminal)

    def test_keep_out_boundary_is_clear_inside_is_not(self):
        keep_out = ConstraintSet(state=[EllipseKeepOut(
            radius=Constant((1.0,)), shape=Constant((1.0,)),
            center_x=Constant((0.0,)), center_y=Constant((0.0,)))])
        on_edge, a = synthetic([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]], [[0.0], [0.0]])
        inside, _ = synthetic([[0.5, 0.0], [2.0, 0.0], [2.0, 0.0]], [[0.0], [0.0]])
        assert passes_all(on_edge, a, keep_out, self.wide_terminal)
        assert not passes_all(inside, a, keep_out, self.wide_terminal)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            passes_all(np.zeros((1, 2, 2)), np.zeros((1, 2, 1)),
                       self.box_pm1, self.wide_terminal)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("ex*.json"))


def reference_passes(c, block, xi):
    """Plain-numpy test of one constraint over a (b, steps, n) block."""
    if isinstance(c, BoxConstraint):
        return np.all((block >= c.lower) & (block <= c.upper), axis=(1, 2))
    batch = block.shape[0]
    if isinstance(c, BallConstraint):
        center = 0.0 if c.center is None else c.center.resolve(xi, batch)[:, None, :]
        return np.all(np.linalg.norm(block - center, axis=-1) <= c.radius, axis=1)
    radius, shape, cx, cy = (ref.resolve(xi, batch)
                             for ref in (c.radius, c.shape, c.center_x, c.center_y))
    dx, dy = block[:, :, 0] - cx, block[:, :, 1] - cy
    return np.all(radius * radius - shape * (dx * dx) - dy * dy <= 0.0, axis=1)


def straddle(c, block, xi, gen):
    """Move one step of every other row onto, just inside or just past ``c``'s boundary."""
    batch, steps, n = block.shape
    rows = np.arange(0, batch, 2)
    ks = gen.integers(0, steps, rows.size)
    if isinstance(c, BoxConstraint):
        d = gen.integers(0, n, rows.size)
        edge = np.where(gen.random(rows.size) < 0.5, c.lower[d], c.upper[d])
        nudge = gen.choice([-np.inf, 0.0, np.inf], rows.size)
        block[rows, ks, d] = np.where(nudge == 0.0, edge, np.nextafter(edge, nudge))
        return
    scale = gen.choice([1.0 - 1e-12, 1.0, 1.0 + 1e-12], rows.size)
    if isinstance(c, BallConstraint):
        center = 0.0 if c.center is None else c.center.resolve(xi, batch)[rows]
        axis = np.eye(n)[gen.integers(0, n, rows.size)]
        block[rows, ks] = center + c.radius * scale[:, None] * axis
        return
    radius, shape, cx, cy = (ref.resolve(xi, batch)[rows, 0]
                             for ref in (c.radius, c.shape, c.center_x, c.center_y))
    angle = gen.uniform(0.0, 2.0 * np.pi, rows.size)
    block[rows, ks, 0] = cx + radius * scale * np.cos(angle) / np.sqrt(shape)
    block[rows, ks, 1] = cy + radius * scale * np.sin(angle)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_satisfied_matches_plain_numpy_on_committed_configs(path):
    cfg = load_config(path)
    gen = np.random.default_rng(5)
    batch, n_x, n_u, horizon = 240, cfg.model.n_x, cfg.model.n_u, cfg.horizon
    xi = np.stack([cfg.params.draw_xi(gen) for _ in range(batch)])
    xi = xi if xi.shape[1] else None
    states = gen.uniform(-1.0, 1.0, (batch, horizon + 1, n_x))
    actions = gen.uniform(-1.0, 1.0, (batch, horizon, n_u))
    blocks = {"state": states[:, :-1, :], "inputs": actions, "terminal": states[:, -1:, :]}
    checked = cfg.constraints.checked()
    for part, c in checked:
        straddle(c, blocks[part], xi, gen)
    passes = cert.satisfied(states, actions, xi, cfg.constraints)
    assert passes.shape == (batch, len(checked))
    assert [part for part, _ in checked][-1] == "terminal"
    for k, (part, c) in enumerate(checked):
        expect = reference_passes(c, blocks[part], xi)
        assert np.array_equal(passes[:, k], expect), (part, c.kind)
        assert 0 < expect.sum() < batch, (part, c.kind)  # the rows really straddle


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_non_finite_state_fails_its_row_on_committed_configs(path):
    # rows that rest at the terminal set's center pass; one NaN or +-inf
    # entry at any step, terminal step included, must fail the row
    cfg = load_config(path)
    horizon, n_x = cfg.horizon, cfg.model.n_x
    values = np.repeat([np.nan, np.inf, -np.inf], horizon + 1)
    batch = values.size
    gen = np.random.default_rng(6)
    xi = np.stack([cfg.params.draw_xi(gen) for _ in range(batch)])
    xi = xi if xi.shape[1] else None
    terminal = cfg.constraints.terminal
    if isinstance(terminal, BoxConstraint):
        center = np.add(terminal.lower, terminal.upper) / 2.0
    else:
        center = 0.0 if terminal.center is None else terminal.center.resolve(xi, batch)
    states = np.broadcast_to(center, (batch, n_x))[:, None, :].repeat(horizon + 1, axis=1)
    actions = np.zeros((batch, horizon, cfg.model.n_u))
    assert cert.satisfied(states, actions, xi, cfg.constraints).all()
    rows = np.arange(batch)
    states[rows, rows % (horizon + 1), gen.integers(0, n_x, batch)] = values
    assert not cert.satisfied(states, actions, xi, cfg.constraints).all(axis=1).any()


def zero_policy(n_in, n_out):
    p = pol.init_policy(pol.PolicyArchitecture(
        input_dim=n_in, hidden=(4,), output_dim=n_out, seed=0))
    for w, b in p.layers:
        w[...] = 0.0
        b[...] = 0.0
    return p


class TestEmpiricalRisk:
    def test_known_fraction(self):
        # frozen dynamics, zero policy, zero noise: x stays at x0, so the
        # terminal box decides each parametric row outright
        model = dyn.LinearSystem(A=np.eye(2), B=np.array([[0.0], [1.0]]))
        x0 = np.array([[0.0, 0.0], [0.5, 0.5], [-0.9, 0.2], [2.0, 0.0]])
        scen = ScenarioSet(x0=x0, xi=np.zeros((4, 0)),
                           omega=np.zeros((2, 3, 2)), seed=0)
        policy = zero_policy(2, 3)
        terminal = BoxConstraint((-1.0, -1.0), (1.0, 1.0))
        mu, passes = cert.empirical_risk(policy, model, scen,
                                         ConstraintSet(terminal=terminal), dyn.FULL_HORIZON)
        assert mu == pytest.approx(6 / 8)
        assert passes.shape == (8, 1)
        assert passes[:, 0].tolist() == [True] * 6 + [False] * 2  # pairs are i-major
        report, flags = cert.run_certification(policy, model, scen, ConstraintSet(), terminal,
                                               dyn.FULL_HORIZON, beta=0.5, delta=0.1)
        assert report.failures == ({"part": "terminal", "kind": "box", "failed": 2},)
        assert flags.tolist() == passes[:, 0].tolist()

    def test_report_wiring(self):
        model = dyn.LinearSystem(A=np.eye(2), B=np.array([[0.0], [1.0]]))
        scen = ScenarioSet(x0=np.zeros((3, 2)), xi=np.zeros((3, 0)),
                           omega=np.zeros((2, 2, 2)), seed=99)
        policy = zero_policy(2, 2)
        terminal = BallConstraint(radius=1.0)
        report, flags = cert.run_certification(
            policy, model, scen, ConstraintSet(), terminal, dyn.FULL_HORIZON,
            beta=0.5, delta=0.1, policy_checkpoint="policy.json")
        assert (report.r, report.m, report.s) == (6, 3, 2)
        assert report.mu_tilde == 1.0
        assert report.seed == 99
        assert report.verdict is (1.0 - report.alpha >= 0.5)
        assert report.failures == ({"part": "terminal", "kind": "ball", "failed": 0},)
        assert flags.all()

    def test_chunking_invariance(self):
        model = dyn.LinearSystem(A=np.eye(2), B=np.array([[0.0], [1.0]]))
        gen = np.random.default_rng(3)
        scen = ScenarioSet(x0=gen.uniform(-2, 2, (7, 2)), xi=np.zeros((7, 0)),
                           omega=gen.normal(0, 0.1, (3, 2, 2)), seed=1)
        policy = zero_policy(2, 2)
        constraints = ConstraintSet(terminal=BoxConstraint((-1.0, -1.0), (1.0, 1.0)))
        mu_a, flags_a = cert.empirical_risk(policy, model, scen, constraints,
                                            dyn.FULL_HORIZON, chunk=1000)
        mu_b, flags_b = cert.empirical_risk(policy, model, scen, constraints,
                                            dyn.FULL_HORIZON, chunk=4)
        assert mu_a == mu_b
        assert np.array_equal(flags_a, flags_b)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_report_counts_the_failures_of_each_checked_constraint(path):
    cfg = load_config(path)
    scen = sample_scenarios(cfg.params, cfg.noise, 20, 3, cfg.horizon, seed=4)
    policy = pol.init_policy(cfg.arch)
    report, flags = cert.run_certification(policy, cfg.model, scen, cfg.constraints,
                                           cfg.terminal, cfg.mode, cfg.beta, cfg.delta)
    _, passes = cert.empirical_risk(policy, cfg.model, scen, cfg.constraints, cfg.mode)
    checked = cfg.constraints.checked()
    assert report.failures == tuple(
        {"part": part, "kind": c.kind, "failed": int(np.sum(~passes[:, k]))}
        for k, (part, c) in enumerate(checked))
    assert np.array_equal(flags, passes.all(axis=1))


class TestReportIO:
    def test_round_trip_and_key_set(self, tmp_path):
        report = cert.certify(0.97,33330, 3333, 10, beta=0.9, delta=0.01,
                              policy_checkpoint="policy.json", seed=7)
        path = tmp_path / "certificate.json"
        cert.save_report(report, path)
        data = json.loads(path.read_text())
        assert list(data) == ["r", "m", "s", "beta", "delta", "mu_tilde", "alpha",
                              "lower_bound", "verdict", "policy_checkpoint", "seed",
                              "failures", "policy_sha256"]
        assert cert.CertificationReport(**data) == report


# ---------------------------------------------------------------------------
# one plan per parametric draw

FULL_CONFIGS = [p for p in CONFIGS if load_config(p).mode == dyn.FULL_HORIZON]


def sampled_case(path, m=9, s=4):
    cfg = load_config(path)
    scen = sample_scenarios(cfg.params, cfg.noise, m, s, cfg.horizon, seed=8)
    policy = pol.init_policy(cfg.arch)
    gen = np.random.default_rng(9)
    for _, b in policy.layers:
        b[...] = gen.normal(scale=0.1, size=b.shape)
    return cfg, scen, policy


def pair_reroll(cfg, policy, scen):
    """Every pair planned from its own input row and rolled in plain numpy,
    with the condensed prediction X = x0 Phi^T + U Gamma^T + W Gamma_w^T."""
    x0, xi, omega, _, _ = scen.pair_rows(np.arange(scen.size))
    z = x0 if xi is None else np.concatenate([x0, xi], axis=1)
    plans = np.stack([pol.forward(policy, row[None, :])[0] for row in z])
    phi, gamma, gamma_w = cfg.model.prediction(cfg.horizon)
    batch, n_x, n_u = scen.size, cfg.model.n_x, cfg.model.n_u
    moved = plans @ gamma.T + (x0 @ phi.T + omega.reshape(batch, -1) @ gamma_w.T)
    states = np.concatenate([x0[:, None, :], moved.reshape(batch, cfg.horizon, n_x)], axis=1)
    return states, plans.reshape(batch, cfg.horizon, n_u), xi


@pytest.mark.parametrize("path", FULL_CONFIGS, ids=lambda p: p.stem)
def test_full_horizon_runs_the_network_once_per_draw(path, monkeypatch):
    cfg, scen, policy = sampled_case(path)
    rows = []
    original = ad.mlp_values

    def counted(z, layers, inputs=None):
        rows.append(np.shape(z)[0])
        return original(z, layers, inputs)

    monkeypatch.setattr(ad, "mlp_values", counted)
    cert.empirical_risk(policy, cfg.model, scen, cfg.constraints, cfg.mode)
    assert sum(rows) == scen.m
    rows.clear()
    tr.evaluate(policy, cfg.model, scen, cfg.objective, cfg.constraints, cfg.weights, cfg.mode)
    assert sum(rows) == scen.m


@pytest.mark.parametrize("path", FULL_CONFIGS, ids=lambda p: p.stem)
@pytest.mark.parametrize("chunk, s", [(7, 4), (1024, 4), (3, 4), (7, 1)],
                         ids=["7", "1024", "3", "7-s1"])
def test_shared_plans_match_a_per_pair_reroll(path, chunk, s):
    # chunk 7 splits draws (s = 4 pairs each) across chunks; chunk 3 holds
    # fewer pairs than there are sequences
    cfg, scen, policy = sampled_case(path, s=s)
    states, actions, xi = pair_reroll(cfg, policy, scen)
    _, passes = cert.empirical_risk(policy, cfg.model, scen, cfg.constraints, cfg.mode,
                                    chunk=chunk)
    assert np.array_equal(passes, cert.satisfied(states, actions, xi, cfg.constraints))
    parts = tr.evaluate(policy, cfg.model, scen, cfg.objective, cfg.constraints,
                        cfg.weights, cfg.mode, chunk=chunk)
    expect = obj.total_loss(states, actions, xi, cfg.objective, cfg.constraints,
                            cfg.weights).floats()
    for key, value in expect.items():
        assert value == pytest.approx(parts[key], rel=1e-12, abs=0.0), key


def counting_products(model, horizon):
    """Wrap ``model.prediction(horizon)`` so every matmul against Phi, Gamma
    or Gamma_w logs (name, rows of the other operand); returns the log."""
    log = []

    def counted(matrix, name):
        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and inputs[1] is self:
                    log.append((name, inputs[0].shape[0]))
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)
        return matrix.view(Counted)

    wrapped = tuple(counted(a, n) for a, n in zip(model.prediction(horizon),
                                                   ("phi", "gamma", "gamma_w")))
    model.prediction = lambda h: wrapped
    return log


@pytest.mark.parametrize("path", FULL_CONFIGS, ids=lambda p: p.stem)
@pytest.mark.parametrize("chunk, s", [(7, 4), (1024, 4), (3, 4), (7, 1), (5, 2)])
def test_pair_rollouts_multiply_each_draw_and_sequence_once_per_chunk(path, chunk, s):
    # a pair's states are (U Gamma^T)[i] + ((x0 Phi^T)[i] + (W Gamma_w^T)[j]):
    # per chunk, Gamma_w multiplies at most min(s, chunk) rows, and Phi and
    # Gamma at most the chunk's distinct draws, never one row per pair
    cfg, scen, policy = sampled_case(path, s=s)
    log = counting_products(cfg.model, cfg.horizon)
    chunks = 0
    for idx, _, states, _ in dyn.rollout_pairs(cfg.model, policy, scen, cfg.mode, chunk):
        rows = dict.fromkeys(("phi", "gamma", "gamma_w"), 0)
        for name, count in log:
            rows[name] += count
        log.clear()
        draws = np.unique(idx // scen.s).size
        assert rows["phi"] <= draws and rows["gamma"] <= draws, rows
        assert 0 < rows["gamma_w"] <= min(s, chunk), rows
        assert states.shape[0] == idx.size
        chunks += 1
    assert chunks == -(-scen.size // chunk)


def first_decision_reference(policy, scen, idx):
    """The aligned rollout inputs of pairs ``idx`` and a policy closure whose
    first call returns the decision made on the chunk's distinct draws, then
    gathered per pair, and whose later calls run the network."""
    x0, xi, omega, i, _ = scen.pair_rows(idx)
    draws, at = np.unique(i, return_inverse=True)
    first = pol.forward(policy, scen.x0[draws], None if xi is None else scen.xi[draws])[at]
    calls = []

    def decide(z):
        calls.append(z)
        return first if len(calls) == 1 else pol.forward(policy, z)
    return x0, xi, omega, decide


def state_feedback_case(path, s):
    cfg, scen, _ = sampled_case(path, s=s)
    arch = pol.PolicyArchitecture(cfg.arch.input_dim, (16,), cfg.model.n_u, seed=3)
    return cfg, scen, pol.init_policy(arch)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
@pytest.mark.parametrize("chunk, s", [(3, 4), (7, 4), (1024, 4), (7, 1)],
                         ids=["3", "7", "1024", "7-s1"])
def test_state_feedback_pair_rollouts_keep_their_bits(path, chunk, s):
    # pair rollouts make the first decision once per draw and gather it, then
    # run the step recursion per pair.  The reference does the same first
    # decision, not one per pair: a draw block of one row takes numpy's
    # matrix-vector path, whose last bits can differ from a per-pair call
    cfg, scen, policy = state_feedback_case(path, s)
    rolled = dyn.rollout_pairs(cfg.model, policy, scen, dyn.STATE_FEEDBACK, chunk)
    for idx, xi, states, actions in rolled:
        x0, xi_rows, omega, decide = first_decision_reference(policy, scen, idx)
        want = dyn.rollout_tensors(cfg.model, decide, x0, xi_rows, omega, dyn.STATE_FEEDBACK)
        assert (xi is None) if xi_rows is None else np.array_equal(xi, xi_rows)
        assert states.tobytes() == want[0].tobytes()
        assert actions.tobytes() == want[1].tobytes()


SF_PATHS = [p for p in CONFIGS if p.stem in ("ex1_double_integrator_desk", "ex3_obstacle_desk")]
FH_PATHS = [p for p in CONFIGS if p.stem in ("ex2_quadcopter_desk", "ex3_obstacle_desk")]


@pytest.mark.parametrize("mode, path", [
    *(pytest.param(dyn.STATE_FEEDBACK, p, id=f"state-feedback-{p.stem}") for p in SF_PATHS),
    *(pytest.param(dyn.FULL_HORIZON, p, id=f"full-horizon-{p.stem}") for p in FH_PATHS)])
@pytest.mark.parametrize("chunk, s", [(7, 4), (1024, 4), (3, 4), (7, 1), (5, 2)])
def test_first_policy_call_runs_once_per_draw(mode, path, chunk, s, monkeypatch):
    # the first call reads only (x0, xi), so in either mode it sees
    # concat(x0, xi) of the chunk's distinct draws.  The full-horizon
    # configs run as committed; ex3 desk's state-feedback copy reads xi too
    if mode == dyn.STATE_FEEDBACK:
        cfg, scen, policy = state_feedback_case(path, s)
    else:
        cfg, scen, policy = sampled_case(path, s=s)
        assert cfg.mode == mode
    steps = cfg.horizon - 1 if mode == dyn.STATE_FEEDBACK else 0
    calls = []
    original = ad.mlp_values

    def counted(z, layers, inputs=None):
        calls.append(np.array(z))
        return original(z, layers, inputs)

    monkeypatch.setattr(ad, "mlp_values", counted)
    for idx, _, states, _ in dyn.rollout_pairs(cfg.model, policy, scen, mode, chunk):
        draws = np.unique(idx // scen.s)
        first, *later = calls
        calls.clear()
        assert np.array_equal(first, pol.join_input(scen.x0[draws], scen.xi[draws]))
        assert [z.shape[0] for z in later] == [idx.size] * steps
        assert states.shape[0] == idx.size
