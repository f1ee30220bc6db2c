import numpy as np
import pytest

from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc import trainer as tr
from spdpc.dynamics import NoiseSpec
from spdpc.sampling import DistSpec, ParamSpec, sample_scenarios


def double_integrator():
    return dyn.LinearSystem(A=np.array([[1.0, 0.1], [0.0, 1.0]]),
                            B=np.array([[0.0], [0.1]]))


def stabilization_setup():
    objective = obj.StageObjective(kind="stabilization")
    constraints = obj.ConstraintSet()
    weights = obj.LossWeights(Q_x=1.0, Q_u=0.1)
    return objective, constraints, weights


class TestAdamW:
    def test_single_step_hand_value(self):
        # theta=1, g=1, lr=0.01, no decay: bias correction makes mhat=vhat=1,
        # so the step is lr / (1 + eps)
        cfg = tr.TrainConfig(epochs=1, lr=0.01, weight_decay=0.0)
        params = [np.array([1.0])]
        state = tr.AdamWState.for_params(params)
        tr.adamw_step(params, [np.array([1.0])], state, cfg)
        assert abs(params[0][0] - 0.9900000001) < 1e-12
        assert state.t == 1

    def test_decay_alone_shrinks_weights(self):
        cfg = tr.TrainConfig(epochs=1, lr=0.1, weight_decay=0.5)
        params = [np.array([2.0])]
        state = tr.AdamWState.for_params(params)
        tr.adamw_step(params, [np.array([0.0])], state, cfg)
        # gradient term vanishes, only -lr * wd * theta acts
        assert params[0][0] == pytest.approx(1.9, abs=1e-15)

    def test_matches_scalar_reference_over_steps(self):
        cfg = tr.TrainConfig(epochs=1, lr=0.05, weight_decay=0.02)
        params = [np.array([0.7])]
        state = tr.AdamWState.for_params(params)
        theta, m, v = 0.7, 0.0, 0.0
        gs = [0.3, -1.2, 0.5, 0.0, 2.0]
        for t, g in enumerate(gs, start=1):
            tr.adamw_step(params, [np.array([g])], state, cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1 ** t)
            vhat = v / (1 - cfg.beta2 ** t)
            theta = theta - cfg.lr * (mhat / (np.sqrt(vhat) + cfg.eps)
                                      + cfg.weight_decay * theta)
        assert params[0][0] == pytest.approx(theta, abs=1e-15)

    def test_length_mismatch_rejected(self):
        cfg = tr.TrainConfig(epochs=1)
        params = [np.zeros(2)]
        state = tr.AdamWState.for_params(params)
        with pytest.raises(ValueError, match="disagree"):
            tr.adamw_step(params, [np.zeros(2), np.zeros(2)], state, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            tr.TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="minibatch"):
            tr.TrainConfig(epochs=1, minibatch=0)
        with pytest.raises(ValueError, match="betas"):
            tr.TrainConfig(epochs=1, beta1=1.0)
        with pytest.raises(ValueError, match="positive"):
            tr.TrainConfig(epochs=1, lr=0.0)


class TestPolicyGradient:
    def test_matches_finite_differences(self):
        model = double_integrator()
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(4,), output_dim=3, seed=5)
        policy = pol.init_policy(arch)
        objective, constraints, weights = stabilization_setup()
        gen = np.random.default_rng(2)
        x0 = gen.uniform(-1, 1, size=(2, 2))
        omega = gen.normal(0, 0.05, size=(2, 3, 2))

        parts, grads = tr.policy_gradient(
            policy, model, x0, None, omega, objective, constraints, weights,
            dyn.FULL_HORIZON)

        def eager_loss(layers):
            states, actions = dyn.rollout_tensors(
                model, lambda z: pol.apply_layers(layers, z), x0, None, omega,
                dyn.FULL_HORIZON, model.n_u)
            return obj.total_loss(states, actions, None, objective,
                                  constraints, weights).total.item()

        flat = tr.flat_params(policy)
        assert len(grads) == len(flat)
        probe = np.random.default_rng(7)
        for arr, grad in zip(flat, grads):
            assert grad.shape == arr.shape
            for _ in range(3):
                at = tuple(probe.integers(0, n) for n in arr.shape)
                h = 1e-6
                old = arr[at]
                arr[at] = old + h
                up = eager_loss(policy.layers)
                arr[at] = old - h
                down = eager_loss(policy.layers)
                arr[at] = old
                numeric = (up - down) / (2 * h)
                assert grad[at] == pytest.approx(numeric, abs=1e-5, rel=1e-4)

    def test_zero_everything_is_a_stationary_point(self):
        model = double_integrator()
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(4,), output_dim=2, seed=0)
        policy = pol.init_policy(arch)
        for w, b in policy.layers:
            w[...] = 0.0
            b[...] = 0.0
        objective, constraints, weights = stabilization_setup()
        x0 = np.zeros((3, 2))
        omega = np.zeros((3, 2, 2))
        parts, grads = tr.policy_gradient(
            policy, model, x0, None, omega, objective, constraints, weights,
            dyn.FULL_HORIZON)
        assert parts.total.item() == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_obstacle_step_tape_is_independent_of_the_horizon(self, monkeypatch):
        # ex3 desk: N=20, 4x100 policy, keep-out and terminal smoothing.  The
        # rollout and loss record whole time blocks, so a step's tape holds the
        # policy layers plus a fixed number of loss nodes (about 1050 when the
        # loss was built step by step)
        from pathlib import Path

        from spdpc import autodiff as ad
        from spdpc.config import load_config
        from spdpc.sampling import split
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "ex3_obstacle_desk.json")
        train_set = split(sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s,
                                           cfg.horizon, cfg.seed), cfg.splits)[0]
        idx = np.arange(cfg.train.minibatch)
        x0, xi, omega, _, _ = train_set.pair_rows(idx)
        sizes = []
        backward = ad.Tape.backward

        def counting(tape, root):
            sizes.append(len(tape.nodes))
            return backward(tape, root)

        monkeypatch.setattr(ad.Tape, "backward", counting)
        tr.policy_gradient(pol.init_policy(cfg.arch), cfg.model, x0, xi, omega,
                           cfg.objective, cfg.constraints, cfg.weights, cfg.mode)
        assert len(sizes) == 1 and sizes[0] <= 120, sizes


class TestEvaluate:
    def test_matches_taped_parts_on_one_chunk(self):
        model = double_integrator()
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(6,), output_dim=2, seed=3)
        policy = pol.init_policy(arch)
        objective, constraints, weights = stabilization_setup()
        spec = ParamSpec(x0=DistSpec("uniform", (-1.0, -1.0), (1.0, 1.0)))
        scen = sample_scenarios(spec, NoiseSpec("gaussian", [0.05, 0.05]),
                                m=4, s=3, horizon=2, seed=1)
        got = tr.evaluate(policy, model, scen, objective, constraints, weights,
                          dyn.FULL_HORIZON)
        x0, xi, omega, _, _ = scen.pair_rows(np.arange(scen.size))
        parts, _ = tr.policy_gradient(policy, model, x0, xi, omega, objective,
                                      constraints, weights, dyn.FULL_HORIZON)
        for key, val in parts.floats().items():
            assert got[key] == pytest.approx(val, abs=1e-12)

    def test_chunking_does_not_change_the_answer(self):
        model = double_integrator()
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(6,), output_dim=2, seed=3)
        policy = pol.init_policy(arch)
        objective, constraints, weights = stabilization_setup()
        spec = ParamSpec(x0=DistSpec("uniform", (-1.0, -1.0), (1.0, 1.0)))
        scen = sample_scenarios(spec, NoiseSpec("gaussian", [0.05, 0.05]),
                                m=5, s=4, horizon=2, seed=1)
        whole = tr.evaluate(policy, model, scen, objective, constraints,
                            weights, dyn.FULL_HORIZON, chunk=100)
        pieces = tr.evaluate(policy, model, scen, objective, constraints,
                             weights, dyn.FULL_HORIZON, chunk=3)
        assert pieces["total"] == pytest.approx(whole["total"], abs=1e-12)


class TestTraining:
    def make_sets(self, m=12, s=2, horizon=3, seed=4):
        spec = ParamSpec(x0=DistSpec("uniform", (-0.5, -0.5), (0.5, 0.5)))
        noise = NoiseSpec("zero", [0.0, 0.0])
        from spdpc.sampling import split
        scen = sample_scenarios(spec, noise, m=m, s=s, horizon=horizon, seed=seed)
        return split(scen, (0.5, 0.5))

    def run(self, epochs=5, seed=11, policy=None):
        model = double_integrator()
        train_set, dev_set = self.make_sets()
        if policy is None:
            policy = pol.init_policy(pol.PolicyArchitecture(input_dim=2, hidden=(8,),
                                                            output_dim=3, seed=9))
        objective, constraints, weights = stabilization_setup()
        cfg = tr.TrainConfig(epochs=epochs, lr=1e-2, minibatch=8)
        result = tr.train(model, policy, train_set, dev_set, objective,
                          constraints, weights, cfg, dyn.FULL_HORIZON, seed)
        return result

    def test_loss_drops_and_history_is_complete(self):
        result = self.run()
        assert len(result.history) == 5
        assert [row["epoch"] for row in result.history] == list(range(5))
        assert result.history[-1]["dev_loss"] < result.history[0]["dev_loss"]
        dev = [row["dev_loss"] for row in result.history]
        assert result.best_dev_loss == min(dev)
        assert result.best_epoch == int(np.argmin(dev))

    def test_decomposition_sums_in_history(self):
        for row in self.run(epochs=2).history:
            parts = (row["objective_cost"] + row["state_penalty"]
                     + row["input_penalty"] + row["terminal_cost"])
            assert row["train_loss"] == pytest.approx(parts, abs=1e-12)

    def test_rerun_is_bit_identical(self):
        a = self.run()
        b = self.run()
        assert a.history == b.history
        for (wa, ba), (wb, bb) in zip(a.policy.layers, b.policy.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_best_policy_is_a_snapshot_not_a_view(self):
        live = pol.init_policy(pol.PolicyArchitecture(input_dim=2, hidden=(8,),
                                                      output_dim=3, seed=9))
        result = self.run(epochs=3, policy=live)
        before = [w.copy() for w, _ in result.policy.layers]
        for w, b in live.layers:  # the weights after the final update
            w += 1.0
        for snap, (w, _) in zip(before, result.policy.layers):
            assert np.array_equal(snap, w)

    def test_on_epoch_callback_sees_every_epoch(self):
        seen = []
        model = double_integrator()
        train_set, dev_set = self.make_sets(m=4, s=1, horizon=2)
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(4,), output_dim=2, seed=0)
        policy = pol.init_policy(arch)
        objective, constraints, weights = stabilization_setup()
        cfg = tr.TrainConfig(epochs=3, minibatch=4)
        tr.train(model, policy, train_set, dev_set, objective, constraints,
                 weights, cfg, dyn.FULL_HORIZON, seed=0,
                 on_epoch=lambda e, p, d: seen.append((e, d)))
        assert [e for e, _ in seen] == [0, 1, 2]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_aborts_with_context(self):
        model = dyn.LinearSystem(A=np.array([[2.0, 0.0], [0.0, 2.0]]),
                                 B=np.eye(2))
        train_set, dev_set = self.make_sets()
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(4, 4),
                                      output_dim=6, seed=1)
        policy = pol.init_policy(arch)
        objective, constraints, weights = stabilization_setup()
        cfg = tr.TrainConfig(epochs=50, lr=1e80, minibatch=12)
        with pytest.raises(tr.TrainingDiverged, match="epoch"):
            tr.train(model, policy, train_set, dev_set, objective,
                     constraints, weights, cfg, dyn.FULL_HORIZON, seed=2)

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        # a finite loss whose gradient is not finite must stop the run
        # before AdamW writes NaN into the weights
        exact = tr.policy_gradient

        def poisoned(*args):
            parts, grads = exact(*args)
            grads[2] = grads[2].copy()
            grads[2].flat[1] = np.nan
            return parts, grads

        monkeypatch.setattr(tr, "policy_gradient", poisoned)
        policy = pol.init_policy(pol.PolicyArchitecture(input_dim=2, hidden=(8,),
                                                        output_dim=3, seed=9))
        before = [(w.copy(), b.copy()) for w, b in policy.layers]
        with pytest.raises(tr.TrainingDiverged,
                           match=r"gradient left the floats at epoch 0, parametric rows \["):
            self.run(policy=policy)
        for (w, b), (w0, b0) in zip(policy.layers, before):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)


class TestHistoryFile:
    def test_round_trip_and_no_timing_column(self, tmp_path):
        rows = [
            {"epoch": 0, "train_loss": 1.25, "dev_loss": 1.5,
             "objective_cost": 1.0, "state_penalty": 0.125,
             "input_penalty": 0.0625, "terminal_cost": 0.0625},
            {"epoch": 1, "train_loss": 0.7, "dev_loss": 0.9,
             "objective_cost": 0.5, "state_penalty": 0.1,
             "input_penalty": 0.05, "terminal_cost": 0.05},
        ]
        path = tmp_path / "history.csv"
        tr.save_history(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(tr.HISTORY_COLUMNS)
        assert "seconds" not in lines[0] and "time" not in lines[0]
        import csv as _csv
        with open(path, newline="") as fh:
            back = list(_csv.DictReader(fh))
        assert float(back[0]["train_loss"]) == 1.25
        assert float(back[1]["dev_loss"]) == 0.9
        assert int(back[1]["epoch"]) == 1
