from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import baseline as bl
from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc.config import load_config
from spdpc.sampling import sample_scenarios
from spdpc.objectives import BoxConstraint, ConstraintSet, LossWeights, StageObjective


def double_integrator():
    return dyn.LinearSystem(A=np.array([[1.0, 0.1], [0.0, 1.0]]),
                            B=np.array([[0.005], [0.1]]))


def stabilization(Q_x=1.0, Q_u=0.1, Q_f=5.0, Q_g=0.0):
    return (StageObjective(kind="stabilization"), ConstraintSet(),
            LossWeights(Q_x=Q_x, Q_u=Q_u, Q_f=Q_f, Q_g=Q_g))


class TestSolver:
    def test_origin_is_already_optimal(self):
        model = double_integrator()
        objective, constraints, weights = stabilization()
        res = bl.solve(model, np.zeros(2), None, 3, objective, constraints, weights)
        assert res.converged
        assert res.iterations == 0
        assert res.value == 0.0
        assert np.all(res.actions == 0.0)

    def test_matches_least_squares_oracle(self):
        # unconstrained quadratic cost: the optimum solves a small least
        # squares problem assembled independently here
        model = double_integrator()
        A, B = model.A, model.B
        Q_x, Q_u, Q_f = 1.0, 0.1, 5.0
        x0 = np.array([1.0, 0.5])

        # x1 = A x0 + B u0, x2 = A^2 x0 + A B u0 + B u1
        M = np.zeros((6, 2))
        c = np.zeros(6)
        M[0:2, 0] = B[:, 0]
        c[0:2] = A @ x0
        M[2, 0] = 1.0
        M[3, 1] = 1.0
        M[4:6, 0] = (A @ B)[:, 0]
        M[4:6, 1] = B[:, 0]
        c[4:6] = A @ A @ x0
        w = np.sqrt(np.array([Q_x, Q_x, Q_u, Q_u, Q_f, Q_f]))
        u_star, *_ = np.linalg.lstsq(w[:, None] * M, -w * c, rcond=None)

        objective, constraints, weights = stabilization(Q_x, Q_u, Q_f)
        cfg = bl.SolverConfig(max_iters=2000, tol=1e-8)
        res = bl.solve(model, x0, None, 2, objective, constraints, weights, cfg)
        assert res.converged
        assert res.actions.flatten() == pytest.approx(u_star, abs=1e-6)

    def test_objective_never_increases(self):
        model = double_integrator()
        objective, _, weights = stabilization()
        constraints = ConstraintSet(inputs=[BoxConstraint((-0.2,), (0.2,))])
        weights = LossWeights(Q_x=1.0, Q_u=0.1, Q_f=5.0, Q_g=50.0)
        res = bl.solve(model, np.array([1.5, -0.5]), None, 4, objective,
                       constraints, weights, bl.SolverConfig(max_iters=200))
        diffs = np.diff(res.values)
        assert np.all(diffs <= 1e-15)
        assert res.values[-1] < res.values[0]

    def test_lq_neighbourhood_converges_at_the_float_floor(self):
        # tol 1e-8 sits near the floor of this problem's gradient: descent
        # without a curvature-scaled step stalled on null steps here
        model = dyn.LinearSystem(A=np.array([[1.2, 1.0], [0.0, 1.0]]),
                                 B=np.array([[1.0], [0.5]]))
        A, B = model.A, model.B
        Q_x, Q_u, Q_f = 1.0, 0.1, 5.0
        objective, constraints, weights = stabilization(Q_x, Q_u, Q_f)
        cfg = bl.SolverConfig(max_iters=2000, tol=1e-8)
        # x1 = A x0 + B u0, x2 = A^2 x0 + A B u0 + B u1
        M = np.zeros((6, 2))
        M[0:2, 0] = B[:, 0]
        M[2, 0] = 1.0
        M[3, 1] = 1.0
        M[4:6, 0] = (A @ B)[:, 0]
        M[4:6, 1] = B[:, 0]
        w = np.sqrt(np.array([Q_x, Q_x, Q_u, Q_u, Q_f, Q_f]))
        gen = np.random.default_rng(30)
        starts = np.array([1.0, 0.5]) + gen.uniform(-0.3, 0.3, size=(30, 2))
        for x0 in np.vstack([[1.0, 0.5], starts]):
            c = np.concatenate([A @ x0, [0.0, 0.0], A @ A @ x0])
            u_star, *_ = np.linalg.lstsq(w[:, None] * M, -w * c, rcond=None)
            res = bl.solve(model, x0, None, 2, objective, constraints, weights, cfg)
            assert res.converged, (x0, res.iterations)
            assert np.abs(res.actions.flatten() - u_star).max() <= 1e-6
            assert np.all(np.diff(res.values) <= 0.0)

    def test_stops_when_a_step_no_longer_moves_the_iterate(self):
        # tol 0 cannot be met in floating point: once the step is below the
        # iterate's resolution the search ends instead of accepting null
        # steps until the iteration cap
        model = dyn.LinearSystem(A=np.array([[1.2, 1.0], [0.0, 1.0]]),
                                 B=np.array([[1.0], [0.5]]))
        objective, constraints, weights = stabilization()
        res = bl.solve(model, np.array([1.0, 0.5]), None, 2, objective, constraints,
                       weights, bl.SolverConfig(max_iters=2000, tol=0.0))
        assert res.iterations < 2000
        assert np.all(np.diff(res.values) <= 0.0)

    def test_warm_start_at_optimum_exits_immediately(self):
        model = double_integrator()
        objective, constraints, weights = stabilization()
        cfg = bl.SolverConfig(max_iters=2000, tol=1e-8)
        first = bl.solve(model, np.array([0.8, 0.2]), None, 3, objective,
                         constraints, weights, cfg)
        again = bl.solve(model, np.array([0.8, 0.2]), None, 3, objective,
                         constraints, weights, cfg, warm_start=first.actions)
        assert again.converged
        assert again.iterations <= 1
        assert again.value == pytest.approx(first.value, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tol"):
            bl.SolverConfig(tol=-1.0)
        with pytest.raises(ValueError, match="max_iters"):
            bl.SolverConfig(max_iters=0)

    def test_shift_warm_start(self):
        shifted = bl.shift_warm_start(np.array([[1.0], [2.0], [3.0]]))
        assert shifted.tolist() == [[2.0], [3.0], [3.0]]


REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (REPO / "configs").glob("ex*.json"))


def eager_trial_solve(model, x0, xi, horizon, objective, constraints, weights, cfg,
                      warm_start=None):
    """The solver with eager line-search trials, which evaluates the accepted
    point a second time on a fresh tape for its gradient.  Returns the
    result and the number of line-search trials."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    xi = None if xi is None else np.atleast_2d(np.asarray(xi, dtype=np.float64))
    if warm_start is None:
        u = np.zeros((horizon, model.n_u))
    else:
        u = np.array(warm_start, dtype=np.float64).reshape(horizon, model.n_u)

    def value_at(u_mat):
        return bl._loss_parts(model, x0, xi, u_mat.reshape(1, -1), objective,
                              constraints, weights, horizon).total.item()

    result = bl.SolveResult(actions=u, value=value_at(u), iterations=0, converged=False)
    result.values.append(result.value)
    trial, prev, trials = bl.STEP0, None, 0
    for it in range(cfg.max_iters):
        tape = ad.Tape()
        plan = tape.param(u.reshape(1, -1))
        parts = bl._loss_parts(model, x0, xi, plan, objective, constraints, weights, horizon)
        grad = tape.backward(parts.total)[plan.node].reshape(horizon, model.n_u)
        f0 = parts.total.item()
        gnorm2 = float(np.sum(grad * grad))
        if np.sqrt(gnorm2) == 0.0 or np.max(np.abs(grad)) <= cfg.tol:
            result.converged = True
            break
        if prev is not None:
            s_k, y_k = u - prev[0], grad - prev[1]
            sy = float(np.sum(s_k * y_k))
            if sy > 0.0:
                trial = float(np.sum(s_k * s_k)) / sy
        step, accepted = trial, False
        for _ in range(bl.MAX_BACKTRACKS):
            candidate = u - step * grad
            if np.array_equal(candidate, u):
                break
            trials += 1
            f_new = value_at(candidate)
            if f_new <= f0 - bl.ARMIJO_C * step * gnorm2:
                prev = (u, grad)
                u = candidate
                result.values.append(f_new)
                accepted = True
                break
            step *= bl.BACKTRACK
        result.iterations = it + 1
        if not accepted:
            break
        trial = step * 2.0
    result.actions = u
    result.value = result.values[-1]
    return result, trials


def config_instances(name, count=3, max_iters=60):
    """A config's problem, its solver capped at ``max_iters``, and ``count``
    (x0, xi) instances drawn from its scenario spec."""
    cfg = load_config(REPO / "configs" / f"{name}.json")
    scenarios = sample_scenarios(cfg.params, cfg.noise, count, 1, cfg.horizon, cfg.seed)
    xis = [xi if xi.size else None for xi in scenarios.xi]
    solver = bl.SolverConfig(max_iters=min(cfg.solver.max_iters, max_iters), tol=cfg.solver.tol)
    problem = (cfg.model, cfg.horizon, cfg.objective, cfg.constraints, cfg.weights)
    return problem, solver, list(zip(scenarios.x0, xis))


@pytest.mark.parametrize("name", CONFIGS)
def test_taped_trials_solve_as_eager_trials_did(name, monkeypatch):
    (model, horizon, objective, constraints, weights), cfg, instances = config_instances(name)
    calls = []
    exact = obj.total_loss

    def counted(*args):
        calls.append(1)
        return exact(*args)

    prev = None
    for x0, xi in instances:
        warm = None if prev is None else bl.shift_warm_start(prev)
        want, trials = eager_trial_solve(model, x0, xi, horizon, objective, constraints,
                                         weights, cfg, warm_start=warm)
        calls.clear()
        monkeypatch.setattr(obj, "total_loss", counted)
        got = bl.solve(model, x0, xi, horizon, objective, constraints, weights, cfg,
                       warm_start=warm)
        monkeypatch.setattr(obj, "total_loss", exact)
        assert got.values == want.values
        assert np.array_equal(got.actions, want.actions)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        # one loss for the start and one per trial: an accepted trial's tape
        # gives the next gradient, so no point is evaluated twice
        assert len(calls) == 1 + trials
        prev = got.actions


class TestBenchmark:
    def make_policy(self, horizon):
        arch = pol.PolicyArchitecture(input_dim=2, hidden=(8,),
                                      output_dim=horizon, seed=4)
        return pol.init_policy(arch)

    def test_solves_repeats_times_and_warm_starts_from_the_last(self, monkeypatch):
        model = double_integrator()
        objective, constraints, weights = stabilization()
        horizon, repeats = 3, 3
        cfg = bl.SolverConfig(max_iters=25, tol=1e-6)
        instances = [(np.array([1.0, 0.0]), None), (np.array([0.5, -0.3]), None),
                     (np.array([-0.2, 0.4]), None)]
        warm_starts = []
        exact = bl.solve

        def counted(*args, warm_start=None):
            warm_starts.append(None if warm_start is None else warm_start.copy())
            return exact(*args, warm_start=warm_start)

        monkeypatch.setattr(bl, "solve", counted)
        bl.benchmark(self.make_policy(horizon), model, instances, horizon, objective,
                     constraints, weights, cfg, repeats=repeats)
        assert len(warm_starts) == len(instances) * repeats
        expect, prev = [], None
        for x0, xi in instances:
            warm = None if prev is None else bl.shift_warm_start(prev)
            expect += [warm] * repeats
            prev = exact(model, x0, xi, horizon, objective, constraints, weights, cfg,
                         warm_start=warm).actions
        assert all(np.array_equal(got, want) for got, want in zip(warm_starts, expect))

    def test_rows_and_csv_schema(self, tmp_path):
        model = double_integrator()
        objective, constraints, weights = stabilization()
        horizon = 3
        policy = self.make_policy(horizon)
        instances = [(np.array([1.0, 0.0]), None), (np.array([0.5, -0.3]), None)]
        rows = bl.benchmark(policy, model, instances, horizon, objective,
                            constraints, weights,
                            bl.SolverConfig(max_iters=25, tol=1e-6), repeats=2)
        assert [r.instance for r in rows] == [0, 1]
        for row in rows:
            assert row.policy_ns_mean > 0 and row.baseline_ns_mean > 0
            assert row.policy_ns_max >= row.policy_ns_mean
            assert row.baseline_ns_max >= row.baseline_ns_mean
            assert row.ratio == pytest.approx(row.baseline_ns_mean / row.policy_ns_mean)

        path = tmp_path / "benchmark.csv"
        bl.save_benchmark(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(bl.BENCHMARK_COLUMNS)
        import csv
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert float(back[0]["ratio"]) == rows[0].ratio
        assert int(back[1]["instance"]) == 1
