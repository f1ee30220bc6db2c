"""Online optimization baseline and the policy-vs-solver timing benchmark.

The baseline solves the deterministic penalized control problem at a given
initial state by gradient descent on the open-loop action sequence, using
the same tape and loss as training (batch of one, disturbances off).  Each
line search starts from the Barzilai-Borwein step s's / s'y of the last two
iterates, backtracks until the Armijo condition holds (so the objective
never increases), and a shifted previous solution warm-starts the next
receding-horizon step.  Each trial's loss is taped, and the accepted trial's
tape gives the next gradient, so a solve evaluates no point twice.

The benchmark times one decision of each method on the same instances:
a single policy forward pass against a single warm-started solve.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import dynamics as dyn
from . import objectives as obj
from . import policy as pol
from .files import write_csv


# line search: the first trial step, the Armijo sufficient-decrease constant,
# the backtracking factor and the trials allowed per iteration
STEP0 = 1.0
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-8           # stop when the gradient infinity norm drops below

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise ValueError(f"tol must be non-negative, got {self.tol}")


@dataclass
class SolveResult:
    actions: np.ndarray          # (N, n_u)
    value: float
    iterations: int
    converged: bool
    values: list = field(default_factory=list)  # objective after each accepted step


def _loss_parts(model, x0, xi, plan, objective, constraints, weights, horizon):
    states, actions = dyn.rollout_tensors(
        model, lambda z: plan, x0, xi,
        np.zeros((1, horizon, model.n_x)), dyn.FULL_HORIZON)
    return obj.total_loss(states, actions, xi, objective, constraints, weights)


def solve(model, x0, xi, horizon, objective, constraints, weights,
          cfg: SolverConfig = SolverConfig(), warm_start=None) -> SolveResult:
    """Descend the penalized objective from ``warm_start`` (zeros if absent)."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(1, -1)
    xi = None if xi is None else np.asarray(xi, dtype=np.float64).reshape(1, -1)
    if warm_start is None:
        u = np.zeros((horizon, model.n_u))
    else:
        u = np.array(warm_start, dtype=np.float64).reshape(horizon, model.n_u)

    def taped(u_mat):
        """The loss at ``u_mat`` on a fresh tape and the plan's node on it."""
        plan = ad.Tape().param(u_mat.reshape(1, -1))
        return _loss_parts(model, x0, xi, plan, objective, constraints, weights,
                           horizon).total, plan.node

    loss, plan_id = taped(u)
    result = SolveResult(actions=u, value=loss.item(), iterations=0, converged=False)
    result.values.append(result.value)
    trial = STEP0
    prev = None  # (iterate, gradient) of the last iteration
    for it in range(cfg.max_iters):
        grad = loss.tape.backward(loss)[plan_id].reshape(horizon, model.n_u)
        f0 = loss.item()
        gnorm2 = float(np.sum(grad * grad))
        if np.sqrt(gnorm2) == 0.0 or np.max(np.abs(grad)) <= cfg.tol:
            result.converged = True
            break
        if prev is not None:
            # Barzilai-Borwein: the secant step length s's / s'y of the last
            # move, which tracks the curvature along it; otherwise keep
            # doubling the last accepted step
            s_k, y_k = u - prev[0], grad - prev[1]
            sy = float(np.sum(s_k * y_k))
            if sy > 0.0:
                trial = float(np.sum(s_k * s_k)) / sy
        step = trial
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = u - step * grad
            if np.array_equal(candidate, u):
                break  # the step no longer moves any component
            trial_loss, trial_id = taped(candidate)
            f_new = trial_loss.item()
            # <=, not f_new < f0: at the float floor steps that leave f unchanged
            # still move u toward the optimum, and a strict decrease stops some
            # LQ starts unconverged (test_lq_neighbourhood_converges_at_the_float_floor)
            if f_new <= f0 - ARMIJO_C * step * gnorm2:
                prev = (u, grad)
                u, loss, plan_id = candidate, trial_loss, trial_id
                result.values.append(f_new)
                accepted = True
                break
            step *= BACKTRACK
        result.iterations = it + 1
        if not accepted:
            break  # no productive step at the smallest trial size
        trial = step * 2.0
    result.actions = u
    result.value = result.values[-1]
    return result


def shift_warm_start(actions: np.ndarray) -> np.ndarray:
    """Drop the executed first action, repeat the last one."""
    actions = np.asarray(actions, dtype=np.float64)
    return np.concatenate([actions[1:], actions[-1:]], axis=0)


# ---------------------------------------------------------------------------
# timing

@dataclass
class BenchmarkRow:
    instance: int
    policy_ns_mean: float
    policy_ns_max: int
    baseline_ns_mean: float
    baseline_ns_max: int
    ratio: float


BENCHMARK_COLUMNS = tuple(f.name for f in dataclasses.fields(BenchmarkRow))


def _time_ns(fn, repeats: int):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        out = fn()
        samples.append(time.perf_counter_ns() - t0)
    return float(np.mean(samples)), int(np.max(samples)), out


def benchmark(policy, model, instances, horizon, objective, constraints,
              weights, cfg: SolverConfig = SolverConfig(), repeats: int = 5):
    """Time one policy decision against one warm-started solve per instance.

    ``instances`` is a list of (x0, xi-or-None).  The solver for instance t
    warm starts from the shifted solution of instance t-1, matching how it
    would run inside a receding-horizon loop.
    """
    rows = []
    prev = None
    for t, (x0, xi) in enumerate(instances):
        pol.forward(policy, np.asarray(x0, dtype=np.float64),
                    None if xi is None else np.asarray(xi, dtype=np.float64))
        p_mean, p_max, _ = _time_ns(
            lambda: pol.forward(policy, np.asarray(x0, dtype=np.float64),
                                None if xi is None else np.asarray(xi, dtype=np.float64)),
            repeats)
        warm = None if prev is None else shift_warm_start(prev)
        b_mean, b_max, solved = _time_ns(
            lambda: solve(model, x0, xi, horizon, objective, constraints,
                          weights, cfg, warm_start=warm),
            repeats)
        prev = solved.actions
        rows.append(BenchmarkRow(
            instance=t, policy_ns_mean=p_mean, policy_ns_max=p_max,
            baseline_ns_mean=b_mean, baseline_ns_max=b_max,
            ratio=b_mean / p_mean))
    return rows


def save_benchmark(rows, path) -> None:
    write_csv(path, BENCHMARK_COLUMNS, (dataclasses.astuple(row) for row in rows))
