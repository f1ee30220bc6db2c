"""Online optimization baseline and the policy-vs-solver timing benchmark.

The baseline solves the deterministic penalized control problem at a given
initial state by BFGS on the open-loop action sequence, using the same tape
and loss as training (batch of one, disturbances off).  The inverse Hessian
is seeded from ``seed_hessian`` at the first iterate not yet converged and
updated by rank two after each move while s'y > 0 (Nocedal & Wright,
Numerical Optimization, 2006, ch. 6 and 8).  Each line search starts at the
full quasi-Newton step, backtracks until the Armijo condition holds (so the
objective never increases), and ``shift_warm_start`` turns a solution into
the warm start of the next receding-horizon step.  Each trial's loss is taped, and the accepted
trial's tape gives the next gradient, so a solve evaluates no point twice.

The benchmark times one decision of each method on the same instances:
a single policy forward pass against a single solve from zeros.
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
# seed Hessian: the forward-difference step, and the floor on its absolute
# eigenvalues relative to the largest
FD_STEP = 1e-6
EIG_FLOOR = 1e-8


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
        np.zeros((x0.shape[0], horizon, model.n_x)), dyn.FULL_HORIZON)
    return obj.total_loss(states, actions, xi, objective, constraints, weights)


def seed_hessian(model, x0, xi, u, objective, constraints, weights, horizon):
    """Forward-difference Hessian of the loss at the flat plan ``u``, made
    positive definite: one taped pass at batch n + 1 over the rows u and
    u + FD_STEP e_j gives all n columns at once."""
    n = u.size
    rows = np.vstack([u, u + FD_STEP * np.eye(n)])
    plan = ad.Tape().param(rows)
    loss = _loss_parts(model, np.repeat(x0, n + 1, axis=0),
                       None if xi is None else np.repeat(xi, n + 1, axis=0),
                       plan, objective, constraints, weights, horizon).total
    # the loss averages over the batch: scale each row back to its own gradient
    grads = loss.tape.backward(loss)[plan.node] * (n + 1)
    hess = (grads[1:] - grads[0]) / FD_STEP
    lam, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    lam = np.abs(lam)
    return (vecs * np.maximum(lam, EIG_FLOOR * lam.max())) @ vecs.T


def solve(model, x0, xi, horizon, objective, constraints, weights,
          cfg: SolverConfig = SolverConfig(), warm_start=None) -> SolveResult:
    """Descend the penalized objective from ``warm_start`` (zeros if absent)."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(1, -1)
    xi = None if xi is None else np.asarray(xi, dtype=np.float64).reshape(1, -1)
    if warm_start is None:
        u = np.zeros(horizon * model.n_u)
    else:
        u = np.array(warm_start, dtype=np.float64).reshape(horizon * model.n_u)

    def taped(u_flat):
        """The loss at ``u_flat`` on a fresh tape and the plan's node on it."""
        plan = ad.Tape().param(u_flat.reshape(1, -1))
        return _loss_parts(model, x0, xi, plan, objective, constraints, weights,
                           horizon).total, plan.node

    loss, plan_id = taped(u)
    result = SolveResult(actions=u, value=loss.item(), iterations=0, converged=False)
    result.values.append(result.value)
    inverse = None  # BFGS inverse Hessian, seeded at the first unconverged iterate
    prev = None  # (iterate, gradient) of the last iteration
    for it in range(cfg.max_iters):
        grad = loss.tape.backward(loss)[plan_id].reshape(-1)
        f0 = loss.item()
        if np.max(np.abs(grad)) <= cfg.tol:
            result.converged = True
            break
        if inverse is None:
            inverse = np.linalg.inv(seed_hessian(model, x0, xi, u, objective,
                                                 constraints, weights, horizon))
        else:
            # rank-2 BFGS update of the inverse Hessian from the last move,
            # skipped when the curvature condition s'y > 0 fails
            s_k, y_k = u - prev[0], grad - prev[1]
            sy = float(s_k @ y_k)
            if sy > 0.0:
                v = np.eye(u.size) - np.outer(s_k, y_k) / sy
                inverse = v @ inverse @ v.T + np.outer(s_k, s_k) / sy
        direction = -(inverse @ grad)
        slope = float(grad @ direction)
        step = STEP0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = u + step * direction
            if np.array_equal(candidate, u):
                break  # the step no longer moves any component
            trial_loss, trial_id = taped(candidate)
            f_new = trial_loss.item()
            # <=, not f_new < f0: at the float floor steps that leave f unchanged
            # still move u toward the optimum, and a strict decrease stops some
            # LQ starts unconverged (test_lq_neighbourhood_converges_at_the_float_floor)
            if f_new <= f0 + ARMIJO_C * step * slope:
                prev = (u, grad)
                u, loss, plan_id = candidate, trial_loss, trial_id
                result.values.append(f_new)
                accepted = True
                break
            step *= BACKTRACK
        result.iterations = it + 1
        if not accepted:
            break  # no productive step at the smallest trial size
    result.actions = u.reshape(horizon, model.n_u)
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
    iterations: int              # of the last timed solve
    converged: int               # 1 when the last timed solve converged


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
    """Time one policy decision against one solve per instance.

    ``instances`` is a list of independent (x0, xi-or-None) draws, so every
    solve starts from zeros: no instance's plan says anything about another's.
    """
    rows = []
    for t, (x0, xi) in enumerate(instances):
        x0 = np.asarray(x0, dtype=np.float64)
        xi = None if xi is None else np.asarray(xi, dtype=np.float64)
        decide = lambda: pol.forward(policy, x0, xi)
        decide()  # warm-up
        p_mean, p_max, _ = _time_ns(decide, repeats)
        b_mean, b_max, solved = _time_ns(
            lambda: solve(model, x0, xi, horizon, objective, constraints, weights, cfg),
            repeats)
        rows.append(BenchmarkRow(
            instance=t, policy_ns_mean=p_mean, policy_ns_max=p_max,
            baseline_ns_mean=b_mean, baseline_ns_max=b_max,
            ratio=b_mean / p_mean, iterations=solved.iterations,
            converged=int(solved.converged)))
    return rows


def save_benchmark(rows, path) -> None:
    write_csv(path, BENCHMARK_COLUMNS, (dataclasses.astuple(row) for row in rows))
