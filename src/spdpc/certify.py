"""Sampling-based certification of a trained policy.

Rolls the closed loop over a fresh scenario set, scores every scenario with
an exact pass/fail indicator (no penalty smoothing), and turns the observed
success fraction into a distribution-free lower confidence bound on the true
success probability via Hoeffding's inequality.  The policy certifies at
level beta when that lower bound reaches beta.  ``run_certification`` is the
one composition, used by ``spdpc certify`` and ``bench/`` (whose calls keep its
``terminal`` argument); its report counts each checked constraint's failing pairs.

The indicator reads the residuals the training penalty reads, on the
blocks that ``objectives.rollout_blocks`` cuts for both: state and input
constraints at steps 0..N-1, the terminal set at step N, each met when
every residual is <= 0, so a trajectory that rides a boundary still
passes.  Training margins and the contraction term shape the loss only and
are not part of the pass/fail decision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dynamics as dyn
from .files import write_json
from .objectives import rollout_blocks


def _rows_ok(residuals) -> np.ndarray:
    """True per scenario where every residual of its (b, ...) block is <= 0."""
    vals = residuals.values
    return np.all(vals.reshape(vals.shape[0], -1) <= 0.0, axis=1)


def satisfied(states, actions, xi, constraints) -> np.ndarray:
    """Exact (b, K) pass flags over stacked rollouts, one column per entry
    of ``constraints.checked()``; a scenario succeeds when its row is all True.

    ``states`` is (b, N+1, n_x), ``actions`` (b, N, n_u), ``xi`` (b, d) or
    None.  Each constraint is checked once over its part's block of
    ``objectives.rollout_blocks``, the blocks the training loss charges.
    """
    blocks = rollout_blocks(states, actions)
    checked = constraints.checked()
    passes = np.ones((blocks["inputs"].values.shape[0], len(checked)), dtype=bool)
    for k, (part, c) in enumerate(checked):
        passes[:, k] = _rows_ok(c.residuals(blocks[part], xi))
    return passes


def empirical_risk(policy, model, scenarios, constraints, mode, chunk: int = 1024):
    """Success fraction and the (pairs, K) pass flags of ``satisfied``, in pair order."""
    passes = np.zeros((scenarios.size, len(constraints.checked())), dtype=bool)
    for idx, xi, states, actions in dyn.rollout_pairs(model, policy, scenarios, mode, chunk):
        passes[idx] = satisfied(states.values, actions.values, xi, constraints)
    return float(passes.all(axis=1).mean()), passes


def hoeffding_alpha(r: int, delta: float) -> float:
    """One-sided Hoeffding margin sqrt(-ln(delta / 2) / (2 r))."""
    if r < 1:
        raise ValueError(f"need at least one sample, got r={r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must sit in (0, 1), got {delta}")
    return math.sqrt(-math.log(delta / 2.0) / (2.0 * r))


@dataclass(frozen=True)
class CertificationReport:
    r: int
    m: int
    s: int
    beta: float
    delta: float
    mu_tilde: float
    alpha: float
    lower_bound: float
    verdict: bool
    policy_checkpoint: str
    seed: int
    failures: tuple = ()  # {"part", "kind", "failed"} per entry of constraints.checked()

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))


def certify(mu_tilde: float, r: int, m: int, s: int, beta: float, delta: float,
            policy_checkpoint: str = "", seed: int = 0, failures=()) -> CertificationReport:
    """Apply the confidence margin; certified iff mu_tilde - alpha >= beta."""
    if not 0.0 <= mu_tilde <= 1.0:
        raise ValueError(f"mu_tilde must sit in [0, 1], got {mu_tilde}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must sit in (0, 1], got {beta}")
    alpha = hoeffding_alpha(r, delta)
    lower = mu_tilde - alpha
    return CertificationReport(
        r=r, m=m, s=s, beta=float(beta), delta=float(delta),
        mu_tilde=float(mu_tilde), alpha=alpha, lower_bound=lower,
        verdict=bool(lower >= beta), policy_checkpoint=str(policy_checkpoint),
        seed=int(seed), failures=failures)


def run_certification(policy, model, scenarios, constraints, terminal, mode,
                      beta, delta, policy_checkpoint="", chunk: int = 1024):
    """Roll, score and bound in one call; returns (report, per-pair pass flags).

    ``terminal`` is the set checked at step N in place of ``constraints.terminal``.
    """
    constraints = replace(constraints, terminal=terminal)
    mu_tilde, passes = empirical_risk(policy, model, scenarios, constraints, mode, chunk=chunk)
    failures = [{"part": part, "kind": c.kind,
                 "failed": scenarios.size - int(np.count_nonzero(passes[:, k]))}
                for k, (part, c) in enumerate(constraints.checked())]
    report = certify(mu_tilde, scenarios.size, scenarios.m, scenarios.s,
                     beta, delta, policy_checkpoint, scenarios.seed, failures)
    return report, passes.all(axis=1)


def save_report(report: CertificationReport, path) -> None:
    write_json(path, asdict(report))

