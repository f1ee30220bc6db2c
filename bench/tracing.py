"""Spans recorded around spdpc's public functions, and the per-layer metrics.

A traced pass replaces module attributes such as ``objectives.total_loss``
and ``autodiff.Tape.backward`` with wrappers that record a span (name,
phase, parent span, start, end) and put the originals back afterwards.
Nothing under ``src/`` changes: the wrappers only see arguments, return
values and public state such as ``Tape.nodes``.  Spans stay in memory and
are reduced to metrics once the pass is over.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

from spdpc import autodiff, certify, config, dynamics, objectives, policy, sampling, trainer

from stats import percentile

# Every op kind spdpc's tape records; kinds added later count as "other".
OP_KINDS = ("leaf", "param", "add", "subtract", "multiply", "matmul", "relu",
            "square", "sum", "mean", "scale", "concat", "narrow", "transpose",
            "l2norm")


class Span:
    __slots__ = ("name", "phase", "parent", "t0", "t1", "hidden0", "hidden1", "data")

    def __init__(self, name, phase, parent):
        self.name, self.phase, self.parent = name, phase, parent
        self.t0 = self.t1 = self.hidden0 = self.hidden1 = 0
        self.data = None

    @property
    def ns(self) -> int:
        """Wall time minus the tracer's own bookkeeping inside the span."""
        return (self.t1 - self.t0) - (self.hidden1 - self.hidden0)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._hidden = 0
        self._patches = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self.phase, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.hidden0 = self._hidden
        s.t0 = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.t1 = time.perf_counter_ns()
            s.hidden1 = self._hidden
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = original(*args, **kwargs)
                if after is not None:
                    t = time.perf_counter_ns()
                    after(tracer, s, args, out)
                    tracer._hidden += time.perf_counter_ns() - t
            return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap spdpc's layer boundaries for the duration of the block."""
        self._wrap(config, "load_config", "config.load")
        self._wrap(sampling, "sample_scenarios", "sampling.sample", _count_draws)
        self._wrap(dynamics, "rollout_tensors", "dynamics.rollout")
        self._wrap(objectives, "total_loss", "objectives.total_loss")
        self._wrap(autodiff.Tape, "backward", "autodiff.backward", _census)
        self._wrap(trainer, "policy_gradient", "trainer.policy_gradient")
        self._wrap(trainer, "adamw_step", "trainer.adamw")
        self._wrap(trainer, "evaluate", "trainer.evaluate")
        self._wrap(policy, "apply_layers", "policy.apply_layers")
        self._wrap(certify, "satisfied", "certify.satisfied")
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def _count_draws(tracer, span, args, out):
    """sample_scenarios(spec, noise, m, s, ...) opens one substream per draw."""
    spec, _, m, s = args[:4]
    span.data = m + s + (m if spec.xi_dim else 0)


def _matmul_flops(a_shape, b_shape) -> int:
    rows = a_shape[0] if len(a_shape) == 2 else 1
    cols = b_shape[1] if len(b_shape) == 2 else 1
    return 2 * rows * a_shape[-1] * cols


def _census(tracer, span, args, grads):
    """Node count by kind and computed matmul FLOPs of a training-step tape.

    A matmul the reverse sweep reached costs two more products of its own
    size (one per operand adjoint), so it counts three times.
    """
    if tracer.phase != "train":
        return
    tape = args[0]
    kinds = Counter()
    flops = 0
    for nid, node in enumerate(tape.nodes):
        kinds[node.kind if node.kind in OP_KINDS else "other"] += 1
        if node.kind == "matmul":
            a, b = node.input_values
            flops += _matmul_flops(a.shape, b.shape) * (3 if nid in grads else 1)
    span.data = (len(tape.nodes), kinds, flops)


# ---------------------------------------------------------------------------
# reduction to metrics

def _mean_ms(spans, what: str) -> float:
    if not spans:
        raise RuntimeError(f"traced pass recorded no {what} spans")
    return sum(s.ns for s in spans) / len(spans) / 1e6


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass: ({name: (value, unit)}, sample counts)."""
    spans = tracer.spans

    def named(name, phase):
        return [s for s in spans if s.name == name and s.phase == phase]

    def under(span, name):
        """Nearest enclosing span called ``name``, or None."""
        i = span.parent
        while i >= 0:
            if spans[i].name == name:
                return spans[i]
            i = spans[i].parent
        return None

    def in_steps(name):
        return [s for s in named(name, "train") if under(s, "trainer.policy_gradient")]

    grads = named("trainer.policy_gradient", "train")
    updates = named("trainer.adamw", "train")
    if not grads or len(grads) != len(updates):
        raise RuntimeError(f"{len(grads)} gradient spans against {len(updates)} updates")
    steps = len(grads)
    step_ms = [((u.t1 - g.t0) - (u.hidden1 - g.hidden0)) / 1e6 for g, u in zip(grads, updates)]
    losses = in_steps("objectives.total_loss")
    backwards = in_steps("autodiff.backward")
    census = [s.data for s in backwards if s.data is not None]
    kinds = Counter()
    for _, counted, _ in census:
        kinds.update(counted)
    flops = sum(c[2] for c in census)
    applies = in_steps("policy.apply_layers")
    eager = [s for s in spans if s.name == "dynamics.rollout"
             and s.phase in ("train", "heldout", "certify")
             and not under(s, "trainer.policy_gradient")]
    evaluates = named("trainer.evaluate", "train")
    train_runs = named("bench.train_run", "train")
    blocks = named("bench.certify_block", "certify")
    satisfied = named("certify.satisfied", "certify")
    solves = named("bench.solve", "solve")
    solve_losses = named("objectives.total_loss", "solve")
    setup_samples = named("sampling.sample", "setup")

    m = {
        "objectives.total_loss_ms": (_mean_ms(losses, "training loss"), "ms"),
        "objectives.calls_per_step": (len(losses) / steps, "count"),
        "objectives.solve_call_ms": (_mean_ms(solve_losses, "solver loss"), "ms"),
        "objectives.solve_share": (sum(s.ns for s in solve_losses)
                                   / sum(s.ns for s in solves), "fraction"),
        "autodiff.backward_ms": (_mean_ms(backwards, "backward"), "ms"),
        "autodiff.tape_nodes": (sum(c[0] for c in census) / len(census), "count"),
    }
    for kind in OP_KINDS + ("other",):
        m[f"autodiff.nodes.{kind}"] = (kinds[kind] / len(census), "count")
    m.update({
        "autodiff.matmul_flops": (flops / len(census), "FLOP"),
        "autodiff.gflops": (flops / sum(g.ns for g in grads), "GFLOP/s"),
        "dynamics.rollout_ms.taped": (_mean_ms(in_steps("dynamics.rollout"), "taped rollout"), "ms"),
        "dynamics.rollout_ms.eager": (_mean_ms(eager, "eager rollout"), "ms"),
        "policy.apply_layers_ms": (_mean_ms(applies, "apply_layers"), "ms"),
        "policy.calls_per_step": (len(applies) / steps, "count"),
        "trainer.step_ms.p50": (percentile(step_ms, 50), "ms"),
        "trainer.step_ms.p99": (percentile(step_ms, 99), "ms"),
        "trainer.policy_gradient_ms": (_mean_ms(grads, "policy_gradient"), "ms"),
        "trainer.adamw_ms": (_mean_ms(updates, "adamw"), "ms"),
        "trainer.evaluate_ms": (_mean_ms(evaluates, "dev evaluation"), "ms"),
        "trainer.evaluate_share": (sum(s.ns for s in evaluates)
                                   / sum(s.ns for s in train_runs), "fraction"),
        "certify.rollout_ms": (_mean_ms(named("dynamics.rollout", "certify"),
                                        "certification rollout"), "ms"),
        "certify.satisfied_ms": (_mean_ms(satisfied, "satisfied"), "ms"),
        "certify.satisfied_share": (sum(s.ns for s in satisfied)
                                    / sum(s.ns for s in blocks), "fraction"),
        "sampling.sample_ms": (sum(s.ns for s in setup_samples) / 1e6, "ms"),
        "sampling.draws": (sum(s.data for s in setup_samples), "count"),
        "config.load_ms": (sum(s.ns for s in named("config.load", "setup")) / 1e6, "ms"),
    })
    samples = {
        "trainer.step_ms.p50": steps,
        "trainer.step_ms.p99": steps,
        "objectives.solve_call_ms": len(solve_losses),
    }
    return m, samples
