"""spdpc benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload obstacle --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of one untraced
pass.  With ``--trace 1`` it makes the same untraced pass, then a traced
pass over the same inputs, checks that both produced bit-identical results
and reports the per-layer metrics.  Outputs are checked against plain-numpy
references (see reference.py); any failed check makes ``correct`` false and
the exit status 1.  The last line of standard output is the result as JSON;
the line before it is a JSON report with the environment, the sample count
behind each metric and, for traced training workloads, projected
paper-scale train time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext

import bootstrap

SETUP_RUNS = 5           # child processes timed for setup_s; the median is reported
SETUP_TIMEOUT_S = 150
WORKLOAD_NAMES = ("obstacle", "double_integrator", "quadcopter_online")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds scenario sampling, shuffles and deployment inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; work per run scales with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must sit in [0, 2**32)")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must sit in (0, 600]")
    return args


def measure_setup(args) -> list[float]:
    """Seconds from process spawn to a finished set-up, one child per sample."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(bootstrap.BENCH / "setup_probe.py"), args.workload,
             str(args.seed), repr(args.seconds)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return times


# ---------------------------------------------------------------------------
# environment record

def git_revision() -> str:
    head = bootstrap.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = bootstrap.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = bootstrap.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: unresolved {name}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": bootstrap.THREADS,
        "thread_env": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


# ---------------------------------------------------------------------------
# metrics

def solve_estimates_ms(run) -> list[float]:
    """Each solve rebuilt from its own unit counts at the units' uncontended cost."""
    import stats
    return [sum(n * stats.fast(run.units[kind]) for kind, n in counts.items()) * 1e3
            for counts in run.solve_units]


def epoch_estimate_s(s, run) -> float:
    """One epoch rebuilt from units: every rollout's share of each step unit at
    its uncontended cost, plus one dev evaluation."""
    import stats
    per_rollout = sum(len(v) / run.train_steps * stats.fast(v)
                      for kind, v in run.units.items()
                      if kind.startswith("train.") and kind != "train.evaluate")
    return s.train_set.size * per_rollout + stats.fast(run.units["train.evaluate"])


def end_to_end(setup_s, s, run) -> tuple[dict, dict]:
    """Metrics of the untraced pass: ({name: (value, unit)}, sample counts)."""
    import statistics

    import stats
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    size = s.train_set.size
    block_pairs = s.work.cert_block_m * s.cert_set.s
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_rollouts_per_s": (size / epoch_estimate_s(s, run), "1/s"),
        "certify_scenarios_per_s": (block_pairs / stats.fast(run.units["certify.block"]),
                                    "1/s"),
        f"decision_us.p{stats.FAST_Q}": (stats.fast(run.decision_ns) / 1e3, "us"),
        "solve_ms.p50": (statistics.median(solve_estimates_ms(run)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ops_ok_frac": (1.0 - failed / attempted, "fraction"),
        "heldout_loss": (float(run.heldout_loss), "1"),
    }
    q = f"p{stats.FAST_Q}"
    samples = {
        "setup_s": f"median of {len(setup_s)} processes",
        "train_rollouts_per_s": f"epoch of {size} rollouts rebuilt from {run.train_steps} "
                                f"steps and {len(run.units['train.evaluate'])} dev "
                                f"evaluations, {q} of each unit kind",
        "certify_scenarios_per_s": f"{q} of {len(run.units['certify.block'])} blocks of "
                                   f"{block_pairs} scenario pairs",
        f"decision_us.p{stats.FAST_Q}": f"{q} of {run.decision_ns.size} decisions",
        "solve_ms.p50": f"median over {len(run.solve_units)} solves, each rebuilt from "
                        f"its units at {q} of each unit kind",
        "ops_ok_frac": f"{attempted} operations",
        "heldout_loss": f"{s.work.heldout_m * s.cert_set.s} scenario pairs",
    }
    return metrics, samples


def same_results(a, b) -> list[str]:
    """Names of outputs that differ between two passes over the same inputs."""
    import numpy as np
    differ = []
    if a.dev_loss != b.dev_loss:
        differ.append("dev_loss")
    if a.heldout_loss != b.heldout_loss:
        differ.append("heldout_loss")
    if not np.array_equal(a.flags, b.flags):
        differ.append("certify pass flags")
    if not np.array_equal(a.actions, b.actions):
        differ.append("decisions")
    if [r and r.values for r in a.solves] != [r and r.values for r in b.solves]:
        differ.append("solver values")
    return differ


def per_layer(plain, traced, tracer) -> tuple[dict, dict]:
    """Metrics of the traced pass, plus the raw-numpy floor from the untraced one."""
    import stats
    import tracing
    from workloads import ROUNDS
    metrics, samples = tracing.layer_metrics(tracer)
    rounds = plain.decision_ns.reshape(ROUNDS, -1).tolist()
    floor_us = stats.round_median(plain.floor_ns.reshape(ROUNDS, -1).tolist(), 50) / 1e3
    decision_us = stats.round_median(rounds, 50) / 1e3
    solved = [r for r in traced.solves if r is not None]
    iterations = sum(r.iterations for r in solved)
    loss_calls = sum(1 for sp in tracer.spans
                     if sp.name == "objectives.total_loss" and sp.phase == "solve")
    accepted = sum(len(r.values) - 1 for r in solved)
    metrics.update({
        "policy.numpy_floor_us.p50": (floor_us, "us"),
        "policy.floor_ratio": (decision_us / floor_us, "ratio"),
        "policy.decision_us.p99": (stats.percentile(plain.decision_ns, 99) / 1e3, "us"),
        "trainer.best_dev_loss": (float(traced.dev_loss), "1"),
        "certify.success_frac": (float(traced.flags.mean()), "fraction"),
        "baseline.iterations": (iterations / len(solved), "count"),
        "baseline.converged_frac": (sum(r.converged for r in solved) / len(solved), "fraction"),
        "baseline.loss_evals_per_iter": (loss_calls / iterations, "count"),
        "baseline.accepted_per_eval": (accepted / loss_calls, "fraction"),
        "baseline.iter_ms": (sum(traced.solve_ms) / iterations, "ms"),
        "trace.overhead_frac": (sum(traced.phase_s.values()) / sum(plain.phase_s.values()) - 1.0,
                                "fraction"),
    })
    samples.update({
        "policy.numpy_floor_us.p50": int(plain.floor_ns.size),
        "policy.decision_us.p99": int(plain.decision_ns.size),
        "baseline.iterations": len(solved),
        "certify.success_frac": int(traced.flags.size),
    })
    return metrics, samples


def units(run) -> dict:
    """Count, fast percentile and median of each unit kind, in seconds
    (train.* other than train.evaluate: seconds per rollout)."""
    import stats
    kinds = {**run.units, "decide.decision": run.decision_ns / 1e9}
    return {name: {"n": len(v), f"p{stats.FAST_Q}": stats.fast(v),
                   "p50": stats.percentile(v, 50)}
            for name, v in sorted(kinds.items())}


def projection(s, metrics) -> dict | None:
    """Paper-scale train time from the traced step and dev-evaluation cost.

    Assumes a step costs the same at the full config's minibatch size and
    that dev evaluation scales with the dev split's size.  Informational.
    """
    if s.work.full_config is None:
        return None
    import numpy as np
    from spdpc import config, sampling
    full = config.load_config(bootstrap.CONFIGS / f"{s.work.full_config}.json")
    probe = sampling.ScenarioSet(np.zeros((full.m, 0)), np.zeros((full.m, 0)),
                                 np.zeros((full.s, 1, 0)), 0)
    train_set, dev_set, _ = sampling.split(probe, full.splits)
    steps = full.train.epochs * math.ceil(train_set.size / full.train.minibatch)
    step_ms = metrics["trainer.step_ms.p50"][0]
    eval_ms = metrics["trainer.evaluate_ms"][0] * dev_set.size / s.dev_set.size
    seconds = (steps * step_ms + full.train.epochs * eval_ms) / 1e3
    return {"config": s.work.full_config, "epochs": full.train.epochs, "steps": steps,
            "step_ms": step_ms, "evaluate_ms": eval_ms, "train_s": seconds,
            "train_h": seconds / 3600}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin_threads()
    bootstrap.use_checkout_source()
    import tracing
    import workloads

    setup_s = [] if args.trace else measure_setup(args)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        s = workloads.setup(args.workload, args.seed, args.seconds)
    plain = workloads.run_pass(s)
    runs = [plain]
    differ = []
    if tracer:
        with tracer.installed():
            traced = workloads.run_pass(s, tracer)
        runs.append(traced)
        differ = same_results(plain, traced)

    attempted = sum(sum(r.attempted.values()) for r in runs)
    failed = sum(sum(r.failed.values()) for r in runs) + len(differ)
    if tracer:
        metrics, samples = per_layer(plain, traced, tracer)
    else:
        metrics, samples = end_to_end(setup_s, s, plain)

    report = {
        "environment": environment(args),
        "sizes": vars(s.work),
        "samples": samples,
        "phase_s": {"untraced": plain.phase_s, **({"traced": traced.phase_s} if tracer else {})},
        "setup_s_samples": setup_s,
        "units": units(plain),
        "solve_ms": {"measured": plain.solve_ms, "rebuilt": solve_estimates_ms(plain)},
        "attempted": dict(sum((r.attempted for r in runs), Counter())),
        "failures": [n for r in runs for n in r.notes] + [f"traced pass changed {d}"
                                                          for d in differ],
    }
    if tracer:
        report["projected_full_train"] = projection(s, metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit:10s} n={samples.get(name, 1)}")
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
