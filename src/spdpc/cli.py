"""Command line pipeline: train, certify, simulate, benchmark.

Every command reads one experiment config, writes its artifacts into
--out and finishes with a manifest.json listing what it produced plus the
config hash and seed, so a directory is self-describing.  Scenario sets are
never written out: train and certify draw their train, dev and test splits
from the seed, so one seed always means the same scenarios.  Heavy imports
happen after argument parsing so --threads can pin the BLAS thread count
through the environment before numpy loads; without the flag one thread is
pinned, so a run's bytes do not depend on the host's core count.

Exit codes: 0 on success (a negative certification verdict is still a
success), 1 for bad input (usage errors, config errors, missing files,
flags out of range), 2 when a run fails underway (e.g. training diverges).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

from . import __version__
from .files import write_csv, write_json


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment JSON file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP threads (default 1)")

    needs_policy = argparse.ArgumentParser(add_help=False)
    needs_policy.add_argument("--checkpoint", required=True,
                              help="trained policy JSON")

    parser = argparse.ArgumentParser(
        prog="spdpc",
        description="offline policy learning and certification for "
                    "stochastic linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    train = sub.add_parser("train", parents=[common],
                           help="optimize a policy and save the best checkpoint")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       help="also save the policy every K epochs")
    sub.add_parser("certify", parents=[common, needs_policy],
                   help="score a policy on the test split and bound its risk")
    simulate = sub.add_parser("simulate", parents=[common, needs_policy],
                              help="receding-horizon closed-loop runs")
    simulate.add_argument("--count", type=int, default=None)
    simulate.add_argument("--steps", type=int, default=None)
    bench = sub.add_parser("benchmark", parents=[common, needs_policy],
                           help="time policy evaluation against online solving")
    bench.add_argument("--instances", type=int, default=None)
    return parser


def _write_manifest(out: Path, command: str, config_path: Path, seed: int,
                    threads: int, artifacts, wall_s: float) -> None:
    import numpy as np

    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config": config_path.name,
        "config_sha256": digest,
        "seed": seed,
        "threads": threads,  # bytes repeat only at the same count (README)
        "versions": {"spdpc": __version__, "numpy": np.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
        "artifacts": sorted(str(a) for a in artifacts),
        "created_unix_ns": time.time_ns(),
        "wall_s": wall_s,
    }
    write_json(out / "manifest.json", manifest)


def _sampled_splits(cfg, seed):
    from .sampling import sample_scenarios, split
    scen = sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon, seed)
    return split(scen, cfg.splits)


def run_train(cfg, seed: int, out: Path, checkpoint_every: int = 0):
    from . import svg
    from .policy import init_policy, save_checkpoint
    from .trainer import save_history, train

    train_set, dev_set, _ = _sampled_splits(cfg, seed)
    policy = init_policy(cfg.arch)
    artifacts = []

    def on_epoch(epoch, current, dev_loss):
        if checkpoint_every > 0 and (epoch + 1) % checkpoint_every == 0:
            directory = out / "checkpoints"
            directory.mkdir(parents=True, exist_ok=True)
            name = directory / f"epoch_{epoch:04d}.json"
            save_checkpoint(current, name, seed=seed)
            artifacts.append(name.relative_to(out))

    result = train(cfg.model, policy, train_set, dev_set, cfg.objective,
                   cfg.constraints, cfg.weights, cfg.train, cfg.mode, seed,
                   on_epoch=on_epoch)
    save_checkpoint(result.policy, out / "policy.json", seed=seed)
    save_history(result.history, out / "history.csv")
    epochs = [row["epoch"] for row in result.history]
    svg.plot_series(out / "history.svg", [
        ("train", epochs, [row["train_loss"] for row in result.history]),
        ("dev", epochs, [row["dev_loss"] for row in result.history]),
    ], title=f"{cfg.name}: loss", x_label="epoch", y_label="loss")
    artifacts += [Path("policy.json"), Path("history.csv"), Path("history.svg")]
    print(f"trained {cfg.name} for {cfg.train.epochs} epochs; "
          f"best dev loss {result.best_dev_loss:.6g} at epoch {result.best_epoch}")
    return artifacts


def _load_policy(checkpoint: str, arch):
    """The checkpoint's policy, refused when its input or output width is
    not ``arch``'s; hidden widths are a training choice and may differ."""
    from .policy import load_checkpoint

    policy = load_checkpoint(checkpoint)
    got = (policy.arch.input_dim, policy.arch.output_dim)
    if got != (arch.input_dim, arch.output_dim):
        raise ValueError(f"{checkpoint}: checkpoint has input width {got[0]} and output "
                         f"width {got[1]}, the config wants {arch.input_dim} and "
                         f"{arch.output_dim}")
    return policy


def run_certify(cfg, seed: int, out: Path, policy, checkpoint: str):
    from dataclasses import replace

    import numpy as np

    from .certify import run_certification, save_report

    _, _, test_set = _sampled_splits(cfg, seed)
    report, flags = run_certification(policy, cfg.model, test_set, cfg.constraints,
                                      cfg.terminal, cfg.mode, cfg.beta, cfg.delta,
                                      Path(checkpoint).name)
    digest = hashlib.sha256(Path(checkpoint).read_bytes()).hexdigest()
    save_report(replace(report, policy_sha256=digest), out / "certificate.json")
    i_idx, j_idx = test_set.pair_index(np.arange(test_set.size))
    write_csv(out / "indicator.csv", ["i", "j", "pass"],
              [[int(i), int(j), int(flag)] for i, j, flag in zip(i_idx, j_idx, flags)])
    word = "CERTIFIED" if report.verdict else "NOT CERTIFIED"
    print(f"{cfg.name}: success fraction {report.mu_tilde:.4f} on r={report.r}, "
          f"lower bound {report.lower_bound:.4f} vs beta={report.beta}: {word}")
    for f in report.failures:
        frac = (report.r - f["failed"]) / report.r
        print(f"  {f['part']} {f['kind']}: pass fraction {frac:.4f}")
    return [Path("certificate.json"), Path("indicator.csv")]


def run_simulate(cfg, seed: int, out: Path, policy, count=None, steps=None):
    import numpy as np

    from . import rng as _rng
    from . import svg
    from .dynamics import simulate

    count = cfg.sim_count if count is None else count
    steps = cfg.sim_steps if steps is None else steps

    x0, xi = cfg.params.sample(seed, _rng.SIM_X0, count)
    noise = cfg.noise.draw(_rng.substream(seed, _rng.SIM_NOISE), steps, count)
    xi_rows = xi if xi.shape[1] else None
    states, actions = simulate(cfg.model, policy, x0, xi_rows, noise)

    n_x, n_u = cfg.model.n_x, cfg.model.n_u
    artifacts = [Path("sim_states.csv"), Path("sim_actions.csv"),
                 Path("sim_params.csv"), Path("summary.json")]
    write_csv(out / "sim_states.csv", ["sim", "k"] + [f"x{d}" for d in range(n_x)],
              [[i, k] + [float(v) for v in states[i, k]]
               for i in range(count) for k in range(steps + 1)])
    write_csv(out / "sim_actions.csv", ["sim", "k"] + [f"u{d}" for d in range(n_u)],
              [[i, k] + [float(v) for v in actions[i, k]]
               for i in range(count) for k in range(steps)])
    write_csv(out / "sim_params.csv", ["sim"] + [f"xi{d}" for d in range(xi.shape[1])],
              [[i] + [float(v) for v in xi[i]] for i in range(count)])

    # largest residual of each part over all runs and steps, 0.0 when all are met
    blocks = {"state": states, "inputs": actions, "terminal": states[:, -1:]}
    worst = dict.fromkeys(blocks, 0.0)
    for part, c in cfg.constraints.checked():
        worst[part] = max(worst[part], float(c.residuals(blocks[part], xi_rows).max()))
    # per run, how many last steps stay in the terminal set: it holds from the first of them;
    # each step is scored as its own one-step block, whatever the residual layout
    per_step = cfg.terminal.residuals(states[:, :, None], xi_rows).reshape(count, steps + 1, -1)
    held = np.logical_and.accumulate(np.all(per_step <= 0.0, axis=2)[:, ::-1], axis=1).sum(axis=1)
    summary = {
        "count": count,
        "steps": steps,
        "final_infnorm": [float(np.max(np.abs(states[i, -1]))) for i in range(count)],
        "input_violation_max": worst["inputs"],
        "state_violation_max": worst["state"],
        "terminal_violation_max": worst["terminal"],
        "terminal_holds_from": [int(steps + 1 - n) if n else None for n in held],
    }
    write_json(out / "summary.json", summary)

    for block, sym, word in ((states, "x", "state"), (actions, "u", "input")):
        ks = np.arange(block.shape[1])
        for d in range(block.shape[2]):
            name = f"sim_{word}_{d}.svg"
            svg.plot_series(out / name,
                            [(f"{sym}{d}", ks, block[i, :, d]) for i in range(count)],
                            title=f"{cfg.name}: {word} {d}", x_label="step",
                            y_label=f"{sym}{d}", opacity=0.35, legend=False)
            artifacts.append(Path(name))
    worst = max(summary["final_infnorm"])
    print(f"simulated {count} runs of {steps} steps; "
          f"worst final state infinity norm {worst:.4g}")
    return artifacts


def run_benchmark(cfg, seed: int, out: Path, policy, instances=None):
    import numpy as np

    from . import rng as _rng
    from .baseline import benchmark, save_benchmark

    n = cfg.bench_instances if instances is None else instances
    x0, xi = cfg.params.sample(seed, _rng.BENCH, n)
    cases = [(x0[t], xi[t] if xi.shape[1] else None) for t in range(n)]
    rows = benchmark(policy, cfg.model, cases, cfg.horizon, cfg.objective,
                     cfg.constraints, cfg.weights, cfg.solver,
                     repeats=cfg.bench_repeats)
    save_benchmark(rows, out / "benchmark.csv")
    ratios = [row.ratio for row in rows]
    print(f"benchmarked {n} instances: baseline/policy time ratio "
          f"min {min(ratios):.1f}, mean {float(np.mean(ratios)):.1f}; "
          f"{sum(row.converged for row in rows)} of {n} solves converged")
    return [Path("benchmark.csv")]


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if stop.code else 0
    for flag, least in (("count", 1), ("steps", 1), ("instances", 1), ("threads", 1),
                        ("checkpoint_every", 0), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            print(f"error: --{flag.replace('_', '-')} must be >= {least}, got {value}",
                  file=sys.stderr)
            return 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(args.threads)

    import numpy as np

    from .config import ConfigError, load_config
    from .trainer import TrainingDiverged

    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    seed = cfg.seed if args.seed is None else args.seed
    out = Path(args.out)

    try:
        out.mkdir(parents=True, exist_ok=True)
        # a run that leaves the floats ends in one error line, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "train":
                artifacts = run_train(cfg, seed, out, args.checkpoint_every)
            else:
                policy = _load_policy(args.checkpoint, cfg.arch)
                if args.command == "certify":
                    artifacts = run_certify(cfg, seed, out, policy, args.checkpoint)
                elif args.command == "simulate":
                    artifacts = run_simulate(cfg, seed, out, policy, args.count, args.steps)
                else:
                    artifacts = run_benchmark(cfg, seed, out, policy, args.instances)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit-time flush
    except (OSError, ValueError) as err:
        where = err
        if isinstance(err, OSError) and err.strerror:  # with its file, when it has one
            where = err.strerror if err.filename is None else f"{err.filename}: {err.strerror}"
        print(f"error: {where}", file=sys.stderr)
        if isinstance(err, BrokenPipeError):
            # the text still buffered would fail again when the interpreter exits
            sys.stdout = open(os.devnull, "w")
        return 1
    except TrainingDiverged as err:
        print(f"training failed: {err}", file=sys.stderr)
        return 2

    _write_manifest(out, args.command, Path(args.config), seed, args.threads, artifacts,
                    time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
