"""Command line pipeline: sample, train, certify, simulate, benchmark.

Every command reads one experiment config, writes its artifacts into
--out and finishes with a manifest.json listing what it produced plus the
config hash and seed, so a directory is self-describing.  Heavy imports
happen after argument parsing so --threads can pin the BLAS thread count
through the environment before numpy loads.

Exit codes: 0 on success (a negative certification verdict is still a
success), 1 for bad input (config errors, missing files, flags out of
range), 2 when a run fails underway (e.g. training diverges).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment JSON file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads")

    needs_policy = argparse.ArgumentParser(add_help=False)
    needs_policy.add_argument("--checkpoint", required=True,
                              help="trained policy JSON")

    parser = argparse.ArgumentParser(
        prog="spdpc",
        description="offline policy learning and certification for "
                    "stochastic linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[common],
                   help="draw scenario sets and persist the splits")
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
                    artifacts) -> None:
    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config": config_path.name,
        "config_sha256": digest,
        "seed": seed,
        "artifacts": sorted(str(a) for a in artifacts),
        "created_unix_ns": time.time_ns(),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _sampled_splits(cfg, seed):
    from .sampling import sample_scenarios, split
    scen = sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon, seed)
    return split(scen, cfg.splits)


def run_sample(cfg, seed: int, out: Path):
    from .sampling import save_bundle
    artifacts = []
    for name, part in zip(("train", "dev", "test"), _sampled_splits(cfg, seed)):
        directory = out / "scenarios" / name
        for fname in save_bundle(part, directory):
            artifacts.append(directory.relative_to(out) / fname)
        print(f"{name}: {part.m} parametric x {part.s} disturbance = {part.size} scenarios")
    return artifacts


def run_train(cfg, seed: int, out: Path, checkpoint_every: int = 0):
    from . import svg
    from .policy import init_policy, save_checkpoint
    from .trainer import evaluate, save_history, train

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


def run_certify(cfg, seed: int, out: Path, checkpoint: str):
    import numpy as np

    from .certify import certify, empirical_risk, save_report
    from .policy import load_checkpoint
    from .sampling import write_csv

    policy = load_checkpoint(checkpoint)
    _, _, test_set = _sampled_splits(cfg, seed)
    mu_tilde, passes = empirical_risk(policy, cfg.model, test_set, cfg.constraints, cfg.mode)
    report = certify(mu_tilde, test_set.size, test_set.m, test_set.s, cfg.beta, cfg.delta,
                     Path(checkpoint).name, test_set.seed)
    save_report(report, out / "certificate.json")
    i_idx, j_idx = test_set.pair_index(np.arange(test_set.size))
    write_csv(out / "indicator.csv", ["i", "j", "pass"],
              [[int(i), int(j), int(flag)]
               for i, j, flag in zip(i_idx, j_idx, passes.all(axis=1))])
    word = "CERTIFIED" if report.verdict else "NOT CERTIFIED"
    print(f"{cfg.name}: success fraction {report.mu_tilde:.4f} on r={report.r}, "
          f"lower bound {report.lower_bound:.4f} vs beta={report.beta}: {word}")
    for (part, c), frac in zip(cfg.constraints.checked(), passes.mean(axis=0)):
        print(f"  {part} {c.kind}: pass fraction {frac:.4f}")
    return [Path("certificate.json"), Path("indicator.csv")]


def run_simulate(cfg, seed: int, out: Path, checkpoint: str,
                 count=None, steps=None):
    import numpy as np

    from . import rng as _rng
    from . import svg
    from .dynamics import simulate
    from .policy import load_checkpoint
    from .sampling import write_csv

    policy = load_checkpoint(checkpoint)
    count = cfg.sim_count if count is None else count
    steps = cfg.sim_steps if steps is None else steps

    x0, xi, noise = [], [], []
    for i in range(count):
        gen = _rng.substream(seed, _rng.SIM_X0, i)
        x0.append(cfg.params.x0.draw(gen))
        xi.append(cfg.params.draw_xi(gen))
        noise.append(cfg.noise.draw(_rng.substream(seed, _rng.SIM_NOISE, i), steps))
    xi = np.stack(xi)  # (count, xi_dim)
    xi_rows = xi if xi.shape[1] else None
    states, actions = simulate(cfg.model, policy, cfg.mode, np.stack(x0), xi_rows,
                               np.stack(noise))

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

    summary = {
        "count": count,
        "steps": steps,
        "final_infnorm": [float(np.max(np.abs(states[i, -1]))) for i in range(count)],
        "input_violation_max": max([0.0] + [float(c.residuals(actions).values.max())
                                            for c in cfg.constraints.inputs]),
        "state_violation_max": max([0.0] + [float(c.residuals(states, xi_rows).values.max())
                                            for c in cfg.constraints.state]),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

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


def run_benchmark(cfg, seed: int, out: Path, checkpoint: str, instances=None):
    import numpy as np

    from . import rng as _rng
    from .baseline import benchmark, save_benchmark
    from .policy import load_checkpoint

    policy = load_checkpoint(checkpoint)
    n = cfg.bench_instances if instances is None else instances
    cases = []
    for t in range(n):
        gen = _rng.substream(seed, _rng.BENCH, t)
        x0 = cfg.params.x0.draw(gen)
        xi = cfg.params.draw_xi(gen)
        cases.append((x0, xi if xi.size else None))
    rows = benchmark(policy, cfg.model, cases, cfg.horizon, cfg.objective,
                     cfg.constraints, cfg.weights, cfg.solver,
                     repeats=cfg.bench_repeats)
    save_benchmark(rows, out / "benchmark.csv")
    ratios = [row.ratio for row in rows]
    print(f"benchmarked {n} instances: baseline/policy time ratio "
          f"min {min(ratios):.1f}, mean {float(np.mean(ratios)):.1f}")
    return [Path("benchmark.csv")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, least in (("count", 1), ("steps", 1), ("instances", 1), ("threads", 1),
                        ("checkpoint_every", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            print(f"error: --{flag.replace('_', '-')} must be >= {least}, got {value}",
                  file=sys.stderr)
            return 1
    if args.threads is not None:
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
    out.mkdir(parents=True, exist_ok=True)

    # a run that leaves the floats ends in one error line, not numpy warnings
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "sample":
                artifacts = run_sample(cfg, seed, out)
            elif args.command == "train":
                artifacts = run_train(cfg, seed, out, args.checkpoint_every)
            elif args.command == "certify":
                artifacts = run_certify(cfg, seed, out, args.checkpoint)
            elif args.command == "simulate":
                artifacts = run_simulate(cfg, seed, out, args.checkpoint,
                                         args.count, args.steps)
            else:
                artifacts = run_benchmark(cfg, seed, out, args.checkpoint,
                                          args.instances)
    except (FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"training failed: {err}", file=sys.stderr)
        return 2

    _write_manifest(out, args.command, Path(args.config), seed, artifacts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
