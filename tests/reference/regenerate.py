"""Write tests/reference/values.json: values that pin each config's numbers.

For every committed config, at the initial policy and on the config's own
sampled splits:

- the loss parts and gradient of the first minibatch of the first epoch;
- the history row of one training epoch;
- for the certified desk configs, the pass counts of the test split under
  the policy that epoch returns.

``tests/test_reference.py`` recomputes them and compares.  A change that
moves these values on purpose reruns this script and names every moved
value in ``CHANGES.md``.  Run from the repository root at one BLAS thread;
at two, some values move in their last digits (see ``tests/test_reference.py``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference/regenerate.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from spdpc import certify, rng, trainer
from spdpc import policy as pol
from spdpc.config import load_config
from spdpc.sampling import sample_scenarios, split

CONFIGS = sorted((Path(__file__).resolve().parents[2] / "configs").glob("ex*.json"))
VALUES = Path(__file__).with_name("values.json")
CERTIFIED = ("ex1_double_integrator_desk", "ex3_obstacle_desk")


def reference(path) -> dict:
    cfg = load_config(path)
    scenarios = sample_scenarios(cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon, cfg.seed)
    train_set, dev_set, test_set = split(scenarios, cfg.splits)
    policy = pol.init_policy(cfg.arch)
    problem = (cfg.objective, cfg.constraints, cfg.weights)

    # the first training step's minibatch
    perm = rng.substream(cfg.seed, rng.SHUFFLE, 0).permutation(train_set.size)
    x0, xi, omega, _, _ = train_set.pair_rows(perm[:cfg.train.minibatch])
    parts, grad = trainer.policy_gradient(policy, cfg.model, x0, xi, omega, *problem, cfg.mode)
    values = {"loss": parts.floats(),
              "grad_norm": float(np.sqrt(grad @ grad)),
              "grad_head": grad[:3].tolist()}

    result = trainer.train(cfg.model, pol.init_policy(cfg.arch), train_set, dev_set, *problem,
                           replace(cfg.train, epochs=1), cfg.mode, cfg.seed)
    values["epoch_0"] = {k: v for k, v in result.history[0].items() if k != "epoch"}

    if path.stem in CERTIFIED:
        _, passes = certify.empirical_risk(result.policy, cfg.model, test_set,
                                           cfg.constraints, cfg.mode)
        values["test_passes"] = {"all": int(passes.all(axis=1).sum()),
                                 "per_constraint": passes.sum(axis=0).tolist()}
    return values


def main() -> None:
    doc = {path.stem: reference(path) for path in CONFIGS}
    VALUES.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
