import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spdpc import rng
from spdpc.config import load_config
from spdpc.dynamics import NoiseSpec
from spdpc.sampling import DistSpec, ScenarioSet, sample_scenarios

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("ex*.json"))
STREAMS = (rng.POLICY_INIT, rng.X0, rng.XI, rng.OMEGA, rng.SHUFFLE, rng.SIM_X0,
           rng.SIM_NOISE, rng.BENCH)
# one- to three-word seeds, at and around the word boundaries
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 1)
DISTS = (DistSpec("uniform", (-1.0, 2.0), (1.0, 5.0)),
         DistSpec("gaussian", (0.5,), (2.0,)),
         DistSpec("constant", (0.25, -3.0)))
NOISES = (NoiseSpec("gaussian", [0.1, 0.3]), NoiseSpec("uniform", [0.2]),
          NoiseSpec("zero", [0.0, 0.0]))


def draw_all(gen):
    """Every DistSpec and NoiseSpec kind from one generator, then a float32
    draw that leaves half of a 64-bit word buffered in the bit generator."""
    parts = [d.draw(gen) for d in DISTS] + [n.draw(gen, 3).ravel() for n in NOISES]
    return np.concatenate(parts + [gen.random(1, dtype=np.float32)])


def serial(seed, stream, count, fn):
    return [fn(rng.substream(seed, stream, k)) for k in range(count)]


def assert_same(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"counter {k}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_each_is_substream_bit_for_bit(seed, stream):
    for count in (0, 1, 30):
        assert_same(rng.each(seed, stream, count, draw_all), serial(seed, stream, count, draw_all))


@pytest.mark.parametrize("seed", SEEDS)
def test_each_is_substream_bit_for_bit_across_chunks(seed):
    assert_same(rng.each(seed, rng.XI, 5000, draw_all), serial(seed, rng.XI, 5000, draw_all))


def test_each_rejects_what_substream_rejects():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        rng.substream(-1, rng.X0, 0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        rng.each(-1, rng.X0, 3, draw_all)
    # counters past 32 bits would take a second key word
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        rng.each(0, rng.X0, 2**32 + 1, draw_all)


def per_key_scenarios(spec, noise, m, s, horizon, seed):
    """The scenario sampler as one substream per draw, kept as the reference."""
    x0 = np.stack([spec.x0.draw(rng.substream(seed, rng.X0, i)) for i in range(m)])
    xi = np.stack([spec.draw_xi(rng.substream(seed, rng.XI, i)) for i in range(m)]) \
        if spec.xi_dim else np.zeros((m, 0))
    omega = np.stack([noise.draw(rng.substream(seed, rng.OMEGA, j), horizon)
                      for j in range(s)])
    return ScenarioSet(x0, xi, omega, seed)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_sample_scenarios_is_the_per_key_loop_on_committed_configs(path):
    cfg = load_config(path)
    args = (cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon, cfg.seed)
    got, want = sample_scenarios(*args), per_key_scenarios(*args)
    for name in ("x0", "xi", "omega"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestIndependence:
    """rng's docstring promises keyed draws that are safe to generate
    concurrently: no call may share generator state with another."""

    def test_nested_each_gives_the_serial_bits(self):
        def outer(gen):
            head = gen.random(2)
            inner = rng.each(3, rng.OMEGA, 4, draw_all)
            return head, inner, gen.random(2)

        got = rng.each(7, rng.X0, 6, outer)
        for k, (head, inner, tail) in enumerate(got):
            gen = rng.substream(7, rng.X0, k)
            assert np.array_equal(head, gen.random(2))
            assert np.array_equal(tail, gen.random(2))
            assert_same(inner, serial(3, rng.OMEGA, 4, draw_all))

    def test_threads_sampling_at_once_give_the_serial_bits(self):
        cfg = load_config(CONFIGS[0])

        def yielding(gen):
            head = gen.random(2)
            time.sleep(0)  # let another thread run between two draws
            return np.concatenate([head, gen.random(2)])

        def sample_set(seed):
            ss = sample_scenarios(cfg.params, cfg.noise, 300, 5, cfg.horizon, seed)
            return [ss.x0, ss.xi, ss.omega]

        jobs = [(lambda seed=seed: rng.each(seed, rng.X0, 300, yielding),
                 serial(seed, rng.X0, 300, yielding)) for seed in range(4)]
        jobs += [(lambda seed=seed: sample_set(seed), sample_set(seed)) for seed in range(4)]
        results = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def work(slot, job):
            start.wait(timeout=30)
            results[slot] = job()

        threads = [threading.Thread(target=work, args=(slot, job))
                   for slot, (job, _) in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (_, want), got in zip(jobs, results):
            assert_same(got, want)
