import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spdpc import rng
from spdpc.config import load_config
from spdpc.dynamics import NoiseSpec
from spdpc.sampling import DistSpec, ParamSpec, ScenarioSet, sample_scenarios

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
PARAMS = ParamSpec(x0=DistSpec("gaussian", (0.0, 1.0), (1.0, 0.5)),
                   components=tuple((f"c{c}", d) for c, d in enumerate(DISTS)))


def blocks(seed, stream, count):
    """A count-row block of every DistSpec, NoiseSpec and ParamSpec draw,
    each from its own generator."""
    out = [d.draw(rng.substream(seed, stream, c), count) for c, d in enumerate(DISTS)]
    out += [n.draw(rng.substream(seed, stream, c), 3, count)
            for c, n in enumerate(NOISES, start=len(DISTS))]
    return out + list(PARAMS.sample(seed, stream, count))


def draw_all(gen):
    """A single draw of every DistSpec and NoiseSpec kind from one generator,
    then a float32 draw that leaves half of a 64-bit word buffered."""
    parts = [d.draw(gen) for d in DISTS] + [n.draw(gen, 3).ravel() for n in NOISES]
    return np.concatenate(parts + [gen.random(1, dtype=np.float32)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_each_is_substream_bit_for_bit(seed, stream):
    # each keyed generator -- one per layer for the policy weights, one per
    # epoch for the shuffles -- is numpy's PCG64 seeded by
    # SeedSequence((seed, stream, k)), for one- to three-word seeds
    for count in (0, 1, 30):
        got = [draw_all(rng.substream(seed, stream, k)) for k in range(count)]
        want = [draw_all(np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, stream, k])))) for k in range(count)]
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), f"counter {k}"


def assert_prefix(small, large):
    assert len(small) == len(large)
    for k, (a, b) in enumerate(zip(small, large)):
        assert a.shape[1:] == b.shape[1:], f"block {k}"
        assert np.array_equal(a, b[:len(a)]), f"block {k}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_block_rows_are_a_prefix_of_any_larger_block(seed, stream):
    large = blocks(seed, stream, 60)
    for count in (0, 1, 30):
        assert_prefix(blocks(seed, stream, count), large)
    # a single draw is row 0 of a block from the same key
    for c, dist in enumerate(DISTS):
        assert np.array_equal(dist.draw(rng.substream(seed, stream, c)), large[c][0])
    for c, noise in enumerate(NOISES, start=len(DISTS)):
        assert np.array_equal(noise.draw(rng.substream(seed, stream, c), 3), large[c][0])


@pytest.mark.parametrize("seed", SEEDS)
def test_block_rows_are_a_prefix_in_large_blocks(seed):
    assert_prefix(blocks(seed, rng.X0, 5000), blocks(seed, rng.X0, 12000))


def test_substream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        rng.substream(-1, rng.X0, 0)


def per_stream_scenarios(spec, noise, m, s, horizon, seed):
    """The scenario sampler's stream layout, kept as the reference: x0 and
    each xi component on counters 0, 1, ... of X0, and Omega on OMEGA."""
    x0 = spec.x0.draw(rng.substream(seed, rng.X0, 0), m)
    xi = np.zeros((m, 0))
    for c, (_, dist) in enumerate(spec.components):
        xi = np.hstack([xi, dist.draw(rng.substream(seed, rng.X0, c + 1), m)])
    omega = noise.draw(rng.substream(seed, rng.OMEGA), horizon, s)
    return ScenarioSet(x0, xi, omega, seed)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_sample_scenarios_is_one_block_per_stream_on_committed_configs(path):
    cfg = load_config(path)
    args = (cfg.params, cfg.noise, cfg.m, cfg.s, cfg.horizon, cfg.seed)
    got, want = sample_scenarios(*args), per_stream_scenarios(*args)
    for name in ("x0", "xi", "omega"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestIndependence:
    """rng's docstring promises streams that are independent of the order
    they are opened in: sets sampled at once in threads share no state."""

    def test_threads_sampling_at_once_give_the_serial_bits(self):
        cfg = load_config(CONFIGS[-1])

        def sample_set(seed):
            ss = sample_scenarios(cfg.params, cfg.noise, 300, 5, cfg.horizon, seed)
            return [ss.x0, ss.xi, ss.omega]

        seeds = range(8)
        want = [sample_set(seed) for seed in seeds]
        results = [None] * len(want)
        start = threading.Barrier(len(want))

        def work(slot, seed):
            start.wait(timeout=30)
            results[slot] = sample_set(seed)

        threads = [threading.Thread(target=work, args=(slot, seed))
                   for slot, seed in enumerate(seeds)]
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
        for got, expected in zip(results, want):
            assert_prefix(got, expected)
