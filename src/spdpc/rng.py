"""Counter-based random substreams.

Every random draw in the pipeline comes from a generator keyed by
``(master seed, stream id, *counters)``.  Streams are independent and
order-free: sampling scenario i=7 never depends on whether i=6 was
sampled first, which keeps scenario sets bit-reproducible and safe to
generate concurrently.

The generator of a key is ``default_rng(SeedSequence((seed, stream,
*counters)))``: numpy's SeedSequence hashes the key's uint32 words into a
pool of four and draws 128-bit seed and increment words from it, and PCG64
seeds its state from those.  ``substream`` builds it exactly that way and is
the reference.  ``each`` gives the same generator states for the counters
0..count-1 of one (seed, stream) in one vectorised pass: it runs the
SeedSequence hash as uint32 numpy columns over a chunk of keys, finishes
PCG64's seeding in Python ints, and sets the state of one PCG64 that
belongs to the call.  numpy keeps SeedSequence and PCG64 stream-compatible
across versions (NEP 19), and the tests check ``each`` against
``substream`` bit for bit.
"""

from __future__ import annotations

import numpy as np

# Stream ids.  Never renumber these: they are part of the on-disk
# reproducibility contract for scenario sets and checkpoints.
POLICY_INIT = 0
X0 = 1
XI = 2
OMEGA = 3
SHUFFLE = 4
SIM_X0 = 5
SIM_NOISE = 6
BENCH = 7

# numpy's SeedSequence constants (pool of four uint32 words) and PCG64's
# 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_CHUNK = 1024  # keys hashed at once; the Python ints of a chunk add to peak RSS


def substream(seed: int, stream: int, *counters: int) -> np.random.Generator:
    """Return a fresh generator for the given (seed, stream, counters) key."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((seed, stream) + counters))


def each(seed: int, stream: int, count: int, fn) -> list:
    """``[fn(substream(seed, stream, k)) for k in range(count)]``, bit for bit.

    ``fn`` gets a generator in the state ``substream(seed, stream, k)`` starts
    in; it must draw from it during the call and keep no reference to it.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if count > 1 << 32:
        raise ValueError(f"each takes counters below 2**32, got count {count}")
    head = _words(seed) + _words(stream)
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    out = []
    for start in range(0, count, _CHUNK):
        counters = np.arange(start, min(start + _CHUNK, count), dtype=np.uint32)
        for hi, lo, inc_hi, inc_lo in zip(*_generate_states(head, counters)):
            # PCG64's srandom from initstate (hi, lo) and initseq (inc_hi, inc_lo):
            # inc = 2 initseq + 1, one step from 0, add initstate, one step
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            out.append(fn(gen))
    return out


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low first."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 columns; its constant advances per call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _generate_states(head: list[int], counters: np.ndarray) -> list[list[int]]:
    """``SeedSequence(head + [k]).generate_state(4, uint64)`` for every
    counter k, as four lists of words: PCG64 reads (w0, w1) as its initstate
    and (w2, w3) as its initseq, each high word first."""
    entropy = [np.full(counters.shape, w, dtype=np.uint32) for w in head] + [counters]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(counters)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    generate = _hasher(_INIT_B, _MULT_B)
    state = [generate(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    # uint32 pairs read little-endian as uint64 words
    return [(state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
