"""Deterministic random-stream derivation shared by all sampling code.

``substream(seed, *path)`` defines every stream: it is the generator numpy
builds from ``SeedSequence((seed, *path))``.  ``substreams(seed, count)``
is its batch form for the streams ``substream(seed, i)``, ``i < count``:
it hashes all ``count`` keys at once with numpy's SeedSequence mixing and
re-seeds one reused PCG64 generator per index, which yields the same
streams bit for bit without building ``count`` generators.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the
# 128-bit PCG64 multiplier
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *path)``.

    Identical arguments always yield an identical stream, and different
    paths yield statistically independent streams, so per-sample or
    per-draw substreams can be evaluated in any order (or in parallel)
    without changing results.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = (int(seed),) + tuple(int(k) for k in path)
    return np.random.default_rng(np.random.SeedSequence(key))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    reads it (``[0]`` for zero)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pool_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(8)`` for every ``i < count``,
    shape ``(count, 8)`` uint32.  The hash constants advance identically for
    every key, so each step runs on a whole column of keys at once."""
    index = np.arange(count, dtype=np.uint32)
    entropy = [np.full(count, w, dtype=np.uint32) for w in _words(seed)] + [index]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = np.empty((count, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out[:, k] = value ^ (value >> np.uint32(16))
    return out


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield ``substream(seed, i)`` for ``i`` in ``range(count)``, bit for bit.

    One generator object is re-seeded for every index, so each yielded
    generator is valid only until the next one is drawn.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0 <= count <= 1 << 32:
        raise ValueError("count must be in [0, 2**32]")
    words = _pool_states(int(seed), int(count)).astype(np.uint64)
    # PCG64 reads the 8 words as four little-endian uint64s
    # (initstate high, initstate low, initseq high, initseq low)
    halves = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()
    return _reseeded(halves)


def _reseeded(halves: list[list[int]]) -> Iterator[np.random.Generator]:
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s_hi, s_lo, i_hi, i_lo in halves:
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
