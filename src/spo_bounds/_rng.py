"""Deterministic random-stream derivation shared by all sampling code.

``substream(seed, *path)`` defines every stream: it is the generator numpy
builds from ``SeedSequence((seed, *path))``.  A sampler takes one stream per
call and draws whole arrays from it (the verifiers in ``geometry`` draw
every sample from ``substream(seed)``), so no caller builds a generator per
sample.

The complexity estimators keep one stream per sign draw:
``substream_sign_blocks(seed, count, size, rows)`` yields the Rademacher
signs ``substream(seed, k).integers(0, 2, size) * 2.0 - 1.0`` of every
stream ``k < count`` in blocks of rows, with no generator per stream.  It
hashes all ``count`` keys at once with numpy's SeedSequence mixing.  The
bits follow from three facts about numpy:

* PCG64 is a 128-bit LCG, ``x -> M x + inc (mod 2**128)``, whose 64-bit
  output is the XSL-RR permutation of the new state: ``hi ^ lo`` rotated
  right by the state's top 6 bits (O'Neill, "PCG", 2014).
* ``integers(0, 2)`` asks the bit generator for 32-bit words, and PCG64
  serves each 64-bit output as two words, its low half first.
* For a range of 2, Lemire's bounded-integer method (Lemire, "Fast Random
  Integer Generation in an Interval", TOMACS 2019) multiplies the word by
  2 and keeps the high 32 bits: the word's top bit.  Its rejection
  threshold ``2**32 mod 2`` is 0, so it never draws again.

So sign ``2i`` of a row is bit 31 and sign ``2i + 1`` bit 63 of the
stream's output ``i``.  The kernel steps the LCG of every stream at once,
one array pass per output, multiplies 128-bit numbers from 32-bit limbs,
and writes each sign bit straight into the sign bit of 1.0.

The other path draws each row by numpy's own PCG64, set to the stream's
seeded state ``M (initstate + inc) + inc``, and the same top bits become
the signs.  A state costs about 5 us per stream, then an output a few ns;
an array pass of the kernel costs about 35 us whatever the stream count,
up to a few thousand (2-core Xeon, numpy 2.4).  So the kernel wins only on
many narrow rows (2,000 rows of 50 signs: 1.5 ms), and a block goes to
numpy's PCG64 when its rows have ``_WIDE_ROW_OUTPUTS`` (200) outputs or
more, 399+ signs, or when it has fewer than ``_WIDE_STREAMS_PER_OUTPUT``
(7, about 35 us / 5 us) streams per output (one row of 398 signs: 0.02 ms
against 7.5 ms in the kernel).  Both paths give the same bits.

Row ``k`` depends on the stream index alone, so the blocks of a request
hold the rows of the whole request, in order, whatever their height.
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
    paths yield statistically independent streams, so substreams can be
    evaluated in any order (or in parallel) without changing results.
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


def _seed_halves(seed: int, count: int) -> np.ndarray:
    """PCG64's seed of ``substream(seed, i)`` for every ``i < count``, shape
    ``(count, 4)`` uint64: initstate high and low, initseq high and low
    (PCG64 reads the 8 SeedSequence words as little-endian uint64 pairs)."""
    words = _pool_states(int(seed), int(count)).astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


# ---------------------------------------------------------------------------
# Rademacher signs straight from the PCG64 arithmetic
# ---------------------------------------------------------------------------

#: ``_fill_wide_signs`` buffers this many raw outputs per pass, in whole
#: rows (one row when a row is longer)
_LANE_BLOCK = 1 << 15
#: largest array request the package accepts, in bytes: sign requests and
#: the experiment's sample sizes are refused over it
ARRAY_BYTES_MAX = 1 << 30
#: bytes of one block of a streamed array: the estimators' sign rows and
#: their hypotheses' predictions are formed a block at a time (see
#: ``complexity``)
BLOCK_BYTES_MAX = 1 << 20
#: bytes per stream that the seeding and the kernel hold at their peak
#: (129 measured at 4,096 x 50 signs)
_SEED_BYTES = 256
#: least PCG64 outputs per row (two signs each) drawn by numpy's PCG64
_WIDE_ROW_OUTPUTS = 200
#: least streams per output of a block the kernel draws; fewer go to
#: numpy's PCG64
_WIDE_STREAMS_PER_OUTPUT = 7

_LOW32 = np.uint64(_MASK32)
_U32 = np.uint64(32)
_ROT_SHIFT = np.uint64(58)
_ROT_MASK = np.uint64(63)
_SIGN32 = np.uint32(1 << 31)
#: high 32 bits of -1.0; XOR with a word's top bit gives those of +-1.0
_NEG_ONE_HIGH = np.uint32(0xBFF00000)


def substream_sign_blocks(seed: int, count: int, size: int,
                          rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """The ``(count, size)`` float64 signs whose row ``k`` is
    ``substream(seed, k).integers(0, 2, size) * 2.0 - 1.0``, bit for bit, in
    order, as ``(first, signs)`` blocks: the request split as evenly as it
    goes into ``count // rows`` blocks (one if it has fewer rows), longer
    blocks first, so every block has at least ``rows`` rows unless the
    whole request has fewer.

    Each block is a C-contiguous view of one buffer reused for every block,
    valid only until the next block is drawn, so a request holds the
    ``ceil(count / blocks)`` rows of its longest block at once.  Refuses,
    before allocating anything, an invalid request or one whose signs and
    seeding scratch need over ``ARRAY_BYTES_MAX`` bytes as a whole.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0 <= count <= 1 << 32:
        raise ValueError("count must be in [0, 2**32]")
    if size < 0:
        raise ValueError("size must be non-negative")
    need = count * (8 * size + _SEED_BYTES)
    if need > ARRAY_BYTES_MAX:
        raise ValueError(f"{count} x {size} sign draws need {need} bytes, "
                         f"over the {ARRAY_BYTES_MAX}-byte budget")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return _sign_blocks(seed, count, size, rows)


def sign_block_heights(count: int, rows: int) -> Iterator[int]:
    """Row counts of the even blocks ``substream_sign_blocks`` splits ``count``
    rows into (``count // rows`` of them, at least one), longest first."""
    blocks = max(1, count // rows)
    height, longer = divmod(count, blocks)
    return (height + (b < longer) for b in range(blocks))


def _sign_blocks(seed: int, count: int, size: int,
                 rows: int) -> Iterator[tuple[int, np.ndarray]]:
    seeds = _seed_halves(seed, count)
    # sized for the first, longest block; the kernel writes only the high
    # words, so the low words stay zero from one block to the next
    buffer = np.zeros((next(sign_block_heights(count, rows)), size), dtype="<f8")
    first = 0
    for height in sign_block_heights(count, rows):
        signs = buffer[:height]
        _fill_signs(seeds[first:first + height], signs)
        yield first, signs
        first += height


def _fill_signs(seeds: np.ndarray, out: np.ndarray) -> None:
    """Write the signs of the streams with PCG64 seeds ``seeds`` (rows of
    ``_seed_halves``) into the rows of ``out``, a C-contiguous little-endian
    float64 array whose low 32-bit words are zero: only each element's high
    word is written.  Rows of at least ``_WIDE_ROW_OUTPUTS`` outputs, and
    blocks of fewer than ``_WIDE_STREAMS_PER_OUTPUT`` streams per output,
    are drawn by numpy's PCG64, the rest by the array kernel."""
    count, size = out.shape
    outputs = (size + 1) // 2
    if count == 0 or outputs == 0:
        return
    if outputs >= _WIDE_ROW_OUTPUTS or count < _WIDE_STREAMS_PER_OUTPUT * outputs:
        _fill_wide_signs(seeds, out, outputs)
        return
    # PCG64 seeding: inc = 2 initseq + 1, and the state is
    # LCG(initstate + inc) = M initstate + (M + 1) inc
    inc_hi = seeds[:, 2:3] << np.uint64(1) | seeds[:, 3:4] >> np.uint64(63)
    inc_lo = seeds[:, 3:4] << np.uint64(1) | np.uint64(1)
    hi, lo = seeds[:, 0:1] + inc_hi, seeds[:, 1:2] + inc_lo
    hi += lo < inc_lo
    # the multiplier's 64-bit halves and the 32-bit limbs of its low half
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
    m0, m1 = m_lo & _LOW32, m_lo >> _U32
    # little-endian scratch, for the word views of ``_write_signs``
    x, t, u, v = (np.empty((count, 1), "<u8") for _ in range(4))
    # high 32-bit words of the float64 output; +-1.0 has a zero low word
    high = out.view("<u4")[:, 1::2]
    # step -1 makes the seeded state; step i >= 0 makes output i's state
    for i in range(-1, outputs):
        # x -> M x + inc (mod 2**128) in place, from 32-bit limbs of lo
        np.bitwise_and(lo, _LOW32, out=x)
        np.multiply(x, m0, out=t)
        t >>= _U32
        t += np.multiply(x, m1, out=u)  # x0 m1 + carry of x0 m0
        np.right_shift(lo, _U32, out=x)
        np.bitwise_and(t, _LOW32, out=u)
        u += np.multiply(x, m0, out=v)  # x1 m0 + low half of t
        t >>= _U32
        u >>= _U32
        t += u
        t += np.multiply(x, m1, out=v)  # high half of lo m_lo
        hi *= m_lo
        hi += np.multiply(lo, m_hi, out=v)
        hi += t
        lo *= m_lo
        lo += inc_lo
        hi += inc_hi
        hi += np.less(lo, inc_lo, out=v)
        if i < 0:
            continue
        # XSL-RR output: hi ^ lo rotated right by the top 6 bits of hi
        np.right_shift(hi, _ROT_SHIFT, out=x)
        np.bitwise_xor(hi, lo, out=t)
        np.right_shift(t, x, out=u)
        np.negative(x, out=x)
        x &= _ROT_MASK
        t <<= x
        t |= u
        _write_signs(t, high[:, 2 * i:2 * i + 2])


def _fill_wide_signs(seeds: np.ndarray, out: np.ndarray, outputs: int) -> None:
    """``_fill_signs`` by one numpy PCG64 set to each stream's seeded state
    in turn, ``rows`` streams' raw outputs at a time in one buffer."""
    bits = np.random.PCG64(0)
    rows = min(len(seeds), max(1, _LANE_BLOCK // outputs))
    raw = np.empty((rows, outputs), "<u8")
    high = out.view("<u4")[:, 1::2]
    for first in range(0, len(seeds), rows):
        block = seeds[first:first + rows].tolist()
        for k, (state_hi, state_lo, seq_hi, seq_lo) in enumerate(block):
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            state = (_PCG_MULT * ((state_hi << 64 | state_lo) + inc) + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            raw[k] = bits.random_raw(outputs)
        _write_signs(raw[:len(block)], high[first:first + len(block)])


def _write_signs(raw: np.ndarray, high: np.ndarray) -> None:
    """Move each 32-bit word's top bit of the uint64 outputs ``raw`` (low
    half first; overwritten) into the sign bit of 1.0 in high words ``high``."""
    words = raw.view("<u4")
    words &= _SIGN32
    np.bitwise_xor(words[:, :high.shape[1]], _NEG_ONE_HIGH, out=high)
