"""numpy's ``Generator(PCG64(seed)).random(n)``, computed without importing ``numpy.random``.

That import pulls in ``secrets``, ``hashlib`` and OpenSSL, about 6 MB of a
process that draws one split. The stream is fixed by its definitions:

- ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four
  words and draws four 64-bit words from it: the LCG's initial state (the
  first two, high word first) and its stream (the last two);
- ``pcg64_set_seed`` starts the 128-bit LCG ``s -> M*s + inc`` from them;
- each draw steps the LCG, folds the state to 64 bits by XSL-RR, and keeps
  the top 53 bits as ``(x >> 11) * 2**-53``.

The states are computed in blocks of ``_BLOCK`` as ``(hi, lo)`` uint64
arrays: the first block by doubling (states ``1..m`` give ``m+1..2m`` through
the ``m``-step map), each later block from the one before by the
``_BLOCK``-step affine map, so memory stays one block whatever ``n`` is.
"""
from __future__ import annotations

import numpy as np

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_BLOCK = 1 << 14
_LOW32, _32 = np.uint64(_MASK32), np.uint64(32)


def _hasher(const: int, mult: int):
    """``SeedSequence``'s 32-bit hash: each call mixes one word and moves the constant on."""
    def step(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return step


def _seed_state(seed: int) -> tuple[int, int]:
    """``(state, inc)`` after ``pcg64_set_seed`` with ``SeedSequence(seed).generate_state(4)``."""
    words = [seed & _MASK32]  # the seed's 32-bit words, least significant first
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    w0, w1, w2, w3 = (out[2 * i] | out[2 * i + 1] << 32 for i in range(4))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _MULT + inc) & _MASK128
    return state, inc


def _affine(hi, lo, mult: int, add: int):
    """``(mult * s + add) mod 2**128`` for the states ``s = hi * 2**64 + lo``, as ``(hi, lo)``.

    uint64 products wrap mod 2**64, which is exact for the low word and the
    cross terms; the high word of ``lo * mult``'s low word is summed from
    32-bit limbs.
    """
    m_hi, m_lo, a_hi, a_lo = map(np.uint64, (mult >> 64, mult & _MASK64, add >> 64, add & _MASK64))
    l0, l1, m0, m1 = lo & _LOW32, lo >> _32, m_lo & _LOW32, m_lo >> _32
    cross, mid = l0 * m1, l1 * m0
    carry = (l0 * m0 >> _32) + (cross & _LOW32) + (mid & _LOW32)
    high = l1 * m1 + (cross >> _32) + (mid >> _32) + (carry >> _32)
    high += hi * m_lo + lo * m_hi + a_hi
    low = lo * m_lo
    low += a_lo
    high += low < a_lo
    return high, low


def uniforms(seed: int, n: int):
    """Yield ``Generator(PCG64(seed)).random(n)`` as float64 blocks of at most ``_BLOCK`` draws."""
    state, inc = _seed_state(seed)
    mult, add = _MULT, inc  # the map of one step, then of len(hi) steps
    state = (state * mult + add) & _MASK128
    hi, lo = np.array([state >> 64], dtype=np.uint64), np.array([state & _MASK64], dtype=np.uint64)
    while len(hi) < min(n, _BLOCK):
        new_hi, new_lo = _affine(hi, lo, mult, add)
        hi, lo = np.concatenate([hi, new_hi]), np.concatenate([lo, new_lo])
        mult, add = mult * mult & _MASK128, (mult * add + add) & _MASK128
    for start in range(0, n, _BLOCK):
        if start:
            hi, lo = _affine(hi, lo, mult, add)
        top = hi[: n - start]
        x, rot = top ^ lo[: n - start], top >> np.uint64(58)  # XSL, then rotate right by rot
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        yield (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def below(seed: int, n: int, fraction: float) -> np.ndarray:
    """``Generator(PCG64(seed)).random(n) < fraction`` as a boolean array."""
    out = np.empty(n, dtype=bool)
    for start, block in zip(range(0, n, _BLOCK), uniforms(seed, n)):
        np.less(block, fraction, out=out[start:start + len(block)])
    return out
