"""``default_rng((seed, trial)).random(k)`` of many trials in one numpy pass.

``default_rng((seed, trial))`` hashes the uint32 words of seed and trial
with SeedSequence (NEP 19), seeds a PCG64 with four uint64 words of the
hashed state, and ``random`` turns each 64-bit output into the double
``(next64 >> 11) * 2**-53``.  SeedSequence and PCG64 (O'Neill, "PCG",
HMC-CS-2014-0905) are fixed algorithms whose streams numpy keeps stable, so
here they run column-wise over the trials: SeedSequence in uint32 columns,
the 128-bit LCG in (high, low) uint64 limbs.  The results are numpy's bit
for bit.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
# SeedSequence: a pool of four uint32 words and its hashing constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, by uint64 limbs and by the low limb's
# uint32 halves.
_MUL_HI, _MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_B0, _B1 = _MUL_LO & _M32, _MUL_LO >> 32


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int, least
    significant first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _M32]
    while n := n >> 32:
        out.append(n & _M32)
    return out


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mixed pool from equal-length uint32 entropy columns."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _mul_add(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * mult + inc`` mod 2**128, in uint64 limbs."""
    a0, a1 = lo & _M32, lo >> 32
    p00, p01, p10 = a0 * _B0, a0 * _B1, a1 * _B0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * _B1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo, hi = lo * _MUL_LO, hi * _MUL_LO + lo * _MUL_HI + carry
    out = lo + inc_lo
    return hi + inc_hi + (out < lo), out


def pcg_states(seed: int, trials: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64 ``(state_hi, state_lo, inc_hi, inc_lo)`` of
    ``default_rng((seed, t))`` for each uint64 trial index t, as in
    ``pcg64_set_seed``: inc is ``initseq << 1 | 1``, and the state is
    stepped once from 0, advanced by the initial state and stepped again."""
    trials = np.asarray(trials, dtype=np.uint64)
    out = [np.empty_like(trials) for _ in range(4)]
    # An index of 2**32 and above is two words, which lengthens the entropy.
    wide = trials >> 32 != 0
    for rows in (~wide, wide):
        if not rows.any():
            continue
        t = trials[rows]
        cols = [np.full(len(t), w, dtype=np.uint32) for w in _words(seed)]
        cols.append((t & _M32).astype(np.uint32))
        if rows is wide:
            cols.append((t >> 32).astype(np.uint32))
        pool = _pool(cols)
        h, state = _INIT_B, []
        for i in range(2 * _POOL):  # generate_state(4, uint64), by uint32 halves
            v = pool[i % _POOL] ^ h
            h = h * _MULT_B & _M32
            v = v * h
            state.append((v ^ v >> 16).astype(np.uint64))
        w0, w1, w2, w3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
        lo = inc_lo + w1  # the first step from 0 gives inc
        hi, lo = _mul_add(inc_hi + w0 + (lo < inc_lo), lo, inc_hi, inc_lo)
        for dst, col in zip(out, (hi, lo, inc_hi, inc_lo)):
            dst[rows] = col
    return tuple(out)


def trial_doubles(seed: int, trials: np.ndarray, count: int) -> np.ndarray:
    """``default_rng((seed, t)).random(count)`` for each trial index t, one
    row per trial: each step advances the LCG, takes its XSL-RR output (the
    two limbs xor-ed, rotated right by the state's top six bits) and keeps
    its top 53 bits."""
    hi, lo, inc_hi, inc_lo = pcg_states(seed, trials)
    out = np.empty((len(lo), count))
    for k in range(count):
        hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
        x, r = hi ^ lo, hi >> 58
        out[:, k] = (x >> r | x << (64 - r & 63)) >> 11
    return out * 2.0**-53
