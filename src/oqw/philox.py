"""Counter-based uniforms for many trajectory streams at once.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) evaluated with uint64 numpy arrays, one lane per (stream, counter)
pair, exactly as numpy's ``Philox`` bit generator runs it.  ``uniforms`` thus
reproduces ``np.random.Generator(np.random.Philox(key=(seed, index))).random()``
for a whole ensemble in a fixed number of array operations.
"""

from __future__ import annotations

import numpy as np

# round multipliers and Weyl key increments of Philox4x64
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
CHUNK = 16384   # counter blocks per pass, so the scratch arrays stay in cache
_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray,
             a0: np.ndarray, a1: np.ndarray, t: np.ndarray) -> None:
    """``hi, lo`` = high and low words of ``a * m`` for a 64-bit constant ``m``.

    Schoolbook product on 32-bit halves, in place (``a0``, ``a1``, ``t`` are
    scratch); no partial sum overflows 64 bits.
    """
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.multiply(a, np.uint64(m), out=lo)
    np.bitwise_and(a, _LO32, out=a0)
    np.right_shift(a, _S32, out=a1)
    np.multiply(a0, m0, out=hi)
    np.right_shift(hi, _S32, out=hi)
    np.multiply(a1, m0, out=t)
    np.add(hi, t, out=hi)              # a1*m0 + (a0*m0 >> 32)
    np.bitwise_and(hi, _LO32, out=t)
    np.right_shift(hi, _S32, out=hi)
    np.multiply(a0, m1, out=a0)
    np.add(t, a0, out=t)               # middle word with its carry
    np.right_shift(t, _S32, out=t)
    np.multiply(a1, m1, out=a1)
    np.add(hi, a1, out=hi)
    np.add(hi, t, out=hi)


def uniforms(seed: int, indices, start: int, length: int) -> np.ndarray:
    """Draws ``start .. start+length-1`` of the streams of many trajectories.

    Row ``r`` equals ``trajectory.trajectory_rng(seed, indices[r]).random(
    start + length)[start:]`` bit for bit: numpy's Philox keyed ``(seed, index)``
    turns counter ``c + 1`` into draws ``4c .. 4c+3``, and ``random()`` keeps
    the top 53 bits of each.
    """
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    first, last = start // 4, (start + length - 1) // 4
    per_row = last - first + 1
    total = idx.size * per_row
    ctr = np.tile(np.arange(first + 1, last + 2, dtype=np.uint64), idx.size)
    key = np.repeat(idx, per_row)
    raw = np.empty((total, 4), dtype=np.uint64)
    scratch = [np.empty(min(CHUNK, total), dtype=np.uint64) for _ in range(12)]
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        x0, x1, x2, x3, h0, l0, h1, l1, a0, a1, t, k1 = (b[:hi - lo] for b in scratch)
        k0 = seed & _MASK64
        k1[...] = key[lo:hi]
        # round 0 from (ctr, 0, 0, 0): the product of x2 = 0 is 0, and x1 = x3 = 0,
        # so it leaves (k0, 0, hi(ctr * M0) ^ k1, lo(ctr * M0))
        _mulhilo(ctr[lo:hi], _M[0], x2, x3, a0, a1, t)
        np.bitwise_xor(x2, k1, out=x2)
        x0[...], x1[...] = k0, 0
        for _ in range(9):
            k0 = (k0 + _W[0]) & _MASK64
            k1 += np.uint64(_W[1])
            _mulhilo(x0, _M[0], h0, l0, a0, a1, t)
            _mulhilo(x2, _M[1], h1, l1, a0, a1, t)
            np.bitwise_xor(h1, x1, out=h1)
            np.bitwise_xor(h1, np.uint64(k0), out=h1)
            np.bitwise_xor(h0, x3, out=h0)
            np.bitwise_xor(h0, k1, out=h0)
            # (x0, x1, x2, x3) <- (h1 ^ x1 ^ k0, l1, h0 ^ x3 ^ k1, l0)
            x0, x1, x2, x3, h0, l0, h1, l1 = h1, l1, h0, l0, x0, x1, x2, x3
        for lane, word in enumerate((x0, x1, x2, x3)):
            raw[lo:hi, lane] = word
    raw >>= np.uint64(11)
    off = start - 4 * first
    out = raw.reshape(idx.size, 4 * per_row)[:, off:off + length].astype(np.float64)
    out *= 1.0 / 9007199254740992.0
    return out
