"""Deterministic seed derivation.

A single master seed expands into a tree of independent RNG streams.  Child
seeds are derived by hashing the full key path with SHA-256, so a stream's
identity depends only on its labels (e.g. master seed, round, client index)
and never on execution order.  No global RNG state is used anywhere.

stream builds one generator; pcg64_words runs numpy's SeedSequence seeding
on an array of child seeds, and from_words builds the same generators from
its rows, and pcg64_raw their first outputs without building them; lemire
turns raw outputs into numpy's bounded integers (the selector shuffles'
swaps, mutation._SelectorPlan.rows).  tests/test_seeds.py checks all four
against numpy.
"""

import functools
import hashlib
import itertools

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# hashmix call i xors with row i and multiplies by row i + 1 (h * mult ** i):
# 4 calls fill the pool and 12 mix it, 8 give the 4 uint64 state words
_POOL_MIX = np.array([_INIT_A * _MULT_A ** i % 2 ** 32 for i in range(17)], np.uint32)[:, None]
_STATE_OUT = np.array([_INIT_B * _MULT_B ** i % 2 ** 32 for i in range(9)], np.uint32)[:, None]
# numpy's PCG64 multiplier (pcg64.h), and uint64 masks and shifts
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LO32, _32, _58, _63, _64 = (np.uint64(v) for v in (0xFFFFFFFF, 32, 58, 63, 64))
_ONES = np.uint64(2 ** 64 - 1)


def child_seed(*keys) -> int:
    """Derive a 64-bit seed from a path of integer/string keys."""
    parts = []
    for k in keys:
        if isinstance(k, (bool, float)):
            raise TypeError(f"seed keys must be ints or strings, got {k!r}")
        if isinstance(k, (int, np.integer)):
            parts.append(f"i:{int(k)}")
        elif isinstance(k, str):
            parts.append(f"s:{k}")
        else:
            raise TypeError(f"seed keys must be ints or strings, got {k!r}")
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(*keys) -> np.random.Generator:
    """A fresh PCG64 generator seeded from the hashed key path."""
    return np.random.Generator(np.random.PCG64(child_seed(*keys)))


def _hashmix(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> np.uint32(16))


def pcg64_words(child_seeds) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for each s in
    child_seeds (unsigned 64-bit) as the rows of a C-contiguous (N, 4)
    uint64 array: numpy's pool mixing, one array operation per step.  A
    missing high word hashes like a zero one, so every s enters as two."""
    s = np.asarray(child_seeds, dtype=np.uint64)
    pool = _hashmix(np.array([s & np.uint64(0xFFFFFFFF), s >> np.uint64(32), 0 * s, 0 * s],
                             np.uint32), _POOL_MIX[:5])
    for src in range(4):   # pool[src] stays fixed while it mixes into the others
        dst = [d for d in range(4) if d != src]
        v = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_MIX[4 + 3 * src:8 + 3 * src])
        pool[dst] = v ^ (v >> np.uint32(16))
    out = _hashmix(pool[[0, 1, 2, 3] * 2], _STATE_OUT).astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T.copy()


class _Words(np.random.bit_generator.ISeedSequence):
    """One row of pcg64_words, as the seed sequence PCG64 reads it from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def from_words(words: np.ndarray) -> np.random.Generator:
    """stream(*keys) given the pcg64_words row of child_seed(*keys)."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


@functools.lru_cache(maxsize=None)
def _jumps(n: int) -> tuple:
    """numpy's PCG64 seeds words (s, q) as inc 2q + 1, state (inc + s) M + inc, and steps before
    each output: output i reads A_i s + D_i inc mod 2^128, A_i = M^(i+2), D_i = sum_{j<=i+2} M^j.
    A_i and 2 D_i as (2, 1, n) high, low and low-half words, then D_i's high and low words."""
    powers = [pow(_PCG_MULT, j, 2 ** 128) for j in range(n + 2)]
    d = list(itertools.accumulate(powers))[2:]
    k = np.array([divmod(x % 2 ** 128, 2 ** 64) for x in powers[2:] + [2 * x for x in d] + d],
                 np.uint64).reshape(3, n, 2).transpose(2, 0, 1)[:, :, None]
    return k[0, :2], k[1, :2], k[1, :2] & _LO32, k[1, :2] >> _32, k[0, 2], k[1, 2]


def pcg64_raw(words: np.ndarray, n: int) -> np.ndarray:
    """from_words(w).bit_generator.random_raw(n) for each row w of the (N, 4) uint64 words,
    as (N, n) uint64: 128-bit values as high and low words, low words' products by halves."""
    kh, kl, k0, k1, dh, dl = _jumps(n)
    vh, vl = words.T[0::2, :, None], words.T[1::2, :, None]     # s and q, (2, N, 1)
    a0, a1 = vl & _LO32, vl >> _32
    t = a1 * k0 + (a0 * k0 >> _32)
    u = (t & _LO32) + a0 * k1
    hi = a1 * k1 + (t >> _32) + (u >> _32) + vh * kl + vl * kh
    a, b = vl * kl
    low = a + b
    lo = low + dl
    hi = hi[0] + hi[1] + _carry(a, b, low) + dh + _carry(low, dl, lo)
    x, r = hi ^ lo, hi >> _58     # XSL-RR: the halves' xor, rotated right by the top 6 bits
    return (x >> r) | (x << ((_64 - r) & _63))


def _carry(a, b, s):
    """The carry out of s = a + b mod 2^64 as 0 or 1, in bit operations: loops that uint64
    comparisons would first fault in cost the process RSS."""
    return (a & b | (a | b) & (s ^ _ONES)) >> _63


def lemire(raw: np.ndarray, bound, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(0, bound, count) per row of uint64 PCG64 outputs, bound in [1, 2^32]
    as uint64 broadcast against (rows, count): numpy draws (u * bound) >> 32, u the next 32-bit
    half, low half first (Lemire), and may redraw u where (u * bound) mod 2^32 < bound.  The
    (rows, count) int64 values, and per row 1 if it holds such a u (draw it from its generator
    instead), else 0."""
    m = raw.astype("<u8", copy=False).view("<u4")[..., :count] * bound
    return (m >> _32).view(np.int64), np.bitwise_or.reduce(((m & _LO32) - bound) >> _63, axis=-1)


def fisher_yates(items, rng: np.random.Generator) -> np.ndarray:
    """Classic Fisher-Yates shuffle; returns a shuffled copy.

    Swap i (from the last entry down) takes j uniform in [0, i].  All the js
    are drawn in one call, which yields the same values and leaves the
    generator in the same state as drawing them one by one.
    """
    a = np.array(items)
    perm = list(range(len(a)))
    for i, j in zip(range(len(a) - 1, 0, -1),
                    rng.integers(0, np.arange(len(a), 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return a[perm]
