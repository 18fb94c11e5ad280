"""Deterministic seed derivation.

A single master seed expands into a tree of independent RNG streams.  Child
seeds are derived by hashing the full key path with SHA-256, so a stream's
identity depends only on its labels (e.g. master seed, round, client index)
and never on execution order.  No global RNG state is used anywhere.
"""

import hashlib

import numpy as np


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
