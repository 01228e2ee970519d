"""Deterministic RNG streams, one per (seed, consumer label).

Every consumer of randomness (weight init, batch shuffling, guidance
vectors, pair sampling, ...) gets its own generator derived from the
master seed and a fixed label. Adding or removing one consumer therefore
never perturbs the draws seen by the others, which is what makes
"same seed, same checkpoint bytes" hold across configurations.
"""

from __future__ import annotations

import numpy as np

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one (seed, consumer-label) pair.

    The label is folded into the seed sequence's spawn key via FNV-1a, so
    streams are stable across processes and platforms (SeedSequence and
    PCG64 are specified to be reproducible).
    """
    key = fnv1a64(label.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(key & 0xFFFFFFFF, key >> 32))
    return np.random.default_rng(ss)
