"""Deterministic pseudo-randomness pinned to splitmix64.

Every seeded operation in the package draws from this generator so that
identical seeds give identical results regardless of platform or Python
version. Bounded draws use plain modulo and floats use the top 53 bits;
both conventions are part of the pinned behaviour, not implementation
details. ``bulk`` computes a run of outputs at once in numpy's wrapping
uint64 arithmetic; every constant it uses is an ``np.uint64``, so no
operand is ever promoted to a signed or float type.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 generator (Steele, Lea & Flood's mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def bulk(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array; the state advances by k steps.

        Output i mixes state seed + (i + 1) * gamma mod 2**64, the state that
        the (i + 1)-th ``next_u64`` call would reach.
        """
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def next_below(self, n: int) -> int:
        """Integer in [0, n). Modulo draw; bias is irrelevant for reproducibility."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_float(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index down.

        The swap partner of index i is ``next_below(i + 1)``; the m - 1
        draws come from one ``bulk`` call.
        """
        m = len(items)
        if m < 2:
            return
        bounds = np.arange(m, 1, -1, dtype=np.uint64)
        for i, j in zip(range(m - 1, 0, -1), (self.bulk(m - 1) % bounds).tolist()):
            items[i], items[j] = items[j], items[i]


def sample_indices(m: int, n: int, rng: SplitMix64) -> list[int]:
    """n distinct indices from range(m), drawn by shuffle, returned ascending."""
    if not 0 <= n <= m:
        raise ValueError(f"cannot draw {n} distinct indices from {m}")
    pool = list(range(m))
    rng.shuffle(pool)
    return sorted(pool[:n])
