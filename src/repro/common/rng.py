"""Deterministic random-number helpers.

All stochastic behaviour in the project (workload synthesis, branch
behaviour assignment) flows through :class:`SplitMix`, a tiny, fast,
seedable generator, so that every simulation is bit-reproducible and
sub-streams can be derived for independent components.

SplitMix64 has no hidden state beyond a counter: output *k* (1-based) of
the stream seeded with *s* is ``mix(s + k·γ mod 2⁶⁴)``. The stream is
therefore drawn :data:`BLOCK` outputs at a time with numpy ``uint64``
arithmetic (whose multiply wraps modulo 2⁶⁴, exactly like the scalar
recurrence) and served through a C-level iterator, so a draw costs no
Python frame. Consumers that draw in tight loops bind
``rng.next_u64`` to a local once and call it directly.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

MASK64 = (1 << 64) - 1

#: Outputs drawn per block of the stream.
BLOCK = 4096

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
#: ``next_u64() / TWO64`` is ``uniform()``.
TWO64 = float(1 << 64)


def _draw_block(seed: np.uint64, block: int) -> list:
    """Outputs ``block·BLOCK + 1 .. (block+1)·BLOCK`` of the stream."""
    k = np.arange(block * BLOCK + 1, (block + 1) * BLOCK + 1, dtype=np.uint64)
    z = k * _GAMMA + seed
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z.tolist()


class SplitMix:
    """SplitMix64 PRNG: fast, high-quality, trivially seedable.

    ``next_u64`` is the stream's own iterator, bound per instance.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int) -> None:
        blocks = map(partial(_draw_block, np.uint64(seed & MASK64)),
                     itertools.count())
        self.next_u64 = itertools.chain.from_iterable(blocks).__next__

    def uniform(self) -> float:
        """Float in [0, 1)."""
        return self.next_u64() / TWO64

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        """Uniformly pick one element of *seq*."""
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.next_u64() % len(seq)]

    def weighted_choice(self, items, weights) -> object:
        """Pick ``items[i]`` with probability proportional to ``weights[i]``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        point = self.uniform() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]

    def geometric(self, mean: float) -> int:
        """Geometric-ish positive integer with the given mean (>= 1)."""
        if mean < 1.0:
            raise ValueError("mean must be >= 1")
        if mean == 1.0:
            return 1
        p = 1.0 / mean
        count = 1
        while self.uniform() > p:
            count += 1
            if count > 64 * mean:  # hard safety bound
                break
        return count

    def split(self) -> "SplitMix":
        """Derive an independent child stream."""
        return SplitMix(self.next_u64() ^ 0xA5A5A5A5DEADBEEF)


def mix_hash(*values: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints (for index hashing)."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= v & MASK64
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 29
    return h
