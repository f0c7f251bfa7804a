"""Deterministic random streams built on the counter-based Philox generator.

Every consumer derives its own substream from a root seed plus a tuple of
integer path components (epoch, step, sample index, ...), so work can be
fanned out across samples without any ordering dependence: the draws a
sample sees are a pure function of (seed, path), never of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandomStream:
    """Handle for a reproducible random source.

    Same (seed, path) always yields the same generator state; `substream`
    derives children without consuming any randomness from the parent.
    """

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, *ids: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(int(i) for i in ids))


def as_generator(rng) -> np.random.Generator:
    """Accept either a RandomStream or an already-running Generator.

    Pipelines coerce once and thread the single generator through their
    stages so that successive stages consume one call sequence.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RandomStream):
        return rng.generator()
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")
