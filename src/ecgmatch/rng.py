"""Deterministic random streams built on the counter-based Philox generator.

Every consumer derives its own substream from a root seed plus a tuple of
integer path components (epoch, step, sample index, ...), so work can be
fanned out across samples without any ordering dependence: the draws a
sample sees are a pure function of (seed, path), never of scheduling.

A stream's generator is a Philox whose key is
`np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)`.
`RandomStream.children(ids)` serves the per-sample case. A child's entropy is
its parent's plus its id, so it mixes all ids at once into NumPy's pool for
(seed, path), hashes out the keys and resets one reused Philox to each, instead
of a SeedSequence and a Philox per sample. Every call checks its first and
last key against SeedSequence and raises ContractViolation if they differ, so
a change in NumPy's hashing can never silently change the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


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

    def children(self, ids):
        """Iterator over a generator at the start of substream(i), for each i in the integer array `ids`.

        One Generator object is reset for every child, so each one must be
        used up before the iterator advances. Raises the ValueError
        `generator()` raises for a negative seed, path word, or first or last
        id, and ContractViolation for non-integer ids, another id outside
        [0, 2**32), or derived keys that disagree with SeedSequence.
        """
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise ContractViolation(f"child ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64)
        ends = [_reference_key(self.seed, self.path + (int(i),)) for i in ids[[0, -1]]] if ids.size else []
        if ids.size and (ids.min() < 0 or ids.max() >= 1 << 32):
            raise ContractViolation(f"child ids must lie in [0, 2**32), got {ids.min()}..{ids.max()}")
        keys = _child_keys(self.seed, self.path, ids)
        if ids.size and not (np.array_equal(keys[0], ends[0]) and np.array_equal(keys[-1], ends[1])):
            raise ContractViolation("vectorised substream keys differ from np.random.SeedSequence")
        return _reset_to_each(keys)


def _reference_key(seed: int, path: tuple) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


def _reset_to_each(keys: np.ndarray):
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty output buffer; only the key changes
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def _word_count(value: int) -> int:
    """How many 32-bit words SeedSequence coerces a non-negative int to."""
    return max(1, -(-int(value).bit_length() // 32))


def _hash_steps(words, init: int, mult: int, skip: int) -> np.ndarray:
    """SeedSequence's hash of four words, shape (4, ...).

    Word j is XORed with `init * mult**(skip + j)`, multiplied by the next
    power (mod 2**32), and XOR-shifted.
    """
    consts = np.array([[init * pow(mult, skip + j, 1 << 32) % (1 << 32)] for j in range(5)], dtype=np.uint32)
    words = (words ^ consts[:4]) * consts[1:]
    return words ^ (words >> _XSHIFT)


def _child_keys(seed: int, path: tuple, ids) -> np.ndarray:
    """Philox keys of substreams `ids` (each in [0, 2**32)) of (seed, path), shape (len(ids), 2) uint64.

    SeedSequence mixes its entropy words (the seed zero-padded to four, then
    the path) into a four-word pool one word at a time, so the pool of (seed,
    path) is each child's before its id. Only the id is mixed here, with the
    hash constants after 16 pool-setup steps and 4 per word past the fourth.
    """
    pool = np.random.SeedSequence(seed, spawn_key=path).pool[:, None]
    skip = 16 + 4 * (max(0, _word_count(seed) - 4) + sum(map(_word_count, path)))
    value = _hash_steps(np.asarray(ids).astype(np.uint32), _INIT_A, _MULT_A, skip)
    words = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * value
    words = _hash_steps(words ^ (words >> _XSHIFT), _INIT_B, _MULT_B, 0)
    return np.ascontiguousarray(words.T).view("<u8")


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
