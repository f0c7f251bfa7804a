"""Deterministic random streams built on the counter-based Philox generator.

Every consumer derives its own substream from a root seed plus a tuple of
integer path components (epoch, step, sample index, ...), so work can be
fanned out across samples without any ordering dependence: the draws a
sample sees are a pure function of (seed, path), never of scheduling.

A stream's generator is a Philox whose key is
`np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)`.
`RandomStream.children(ids)` serves the per-sample case: it derives the
keys of substream(i) for every i of an id array in one vectorised pass of
NumPy's published SeedSequence hash (the children differ only in their last
entropy word) and resets one reused Philox to each key in turn, instead of building
a SeedSequence and a Philox per sample. Every call checks its first and last
key against SeedSequence itself and raises ContractViolation if they differ,
so a change in NumPy's hashing can never silently change the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


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
        id, and ContractViolation for another id outside [0, 2**32) or if the
        derived keys disagree with SeedSequence.
        """
        ids = np.asarray(ids, dtype=np.int64)
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


def _words(value) -> list:
    """SeedSequence's coercion of an int, or a sequence of ints, to 32-bit words."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [w for v in value for w in _words(v)]


def _child_keys(seed: int, path: tuple, ids) -> np.ndarray:
    """Philox keys of substreams `ids` (each in [0, 2**32)) of (seed, path), shape (len(ids), 2) uint64.

    SeedSequence mixes the entropy words (seed words zero-padded to the pool
    size, then the spawn key) into a pool of four words; the shared prefix
    is mixed once with Python ints, and only the last word, the child index,
    is mixed as a uint32 array. Then the pool is hashed into four output
    words, read as two little-endian uint64.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + _words(path)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) & _MASK32
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    last = np.asarray(ids).astype(np.uint32)
    shift = np.uint32(_XSHIFT)
    words = []
    for dst in range(_POOL_SIZE):
        value = last ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> shift
        mixed = np.uint32((_MIX_MULT_L * pool[dst]) & _MASK32) - np.uint32(_MIX_MULT_R) * value
        mixed ^= mixed >> shift
        words.append(mixed)

    hash_const = _INIT_B
    for dst in range(_POOL_SIZE):
        words[dst] ^= np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        words[dst] *= np.uint32(hash_const)
        words[dst] ^= words[dst] >> shift
    words = [w.astype(np.uint64) for w in words]
    return np.stack([words[0] | words[1] << np.uint64(32), words[2] | words[3] << np.uint64(32)], axis=1)


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
