import numpy as np
import pytest

from ecgmatch import rng
from ecgmatch.errors import ContractViolation
from ecgmatch.rng import RandomStream


def _reference_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


def _random_word(g):
    kind = g.random()
    if kind < 0.15:
        return (1 << 64) + int.from_bytes(g.bytes(int(g.integers(1, 6))), "little")
    return int(g.integers(0, 2**40)) if kind < 0.35 else int(g.integers(0, 50))


def _random_case(g):
    """A seed of up to 192 bits, a path of 0-8 words (some >= 2**32 or >= 2**64) and a child range."""
    seed = int.from_bytes(g.bytes(int(g.choice([1, 4, 8, 12, 16, 20, 24]))), "little")
    path = tuple(_random_word(g) for _ in range(int(g.integers(0, 9))))
    first = int(g.choice([0, int(g.integers(0, 1000)), 2**32 - 64]))
    return seed, path, first, int(g.integers(0, 40))


def test_child_keys_match_seed_sequence_on_random_cases():
    g = np.random.default_rng(2024)
    checked, seeds_past_four_words, wide_path_words = 0, 0, 0
    for _ in range(200):
        seed, path, first, n = _random_case(g)
        keys = rng._child_keys(seed, path, np.arange(first, first + n))
        assert keys.shape == (n, 2) and keys.dtype == np.uint64
        for i in range(n):
            assert np.array_equal(keys[i], _reference_key(seed, path + (first + i,))), (seed, path, first + i)
        checked += n
        seeds_past_four_words += n > 0 and seed >= 1 << 128
        wide_path_words += n > 0 and any(w >= 1 << 64 for w in path)
    assert checked > 2000 and seeds_past_four_words > 20 and wide_path_words > 20


@pytest.mark.parametrize("seed, path", [
    (0, ()),
    (2**64 - 1, ()),
    (12345, (2**32, 2**40 + 7, 0, 3)),
    (7, tuple(range(1, 17))),
    (2**200 + 11, ()),
    (2**130, (2**100, 5)),
])
def test_children_draw_what_each_substream_generator_draws(seed, path):
    stream = RandomStream(seed, path)
    ids = [5, 6, 13, 9, 0, 2**32 - 1, 7, 5]  # in any order, repeats allowed
    for i, g in zip(ids, stream.children(ids)):
        want = stream.substream(i).generator()
        assert g.integers(0, 4) == want.integers(0, 4)
        assert np.array_equal(g.permutation(5), want.permutation(5))
        assert np.array_equal(g.standard_normal((2, 7)), want.standard_normal((2, 7)))


def test_children_of_zero_and_one():
    stream = RandomStream(3, (1, 2))
    assert list(stream.children([])) == []
    (g,) = list(stream.children([0]))
    assert np.array_equal(g.random(4), stream.substream(0).generator().random(4))


def test_children_reject_negative_seed_and_path_words_like_generator():
    for stream in (RandomStream(-1), RandomStream(4, (2, -3))):
        with pytest.raises(ValueError) as want:
            stream.generator()
        with pytest.raises(ValueError) as got:
            stream.children(range(3))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_children_reject_indices_beyond_one_word():
    with pytest.raises(ContractViolation):
        RandomStream(0).children([2**32 - 1, 2**32])
    with pytest.raises(ContractViolation):
        RandomStream(0).children([0, 2**32, 1])
    with pytest.raises(ValueError):
        RandomStream(0).children([-1, 0])


@pytest.mark.parametrize("ids", [[0.5, 1.5], np.array([0.0, 1.0]), [True, False]])
def test_children_reject_non_integer_ids(ids):
    """A float or bool id is rejected, not truncated to another substream's draws."""
    with pytest.raises(ContractViolation):
        RandomStream(0).children(ids)


@pytest.mark.parametrize("row", [0, -1])
def test_children_guard_fires_on_a_corrupted_key(monkeypatch, row):
    real = rng._child_keys

    def corrupted(*args):
        keys = real(*args)
        keys[row, 1] ^= np.uint64(1)
        return keys

    monkeypatch.setattr(rng, "_child_keys", corrupted)
    with pytest.raises(ContractViolation):
        RandomStream(11, (4,)).children(np.arange(6))
