import numpy as np
import pytest

from ecgmatch import rng
from ecgmatch.errors import ContractViolation
from ecgmatch.rng import RandomStream


def _reference_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


def _random_case(g):
    """A seed up to 96 bits, a path of 0-8 words (some >= 2**32) and a child range."""
    seed = int.from_bytes(g.bytes(int(g.choice([1, 4, 8, 12]))), "little")
    path = tuple(int(g.integers(0, 2**40)) if g.random() < 0.3 else int(g.integers(0, 50))
                 for _ in range(int(g.integers(0, 9))))
    first = int(g.choice([0, int(g.integers(0, 1000)), 2**32 - 64]))
    return seed, path, first, int(g.integers(0, 40))


def test_child_keys_match_seed_sequence_on_random_cases():
    g = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        seed, path, first, n = _random_case(g)
        keys = rng._child_keys(seed, path, first, n)
        assert keys.shape == (n, 2) and keys.dtype == np.uint64
        for i in range(n):
            assert np.array_equal(keys[i], _reference_key(seed, path + (first + i,))), (seed, path, first + i)
        checked += n
    assert checked > 2000


@pytest.mark.parametrize("seed, path", [
    (0, ()),
    (2**64 - 1, ()),
    (12345, (2**32, 2**40 + 7, 0, 3)),
    (7, tuple(range(1, 17))),
])
def test_children_draw_what_each_substream_generator_draws(seed, path):
    stream = RandomStream(seed, path)
    n, first = 9, 5
    for i, g in enumerate(stream.children(n, first)):
        want = stream.substream(first + i).generator()
        assert g.integers(0, 4) == want.integers(0, 4)
        assert np.array_equal(g.permutation(5), want.permutation(5))
        assert np.array_equal(g.standard_normal((2, 7)), want.standard_normal((2, 7)))


def test_children_of_zero_and_one():
    stream = RandomStream(3, (1, 2))
    assert list(stream.children(0)) == []
    (g,) = list(stream.children(1))
    assert np.array_equal(g.random(4), stream.substream(0).generator().random(4))


def test_children_reject_negative_seed_and_path_words_like_generator():
    for stream in (RandomStream(-1), RandomStream(4, (2, -3))):
        with pytest.raises(ValueError) as want:
            stream.generator()
        with pytest.raises(ValueError) as got:
            stream.children(3)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_children_reject_indices_beyond_one_word():
    with pytest.raises(ContractViolation):
        RandomStream(0).children(2, 2**32 - 1)
    with pytest.raises(ValueError):
        RandomStream(0).children(2, -1)


@pytest.mark.parametrize("row", [0, -1])
def test_children_guard_fires_on_a_corrupted_key(monkeypatch, row):
    real = rng._child_keys

    def corrupted(*args):
        keys = real(*args)
        keys[row, 1] ^= np.uint64(1)
        return keys

    monkeypatch.setattr(rng, "_child_keys", corrupted)
    with pytest.raises(ContractViolation):
        RandomStream(11, (4,)).children(6)
