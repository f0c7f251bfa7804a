import warnings

import numpy as np
import pytest

from ecgmatch.augment import (
    AugmentConfig,
    CHANNEL_REORGANIZATION,
    RANDOM_NOISE,
    SIGNAL_DROPOUT,
    TEMPORAL_FLIP,
    apply_queue,
    augment_batch,
    channel_reorganization,
    random_noise,
    signal_dropout,
    strong_augment,
    temporal_flip,
    weak_augment,
)
from ecgmatch.data import Dataset, Subset
from ecgmatch.errors import ContractViolation
from ecgmatch.rng import RandomStream


def ramp_signal(channels=4, length=50):
    # strictly positive, strictly increasing, distinct rows
    return np.outer(np.arange(1, channels + 1), np.arange(1, length + 1)).astype(float)


def test_dropout_full_window_on_length_one_signal():
    x = np.ones((3, 1))
    out = signal_dropout(x, RandomStream(0), AugmentConfig())
    assert np.all(out == 0.0)


def test_dropout_window_length_one_changes_exactly_channels_entries():
    x = ramp_signal(channels=5, length=100)
    cfg = AugmentConfig(dropout_max_frac=0.01)  # floor(0.01*100) = 1
    out = signal_dropout(x, RandomStream(7), cfg)
    assert np.sum(out != x) == 5
    changed_cols = np.unique(np.where(out != x)[1])
    assert changed_cols.size == 1


def test_dropout_matches_seeded_generator_replay():
    x = ramp_signal()
    cfg = AugmentConfig(dropout_max_frac=0.5)
    out = signal_dropout(x, RandomStream(42), cfg)

    g = RandomStream(42).generator()
    w_max = int(0.5 * x.shape[1])
    w = int(g.integers(1, w_max + 1))
    start = int(g.integers(0, x.shape[1] - w + 1))
    expected = x.copy()
    expected[:, start : start + w] = 0.0
    assert np.array_equal(out, expected)


def test_dropout_touches_only_one_contiguous_window():
    x = ramp_signal()
    out = signal_dropout(x, RandomStream(3), AugmentConfig())
    cols = np.unique(np.where(out != x)[1])
    assert np.array_equal(cols, np.arange(cols.min(), cols.max() + 1))
    untouched = np.setdiff1d(np.arange(x.shape[1]), cols)
    assert np.array_equal(out[:, untouched], x[:, untouched])


def test_dropout_single_channel_mode():
    x = ramp_signal(channels=6)
    cfg = AugmentConfig(dropout_all_channels=False)
    out = signal_dropout(x, RandomStream(5), cfg)
    rows = np.unique(np.where(out != x)[0])
    assert rows.size == 1


def test_temporal_flip_reverses_columns():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(temporal_flip(x), np.array([[3.0, 2.0, 1.0], [6.0, 5.0, 4.0]]))


def test_temporal_flip_is_an_involution():
    x = ramp_signal()
    assert np.array_equal(temporal_flip(temporal_flip(x)), x)


def test_temporal_flip_constant_signal_unchanged():
    x = np.full((3, 10), 2.5)
    assert np.array_equal(temporal_flip(x), x)


def test_channel_reorganization_preserves_row_multiset():
    x = ramp_signal(channels=6)
    out = channel_reorganization(x, RandomStream(11))
    assert np.array_equal(np.sort(out.sum(axis=1)), np.sort(x.sum(axis=1)))
    assert sorted(map(tuple, out)) == sorted(map(tuple, x))


def test_channel_reorganization_two_channels_identity_or_swap():
    x = ramp_signal(channels=2)
    for seed in range(20):
        out = channel_reorganization(x, RandomStream(seed))
        assert np.array_equal(out, x) or np.array_equal(out, x[::-1])


def test_channel_reorganization_matches_permutation_replay():
    x = ramp_signal(channels=8)
    out = channel_reorganization(x, RandomStream(13))
    perm = RandomStream(13).generator().permutation(8)
    assert np.array_equal(out, x[perm])


def test_channel_reorganization_single_channel_warns_identity():
    x = ramp_signal(channels=1)
    with pytest.warns(UserWarning):
        out = channel_reorganization(x, RandomStream(0))
    assert np.array_equal(out, x)


def test_random_noise_tiny_sigma_is_near_identity():
    x = ramp_signal()
    out = random_noise(x, RandomStream(1), AugmentConfig(noise_sigma=1e-12))
    assert np.allclose(out, x, atol=1e-8)


def test_random_noise_moments():
    g = RandomStream(99).generator()
    x = g.standard_normal((2, 60000))  # per-channel std ~ 1
    cfg = AugmentConfig(noise_sigma=0.1)
    out = random_noise(x, RandomStream(5), cfg)
    noise = out - x
    n = noise.size
    sigma = 0.1 * x.std(axis=1).mean()
    assert abs(noise.mean()) < 3.0 * sigma / np.sqrt(n)
    assert abs(noise.std() - sigma) < 3.0 * sigma / np.sqrt(2.0 * n)


def test_random_noise_deterministic():
    x = ramp_signal()
    a = random_noise(x, RandomStream(8), AugmentConfig())
    b = random_noise(x, RandomStream(8), AugmentConfig())
    assert np.array_equal(a, b)


def _classify(x, out):
    if np.array_equal(out, x[:, ::-1]):
        return TEMPORAL_FLIP
    if np.any(out == 0.0):
        return SIGNAL_DROPOUT
    if sorted(map(tuple, out)) == sorted(map(tuple, x)):
        return CHANNEL_REORGANIZATION  # includes the identity permutation
    return RANDOM_NOISE


def test_weak_augment_chooses_each_transform_uniformly():
    x = ramp_signal()
    counts = {tid: 0 for tid in (SIGNAL_DROPOUT, TEMPORAL_FLIP, CHANNEL_REORGANIZATION, RANDOM_NOISE)}
    n = 4000
    for seed in range(n):
        out = weak_augment(x, RandomStream(seed), AugmentConfig())
        counts[_classify(x, out)] += 1
    for tid, c in counts.items():
        assert abs(c / n - 0.25) < 0.03, (tid, c / n)


def test_weak_augment_preserves_shape_and_closure():
    x = ramp_signal()
    out = weak_augment(x, RandomStream(17), AugmentConfig())
    assert out.shape == x.shape
    out2 = weak_augment(out, RandomStream(18), AugmentConfig())
    assert out2.shape == x.shape
    assert np.all(np.isfinite(out2))


def test_strong_augment_matches_manual_queue_composition():
    x = ramp_signal()
    cfg = AugmentConfig()
    stream = RandomStream(23)
    queued = apply_queue(x, [TEMPORAL_FLIP, SIGNAL_DROPOUT, CHANNEL_REORGANIZATION], stream, cfg)

    g = stream.generator()
    manual = temporal_flip(x)
    manual = signal_dropout(manual, g, cfg)
    manual = channel_reorganization(manual, g)
    assert np.array_equal(queued, manual)


def test_strong_augment_shape_and_determinism():
    x = ramp_signal()
    for seed in range(30):
        a = strong_augment(x, RandomStream(seed), AugmentConfig())
        b = strong_augment(x, RandomStream(seed), AugmentConfig())
        assert a.shape == x.shape
        assert np.array_equal(a, b)


def test_strong_augment_queue_length_bounds():
    x = ramp_signal()
    # max_transforms=1 reduces the queue to a single draw, same machinery as weak
    out = strong_augment(x, RandomStream(2), AugmentConfig(strong_max_transforms=1))
    assert out.shape == x.shape
    # every strong queue draws T in 1..4 distinct ids; replay the draws
    for seed in range(50):
        g = RandomStream(seed).generator()
        t = int(g.integers(1, 5))
        queue = g.permutation(4)[:t]
        assert 1 <= t <= 4
        assert len(set(queue.tolist())) == t


def test_augment_batch_per_sample_substreams_are_order_independent():
    xs = [ramp_signal(), ramp_signal() * 2.0, ramp_signal() * 3.0]
    stream = RandomStream(31)
    full = augment_batch(xs, stream, AugmentConfig())
    # augmenting only sample 2 reproduces its row from the full batch
    alone = weak_augment(xs[2], stream.substream(2), AugmentConfig())
    assert np.array_equal(full[2], alone)


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(dropout_max_frac=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(noise_sigma=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(strong_max_transforms=5)


# --- the per-sample code that augment_batch replaced, kept as its reference ---

def _ref_check(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"signal must be a (channels, length) matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def _ref_apply(tid, x, g, cfg):
    x = _ref_check(x)
    channels, length = x.shape
    if tid == SIGNAL_DROPOUT:
        w = int(g.integers(1, max(1, int(cfg.dropout_max_frac * length)) + 1))
        start = int(g.integers(0, length - w + 1))
        out = x.copy()
        if cfg.dropout_all_channels:
            out[:, start : start + w] = 0.0
        else:
            out[int(g.integers(0, channels)), start : start + w] = 0.0
        return out
    if tid == TEMPORAL_FLIP:
        return x[:, ::-1].copy()
    if tid == CHANNEL_REORGANIZATION:
        if channels < 2:
            warnings.warn("channel_reorganization on a single-channel signal is the identity")
            return x.copy()
        return x[g.permutation(channels)].copy()
    scale = cfg.noise_sigma * x.std(axis=1, keepdims=True)
    return x + scale * g.standard_normal(x.shape)


def _ref_augment(x, g, cfg, strong):
    ids = (SIGNAL_DROPOUT, TEMPORAL_FLIP, CHANNEL_REORGANIZATION, RANDOM_NOISE)
    if strong:
        t = int(g.integers(1, cfg.strong_max_transforms + 1))
        queue = [ids[i] for i in g.permutation(4)[:t]]
    else:
        queue = [ids[int(g.integers(0, 4))]]
    out = _ref_check(x)
    for tid in queue:
        out = _ref_apply(tid, out, g, cfg)
    return out


def _ref_batch(signals, stream, cfg, strong):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return [_ref_augment(x, stream.substream(i).generator(), cfg, strong)
                for i, x in enumerate(signals)]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _signals(g, n, shapes):
    return [g.normal(size=shapes[i % len(shapes)]) * 10.0 ** g.uniform(-3, 3) for i in range(n)]


@pytest.mark.parametrize("strong, cfg_kw", [
    (False, {}),
    (False, {"dropout_all_channels": False}),
    (False, {"dropout_max_frac": 1.0}),
    (True, {"strong_max_transforms": 1}),
    (True, {"strong_max_transforms": 2}),
    (True, {"strong_max_transforms": 3}),
    (True, {}),
    (True, {"dropout_all_channels": False, "dropout_max_frac": 1.0}),
])
@pytest.mark.parametrize("shape", [(3, 256), (5, 17), (4, 1)])
def test_augment_batch_equals_per_row_reference(strong, cfg_kw, shape):
    cfg = AugmentConfig(**cfg_kw)
    g = np.random.default_rng([int(strong), *shape])
    xs = _signals(g, 120, [shape])
    xs[3] = np.full(shape, 2.5)  # constant rows take no noise
    stream = RandomStream(int(g.integers(0, 2**63)), (3, 1))
    _assert_same_bytes(augment_batch(xs, stream, cfg, strong=strong), _ref_batch(xs, stream, cfg, strong))


@pytest.mark.parametrize("strong", [False, True])
def test_augment_batch_single_channel_warns_and_equals_reference(strong):
    xs = _signals(np.random.default_rng(4), 60, [(1, 30)])
    stream, cfg = RandomStream(9), AugmentConfig()
    with pytest.warns(UserWarning, match="single-channel"):
        got = augment_batch(xs, stream, cfg, strong=strong)
    _assert_same_bytes(got, _ref_batch(xs, stream, cfg, strong))


@pytest.mark.parametrize("strong", [False, True])
def test_augment_batch_ragged_list_spanning_two_blocks_equals_reference(strong):
    """Shuffled rows of three signal lengths, augmented block by block of `Subset.blocks`."""
    g = np.random.default_rng(5)
    sizes, shapes = (400, 120, 80), ((3, 256), (3, 100), (3, 1))  # the 256-sample rows span two blocks
    datasets = [Dataset(np.stack(_signals(g, n, [shape])), np.zeros((n, 5))) for n, shape in zip(sizes, shapes)]
    subset = Subset(datasets, np.repeat([0, 1, 2], sizes), np.concatenate([np.arange(n) for n in sizes]))
    picks = g.permutation(len(subset))
    stream, cfg = RandomStream(2**64 - 1, (2**33,)), AugmentConfig()
    got = [None] * len(picks)
    for positions, block in subset.blocks(picks):
        for p, row in zip(positions, augment_batch(block, stream, cfg, strong=strong, ids=positions)):
            got[p] = row
    xs = [datasets[d].signals[i] for d, i in zip(subset.sources[picks], subset.rows[picks])]
    _assert_same_bytes(got, _ref_batch(xs, stream, cfg, strong))


def test_augment_batch_offset_draws_the_rows_of_the_full_list():
    xs = _signals(np.random.default_rng(6), 40, [(2, 20)])
    stream, cfg = RandomStream(3), AugmentConfig()
    full = augment_batch(xs, stream, cfg, strong=True)
    _assert_same_bytes(augment_batch(xs[25:], stream, cfg, strong=True, ids=np.arange(25, 40)), full[25:])
    picked = [7, 0, 31]
    _assert_same_bytes(augment_batch([xs[i] for i in picked], stream, cfg, strong=True, ids=picked), full[picked])
    with pytest.raises(ContractViolation):  # not the rows of substreams 0 and 1
        augment_batch(xs[:2], stream, cfg, strong=True, ids=[0.5, 1.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    xs = _signals(np.random.default_rng(7), 10, [(3, 40)])
    xs[6][1, 5] = bad
    for strong in (False, True):
        with pytest.raises(ValueError, match="non-finite"):
            augment_batch(xs, RandomStream(0), AugmentConfig(), strong=strong)
    with pytest.raises(ValueError, match="non-finite"):
        weak_augment(xs[6], RandomStream(0), AugmentConfig())


def test_noise_overflowing_mid_queue_raises_like_the_per_row_code():
    x = 1e200 * ramp_signal(channels=3)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            apply_queue(x, [RANDOM_NOISE, TEMPORAL_FLIP], RandomStream(1))
        # noise last: nothing checks its output, here or in the per-row code
        last = apply_queue(x, [TEMPORAL_FLIP, RANDOM_NOISE], RandomStream(1))
    assert not np.all(np.isfinite(last))


@pytest.mark.parametrize("tid", [0, 5])
def test_apply_queue_unknown_id_raises_naming_it(tid):
    with pytest.raises(ValueError, match=f"unknown transform id {tid}$"):
        apply_queue(ramp_signal(), [TEMPORAL_FLIP, tid], RandomStream(0))


@pytest.mark.parametrize("queue", [
    [RANDOM_NOISE, RANDOM_NOISE],
    [SIGNAL_DROPOUT, TEMPORAL_FLIP, SIGNAL_DROPOUT],
    [CHANNEL_REORGANIZATION, CHANNEL_REORGANIZATION, RANDOM_NOISE],
])
def test_apply_queue_repeated_ids_equal_the_sequential_chain(queue):
    x = _signals(np.random.default_rng(8), 1, [(4, 30)])[0]
    cfg = AugmentConfig(dropout_all_channels=False)
    want, g = x, RandomStream(12).generator()
    for tid in queue:
        want = _ref_apply(tid, want, g, cfg)
    _assert_same_bytes([apply_queue(x, queue, RandomStream(12), cfg)], [want])


def test_apply_queue_empty_queue_returns_an_equal_copy():
    x = ramp_signal()
    out = apply_queue(x, [], RandomStream(0))
    assert out is not x and not np.shares_memory(out, x)
    _assert_same_bytes([out], [x])
