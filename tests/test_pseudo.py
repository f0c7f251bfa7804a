import tracemalloc

import numpy as np
import pytest

from ecgmatch import data, nn, pseudo
from ecgmatch.errors import ConfigurationError, ContractViolation

from oracles import knn_oracle


def toy_model(seed=0, input_dim=6, d=4, c=3):
    cfg = nn.ModelConfig(input_dim=input_dim, num_classes=c, hidden_dims=(5,),
                         feature_dim=d, head_hidden=4, activation="tanh")
    return cfg, nn.init_params(cfg, np.random.default_rng(seed))


def test_bank_init_empty_pool_errors():
    cfg, params = toy_model()
    with pytest.raises(ConfigurationError):
        pseudo.bank_init(cfg, params, np.zeros((0, 6)))


def test_bank_init_rows_match_direct_forward():
    cfg, params = toy_model()
    x = np.random.default_rng(1).normal(size=(9, 6))
    banks = pseudo.bank_init(cfg, params, x)
    feats, preds = nn.forward(cfg, params, x)
    np.testing.assert_array_equal(banks.features, feats)
    np.testing.assert_array_equal(banks.predictions, preds)
    assert np.all((banks.predictions > 0.0) & (banks.predictions < 1.0))


def test_bank_update_empty_index_list_is_noop():
    cfg, params = toy_model()
    x = np.random.default_rng(2).normal(size=(5, 6))
    banks = pseudo.bank_init(cfg, params, x)
    before = banks.features.copy(), banks.unit_features.copy(), banks.predictions.copy()
    pseudo.bank_update(banks, [], cfg, params, np.zeros((0, 6)))
    for got, want in zip((banks.features, banks.unit_features, banks.predictions), before):
        np.testing.assert_array_equal(got, want)


def test_bank_update_locality_and_last_write_wins():
    cfg, params = toy_model()
    x = np.random.default_rng(3).normal(size=(6, 6))
    banks = pseudo.bank_init(cfg, params, x)
    before = banks.features.copy()
    new_row = np.random.default_rng(4).normal(size=(1, 6))
    pseudo.bank_update(banks, [2], cfg, params, new_row)
    others = [i for i in range(6) if i != 2]
    np.testing.assert_array_equal(banks.features[others], before[others])
    assert not np.array_equal(banks.features[2], before[2])

    newer = np.random.default_rng(5).normal(size=(1, 6))
    pseudo.bank_update(banks, [2], cfg, params, new_row)
    first = banks.features[2].copy()
    pseudo.bank_update(banks, [2], cfg, params, newer)
    assert not np.array_equal(banks.features[2], first)
    expected_f, _ = nn.forward(cfg, params, newer)
    np.testing.assert_array_equal(banks.features[2], expected_f[0])


def test_bank_update_bad_index():
    cfg, params = toy_model()
    banks = pseudo.bank_init(cfg, params, np.random.default_rng(6).normal(size=(4, 6)))
    with pytest.raises(ContractViolation):
        pseudo.bank_update(banks, [4], cfg, params, np.zeros((1, 6)))


@pytest.mark.parametrize("indices", [[1.7], np.array([1.0]), [True]])
def test_bank_update_rows_must_be_an_integer_list(indices):
    """A float or bool row is rejected, not truncated or cast onto another row."""
    banks = pseudo.MemoryBanks(5, 3, 2)
    with pytest.raises(ContractViolation):
        banks.update(indices, np.ones((1, 3)), np.ones((1, 2)))
    assert not banks.features.any() and not banks.unit_features.any() and not banks.predictions.any()


def test_bank_update_needs_one_row_per_index():
    banks = pseudo.MemoryBanks(5, 3, 2)
    for features, predictions in [(np.ones((1, 3)), np.ones((1, 2))),  # one row, three slots
                                  (np.ones((3, 3)), np.ones((1, 2))),
                                  (np.ones((3, 4)), np.ones((3, 2))),
                                  (np.ones((3, 3)), np.ones((3, 3)))]:
        with pytest.raises(ContractViolation):
            banks.update([0, 1, 2], features, predictions)
    with pytest.raises(ContractViolation):
        banks.update([[0, 1, 2]], np.ones((3, 3)), np.ones((3, 2)))
    assert not banks.features.any() and not banks.predictions.any()
    cfg, params = toy_model()
    banks = pseudo.bank_init(cfg, params, np.random.default_rng(6).normal(size=(4, 6)))
    with pytest.raises(ContractViolation):
        pseudo.bank_update(banks, [0, 1], cfg, params, np.zeros((3, 6)))


def _unit_reference(features):
    """The cosine distance's normalisation of a whole bank, as done on every call before the cache."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    return features / np.where(norms > 0.0, norms, 1.0)


def test_unit_features_equal_a_fresh_normalisation_bit_for_bit():
    cfg, params = toy_model()
    g = np.random.default_rng(19)
    banks = pseudo.bank_init(cfg, params, g.normal(size=(9, 6)))
    assert np.array_equal(banks.unit_features, _unit_reference(banks.features))
    pseudo.bank_update(banks, [4, 1], cfg, params, g.normal(size=(2, 6)))
    assert np.array_equal(banks.unit_features, _unit_reference(banks.features))
    last = g.normal(size=(3, 4))
    banks.update([3, 7, 3], last, g.random((3, 3)))  # a repeated index keeps its last row
    assert np.array_equal(banks.features[3], last[2])
    assert np.array_equal(banks.unit_features, _unit_reference(banks.features))
    banks.update([0, 5], np.zeros((2, 4)), g.random((2, 3)))
    assert not banks.unit_features[[0, 5]].any()
    assert np.array_equal(banks.unit_features, _unit_reference(banks.features))
    for rows in (g.integers(-5, 6, size=(2, 4)), g.normal(size=(2, 4)).astype(np.float32)):
        banks.update([2, 6], rows, g.random((2, 3)))  # stored as float64, normalised as stored
        assert np.array_equal(banks.unit_features, _unit_reference(banks.features))


@pytest.mark.parametrize("self_indices", [None, [3], [2, 5, 7], [2, -1], [2, 12], [2, 20],
                                          [2.9, 5], np.array([2.0, 5.0]), [True, False]])
def test_a_bad_exclusion_is_a_contract_violation(self_indices):
    banks = _random_banks(np.random.default_rng(18), 12, 4, 2)
    cfg = pseudo.KnnConfig(k=3, distance="cosine", exclude_self=True)
    with pytest.raises(ContractViolation):
        pseudo.generate_pseudo_labels(banks, banks.features[[2, 5]], cfg, self_indices=self_indices)


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
def test_query_width_must_match_the_bank(distance):
    g = np.random.default_rng(21)
    banks = _random_banks(g, 12, 4, 2)
    cfg = pseudo.KnnConfig(k=3, distance=distance)
    with pytest.raises(ContractViolation):
        pseudo.generate_pseudo_labels(banks, g.normal(size=(2, 5)), cfg)
    with pytest.raises(ContractViolation):
        pseudo.knn_query(banks, np.zeros(3), cfg)


def _random_banks(g, n, d, c):
    banks = pseudo.MemoryBanks(n, d, c)
    banks.update(np.arange(n), g.normal(size=(n, d)), g.random((n, c)))
    return banks


def test_knn_query_exact_row_and_full_bank():
    g = np.random.default_rng(7)
    banks = _random_banks(g, 12, 5, 3)
    target = banks.features[4]
    hits = pseudo.knn_query(banks, target, pseudo.KnnConfig(k=1, distance="euclidean"))
    assert hits[0][0] == 4
    all_rows = pseudo.knn_query(banks, target, pseudo.KnnConfig(k=12, distance="euclidean"))
    assert sorted(i for i, _ in all_rows) == list(range(12))


def test_knn_query_matches_bruteforce_both_distances():
    g = np.random.default_rng(8)
    for _ in range(20):
        n = int(g.integers(10, 60))
        d = int(g.integers(2, 10))
        banks = _random_banks(g, n, d, 4)
        query = g.normal(size=d)
        for distance in ("cosine", "euclidean"):
            got = pseudo.knn_query(banks, query, pseudo.KnnConfig(k=5, distance=distance))
            want = knn_oracle(banks.features, banks.predictions, query, 5, distance)
            assert [i for i, _ in got] == [i for i, _ in want]


def test_knn_query_tie_breaks_to_lower_index():
    banks = pseudo.MemoryBanks(4, 2, 2)
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    banks.update(np.arange(4), rows, np.tile([[0.5, 0.5]], (4, 1)))
    hits = pseudo.knn_query(banks, np.array([1.0, 0.0]), pseudo.KnnConfig(k=3, distance="euclidean"))
    assert [i for i, _ in hits] == [0, 1, 3]


def test_knn_query_k_too_large():
    g = np.random.default_rng(9)
    banks = _random_banks(g, 5, 3, 2)
    with pytest.raises(ConfigurationError):
        pseudo.knn_query(banks, np.zeros(3), pseudo.KnnConfig(k=6))


def test_knn_query_exclude_self():
    g = np.random.default_rng(10)
    banks = _random_banks(g, 8, 3, 2)
    hit = pseudo.knn_query(banks, banks.features[3], pseudo.KnnConfig(k=1, distance="euclidean"),
                           exclude=3)
    assert hit[0][0] != 3
    with pytest.raises(ContractViolation):
        pseudo.knn_query(banks, banks.features[3], pseudo.KnnConfig(k=1, distance="euclidean"), exclude=2.5)


def _vote_over_whole_bank(preds, seed=0):
    """generate_pseudo_labels with k equal to the bank size, so every row votes."""
    g = np.random.default_rng(seed)
    banks = pseudo.MemoryBanks(len(preds), 3, preds.shape[1])
    banks.update(np.arange(len(preds)), g.normal(size=(len(preds), 3)), preds)
    cfg = pseudo.KnnConfig(k=len(preds), distance="euclidean")
    targets, _ = pseudo.generate_pseudo_labels(banks, g.normal(size=(1, 3)), cfg)
    return targets[0]


def test_soft_vote_cases():
    single = np.array([[0.3, 0.7]])
    np.testing.assert_allclose(_vote_over_whole_bank(single), [0.3, 0.7])
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(_vote_over_whole_bank(two), [0.5, 0.5])
    three = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    np.testing.assert_allclose(_vote_over_whole_bank(three), [0.6, 0.4])


def test_neighbor_agreement_empty_raises():
    with pytest.raises(ContractViolation):
        pseudo.neighbor_agreement(np.zeros((0, 3)))


def test_neighbor_agreement_values():
    unanimous = np.ones((5, 2))
    np.testing.assert_allclose(pseudo.neighbor_agreement(unanimous), [1.0, 1.0])
    split = np.array([[1.0, 1.0], [0.0, 0.0]])  # mean 0.5 per class
    np.testing.assert_allclose(pseudo.neighbor_agreement(split), [0.0, 0.0])
    k4 = np.array([[1.0], [1.0], [1.0], [0.0]])  # sum 3 of K=4
    np.testing.assert_allclose(pseudo.neighbor_agreement(k4), [0.5])


def test_neighbor_agreement_range_and_permutation_invariance():
    g = np.random.default_rng(11)
    preds = g.random((7, 4))
    a = pseudo.neighbor_agreement(preds)
    assert np.all((a >= 0.0) & (a <= 1.0))
    perm = g.permutation(7)
    np.testing.assert_allclose(pseudo.neighbor_agreement(preds[perm]), a)
    for seed in (0, 1):  # bank rows in another order, and other distances, give the same vote
        np.testing.assert_allclose(_vote_over_whole_bank(preds[perm], seed), preds.mean(axis=0))


def test_neighbor_agreement_monotone_in_mean_deviation():
    # alpha depends on the mean only, increasing in |mean - 0.5|
    for k in (1, 3, 10):
        means = np.linspace(0.0, 1.0, 21)
        alphas = [pseudo.neighbor_agreement(np.full((k, 1), m))[0] for m in means]
        devs = np.abs(means - 0.5)
        order = np.argsort(devs, kind="stable")
        assert all(alphas[order[i]] <= alphas[order[i + 1]] + 1e-12 for i in range(20))


def test_generate_pseudo_labels_matches_per_query_path():
    g = np.random.default_rng(12)
    banks = _random_banks(g, 30, 6, 4)
    queries = g.normal(size=(5, 6))
    cfg = pseudo.KnnConfig(k=7, distance="cosine")
    targets, alpha = pseudo.generate_pseudo_labels(banks, queries, cfg)
    for i, q in enumerate(queries):
        hits = pseudo.knn_query(banks, q, cfg)
        preds = np.vstack([p for _, p in hits])
        np.testing.assert_allclose(targets[i], preds.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(alpha[i], pseudo.neighbor_agreement(preds), atol=1e-12)


def test_generate_pseudo_labels_can_exclude_own_row():
    g = np.random.default_rng(14)
    banks = _random_banks(g, 12, 4, 2)
    queries = banks.features[[2, 5]]
    cfg = pseudo.KnnConfig(k=1, distance="euclidean", exclude_self=True)
    # without exclusion each query's nearest neighbor is its own row
    plain, _ = pseudo.generate_pseudo_labels(banks, queries, pseudo.KnnConfig(k=1, distance="euclidean"))
    np.testing.assert_allclose(plain, banks.predictions[[2, 5]])
    excluded, _ = pseudo.generate_pseudo_labels(banks, queries, cfg, self_indices=[2, 5])
    assert not np.allclose(excluded[0], banks.predictions[2])
    assert not np.allclose(excluded[1], banks.predictions[5])


def _reference_distances(features, queries, distance):
    """The whole (n_queries, n_bank) distance matrix, in one piece."""
    if distance == "euclidean":
        return np.sqrt(np.sum((queries[:, None, :] - features[None, :, :]) ** 2, axis=2))
    return 1.0 - _unit_reference(queries) @ _unit_reference(features).T


def _tied_banks(n=40, d=3, c=4):
    """Bank rows drawn from four distinct vectors, so distances tie heavily."""
    g = np.random.default_rng(15)
    protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    banks = pseudo.MemoryBanks(n, d, c)
    banks.update(np.arange(n), protos[g.integers(0, 4, size=n)], g.random((n, c)))
    return banks


@pytest.mark.parametrize("distance", ["cosine", "euclidean"])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_generate_pseudo_labels_matches_oracle_under_forced_ties(distance, exclude_self):
    banks = _tied_banks()
    self_indices = np.arange(0, banks.size, 3)
    queries = banks.features[self_indices]
    k = 7
    cfg = pseudo.KnnConfig(k=k, distance=distance, exclude_self=exclude_self)
    targets, alpha = pseudo.generate_pseudo_labels(banks, queries, cfg, self_indices=self_indices)
    dist = _reference_distances(banks.features, queries, distance)
    for row, (own, q) in enumerate(zip(self_indices, queries)):
        kept = np.flatnonzero(np.arange(banks.size) != own) if exclude_self else np.arange(banks.size)
        hits = knn_oracle(banks.features[kept], banks.predictions[kept], q, k, distance)
        order = kept[[i for i, _ in hits]]
        # more rows sit at the k-th distance than the top k holds, so ties pick the members
        kth = dist[row, order[-1]]
        assert np.sum(dist[row, kept] == kth) > np.sum(dist[row, order] == kth)
        want = banks.predictions[order].mean(axis=0)
        assert np.array_equal(targets[row], want)
        assert np.array_equal(alpha[row], np.abs(2.0 * want - 1.0))


def test_euclidean_distances_at_default_bank_size_match_oracle():
    g = np.random.default_rng(16)
    n_queries, n_bank, d = 448, 6080, 128
    banks = _random_banks(g, n_bank, d, 5)
    queries = g.normal(size=(n_queries, d))
    cfg = pseudo.KnnConfig(k=10, distance="euclidean")
    targets, _ = pseudo.generate_pseudo_labels(banks, queries, cfg)
    assert targets.shape == (n_queries, 5)
    rows = [0, 201, 447]
    dist = _reference_distances(banks.features, queries[rows], "euclidean")
    for row, row_dist in zip(rows, dist):
        hits = knn_oracle(banks.features, banks.predictions, queries[row], 10, "euclidean")
        order = [i for i, _ in hits]
        assert order == list(pseudo._nearest(row_dist[None], 10)[0])
        np.testing.assert_array_equal(targets[row], banks.predictions[order].mean(axis=0))
        want = [np.sqrt(np.sum((banks.features[i] - queries[row]) ** 2)) for i in order]
        np.testing.assert_array_equal(row_dist[order], want)


@pytest.mark.parametrize("exclude_self", [False, True])
def test_cosine_vote_at_default_bank_size_equals_a_per_call_normalised_argsort(exclude_self):
    g = np.random.default_rng(20)
    n_queries, n_bank, d, k = 448, 6080, 128, 10
    banks = _random_banks(g, n_bank, d, 5)
    for _ in range(3):  # refreshes as in training, drawn with replacement so rows repeat
        rows = g.choice(n_bank, n_queries)
        banks.update(rows, g.normal(size=(n_queries, d)), g.random((n_queries, 5)))
    banks.update(np.arange(1, 200, 2), 3.0 * banks.features[:200:2], g.random((100, 5)))  # exact ties
    self_indices = g.choice(n_bank, n_queries, replace=False)
    queries = banks.features[self_indices] + np.where(np.arange(n_queries)[:, None] % 2, 0.0, 0.1)
    dist = 1.0 - _unit_reference(queries) @ _unit_reference(banks.features).T
    if exclude_self:
        dist[np.arange(n_queries), self_indices] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    cfg = pseudo.KnnConfig(k=k, distance="cosine", exclude_self=exclude_self)
    assert np.array_equal(pseudo._neighbors(banks, queries, cfg, self_indices if exclude_self else None), order)
    targets, alpha = pseudo.generate_pseudo_labels(banks, queries, cfg, self_indices=self_indices)
    want = banks.predictions[order].mean(axis=1)
    assert np.array_equal(targets, want) and np.array_equal(alpha, np.abs(2.0 * want - 1.0))


@pytest.mark.parametrize("distance, d", [("cosine", 16), ("euclidean", 4)])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_neighbors_over_several_blocks_equal_a_stable_argsort(distance, d, exclude_self):
    """2 * step + 1 query rows at the default bank size: two whole blocks, then the lone last row."""
    g = np.random.default_rng(22)
    n_bank, k = 6080, 10
    step = data._BLOCK_ELEMENTS // (n_bank * d if distance == "euclidean" else n_bank)
    assert step >= 2  # each whole block holds several rows, with an exclusion each
    n = 2 * step + 1
    banks = _random_banks(g, n_bank, d, 5)
    banks.update(np.arange(1, 200, 2), banks.features[:200:2], g.random((100, 5)))  # exact ties
    self_indices = g.choice(n_bank, n, replace=False)
    self_indices[::3] = g.choice(200, len(self_indices[::3]), replace=False)  # own rows with a twin
    queries = banks.features[self_indices] + np.where(np.arange(n)[:, None] % 2, 0.0, 0.01)
    dist = _reference_distances(banks.features, queries, distance)
    if exclude_self:
        dist[np.arange(n), self_indices] = np.inf
    want = np.argsort(dist, axis=1, kind="stable")[:, :k]
    assert (np.diff(np.take_along_axis(dist, want, axis=1), axis=1) == 0.0).any()
    cfg = pseudo.KnnConfig(k=k, distance=distance, exclude_self=exclude_self)
    assert np.array_equal(pseudo._neighbors(banks, queries, cfg, self_indices if exclude_self else None), want)


@pytest.mark.parametrize("k, m", [(1, 6080), (10, 6080), (37, 6080),
                                  (10, 6079), (37, 6079), (1, 41), (10, 41),  # width not a multiple of 4k
                                  (37, 41), (10, 25),  # 4k >= m: one column per chunk
                                  (10, 10), (37, 37)])  # k == m
def test_nearest_equals_a_stable_argsort_across_blocks(k, m):
    """Ties across the k-th place, NaN, +-inf and signed zeros."""
    g = np.random.default_rng(17)
    n = 520
    dist = 1.0 + g.random((n, m))
    dist[::3] = np.round(dist[::3], 2)  # exact ties, ~60 per value in a wide row
    for row in range(1, n, 5):  # six distinct distances, then six equal ones across the k-th place
        cols = g.choice(m, min(m, 12), replace=False)
        dist[row, cols] = ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6] + [0.7] * 6)[: len(cols)]
    # scattered NaN in every seventh row only: a NaN in most chunks leaves no finite bound
    nan_rows = dist[::7]  # a view
    nan_rows[g.random(nan_rows.shape) < 0.02] = np.nan
    dist[np.arange(n), g.integers(0, m, size=n)] = np.inf  # the excluded own row
    dist[100] = np.nan  # no finite distance at all
    dist[200] = np.nan
    dist[200, [1, m // 2, m - 1]] = [0.3, 0.1, 0.3]  # fewer finite distances than k
    dist[300, g.choice(m, 4, replace=False)] = -np.inf
    dist[400, :40:2], dist[400, 1:40:2] = 0.0, -0.0  # signed zeros rank as one tie group
    dist[401, :5], dist[401, 5:20] = -np.inf, np.inf
    want = np.argsort(dist, axis=1, kind="stable")[:, :k]
    assert np.array_equal(pseudo._nearest(dist, k), want)
    if k >= 3:
        assert np.array_equal(want[200, :3], [m // 2, 1, m - 1])
        assert np.isnan(dist[200, want[200, 3:]]).all()


def _ranked_distances(monkeypatch, banks, queries, cfg, exclude):
    """The distance blocks `_neighbors` hands its ranking, in order."""
    blocks, nearest = [], pseudo._nearest
    monkeypatch.setattr(pseudo, "_nearest", lambda dist, k: blocks.append(dist.copy()) or nearest(dist, k))
    pseudo._neighbors(banks, queries, cfg, exclude)
    return blocks


@pytest.mark.parametrize("distance, d", [("cosine", 128), ("euclidean", 8)])
@pytest.mark.parametrize("extra", [None, 0, 1, 2])  # one query, or 2 * step + extra queries
def test_blocked_distances_equal_the_whole_matrix_bit_for_bit(monkeypatch, distance, d, extra):
    """Compares values, not ranks. A lone query, and a lone last row of a block walk, has
    its row's bits of a batched product (`nn.matmul_rows`), not a matrix-vector product's."""
    g = np.random.default_rng(23)
    n_bank = 6080
    step = data._BLOCK_ELEMENTS // (n_bank * d if distance == "euclidean" else n_bank)
    n = 1 if extra is None else 2 * step + extra
    banks = _random_banks(g, n_bank, d, 5)
    queries = g.normal(size=(n, d))
    own = g.choice(n_bank, n, replace=False)
    blocks = _ranked_distances(monkeypatch, banks, queries, pseudo.KnnConfig(distance=distance), own)
    assert len(blocks) == 1 if extra is None else len(blocks) > 1
    if distance == "cosine":  # a lone query's reference is its row of a batch
        batch = queries if n > 1 else np.vstack([queries, g.normal(size=(63, d))])
        want = (1.0 - pseudo._unit_rows(batch) @ banks.unit_features.T)[:n]
    else:
        want = _reference_distances(banks.features, queries, distance)
    want[np.arange(n), own] = np.inf
    assert np.array_equal(np.concatenate(blocks), want)


def _wide_model(seed):
    """The default network on 3-channel signals pooled to 32 steps, five classes."""
    cfg = nn.ModelConfig(input_dim=96, num_classes=5, hidden_dims=(128,))
    return cfg, nn.init_params(cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_bank_init_over_several_blocks_equals_one_whole_pool_forward_bit_for_bit(monkeypatch, extra):
    cfg, params = _wide_model(24)
    step = data._BLOCK_ELEMENTS // sum(map(sum, cfg.layer_sizes()))
    x = np.random.default_rng(25).normal(size=(2 * step + extra, cfg.input_dim))
    features, predictions = nn.forward(cfg, params, x)
    rows, forward = [], nn.forward
    monkeypatch.setattr(nn, "forward", lambda *args: rows.append(len(args[2])) or forward(*args))
    banks = pseudo.bank_init(cfg, params, x)
    assert len(rows) > 1 and sum(rows) == len(x)
    assert np.array_equal(banks.features, features)
    assert np.array_equal(banks.unit_features, _unit_reference(features))
    assert np.array_equal(banks.predictions, predictions)


def test_bank_init_and_the_vote_hold_one_block_of_temporaries_not_the_pool():
    """tracemalloc sees numpy's buffers. At 20,000 pool rows the whole-pool forward
    held ~63 MB beside the banks, and the whole (448, 20,000) distance matrix ~69 MB."""
    g = np.random.default_rng(26)
    n, n_queries = 20000, 448
    cfg, params = _wide_model(27)
    x = g.normal(size=(n, cfg.input_dim))
    queries = g.normal(size=(n_queries, cfg.feature_dim))
    own = g.choice(n, n_queries, replace=False)
    block_bytes = data._BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        banks = pseudo.bank_init(cfg, params, x)
        _, init_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        pseudo.generate_pseudo_labels(banks, queries, pseudo.KnnConfig(exclude_self=True), self_indices=own)
        _, vote_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = banks.features.nbytes + banks.unit_features.nbytes + banks.predictions.nbytes
    assert init_peak - held < 2 * block_bytes
    assert vote_peak - before < 3 * block_bytes
