import tracemalloc
import warnings

import numpy as np
import pytest

from ecgmatch import data
from ecgmatch import metrics as m
from ecgmatch.errors import ConfigurationError, UndefinedMetricError

from oracles import METRIC_ORACLES

IMPLS = {
    "ranking_loss": lambda sm: m.ranking_loss(sm),
    "hamming_loss": lambda sm: m.hamming_loss(sm),
    "coverage": lambda sm: m.coverage(sm),
    "map": lambda sm: m.mean_average_precision(sm),
    "macro_auc": lambda sm: m.macro_auc(sm),
    "macro_gbeta": lambda sm: m.macro_gbeta(sm),
}


def sm(scores, labels):
    return m.ScoreMatrix(np.atleast_2d(scores), np.atleast_2d(labels))


def random_instance(g, n=None, c=5, quantum=None):
    """Random scores and labels; `quantum` rounds the scores to its multiples, so ties are common."""
    n = n or int(g.integers(2, 51))
    scores = g.random((n, c))
    if quantum:
        scores = np.round(scores / quantum) * quantum
    labels = (g.random((n, c)) < 0.4).astype(float)
    return scores, labels


def test_ranking_loss_examples():
    assert m.ranking_loss(sm([0.9, 0.1], [1, 0])) == 0.0
    assert m.ranking_loss(sm([0.1, 0.9], [1, 0])) == 1.0
    assert m.ranking_loss(sm([0.5, 0.7, 0.9], [1, 0, 1])) == 0.5


def test_ranking_loss_no_valid_rows():
    with pytest.raises(UndefinedMetricError):
        m.ranking_loss(sm([0.5, 0.5], [1, 1]))


@pytest.mark.parametrize("name, labels, message", [
    ("ranking_loss", [[1, 1], [1, 1]], "ranking loss: no row has both relevant and irrelevant labels"),
    ("coverage", [[0, 0], [0, 0]], "coverage: no row has a relevant label"),
    ("map", [[0, 0], [0, 0]], "MAP: no class has a positive sample"),
    ("macro_auc", [[1, 0], [1, 0]], "macro AUC: no class has both positives and negatives"),
])
def test_each_ranking_view_raises_where_compute_all_reports_nan(name, labels, message):
    scores = [[0.9, 0.2], [0.4, 0.6]]
    assert np.isnan(m.compute_all(scores, labels).value(name))
    with pytest.raises(UndefinedMetricError, match=message):
        IMPLS[name](sm(scores, labels))


def test_hamming_loss_examples():
    assert m.hamming_loss(sm([0.9, 0.1], [1, 0])) == 0.0
    assert m.hamming_loss(sm([0.1, 0.9], [1, 0])) == 1.0
    assert m.hamming_loss(sm([0.9, 0.9, 0.1, 0.1, 0.1], [1, 0, 0, 0, 0])) == pytest.approx(0.2)


def test_coverage_examples():
    assert m.coverage(sm([0.9, 0.5, 0.4, 0.3, 0.2], [1, 0, 0, 0, 0])) == 1.0
    assert m.coverage(sm([0.1, 0.5, 0.6, 0.7, 0.8], [1, 0, 0, 0, 0])) == 5.0
    assert m.coverage(sm([0.9, 0.8, 0.7, 0.1, 0.05], [1, 0, 1, 0, 0])) == 3.0


def test_map_examples():
    # all positives above all negatives
    assert m.mean_average_precision(sm([[0.9], [0.8], [0.2]], [[1], [1], [0]])) == 1.0
    assert m.mean_average_precision(sm([[0.9], [0.1]], [[0], [1]])) == 0.5


def test_macro_auc_examples():
    assert m.macro_auc(sm([[0.9], [0.8], [0.2]], [[1], [1], [0]])) == 1.0
    assert m.macro_auc(sm([[0.5], [0.5], [0.5]], [[1], [0], [1]])) == 0.5
    assert m.macro_auc(sm([[0.8], [0.6], [0.4], [0.2]], [[1], [0], [1], [0]])) == 0.75


def test_macro_gbeta_examples():
    perfect = m.macro_gbeta(sm([[0.9, 0.1], [0.1, 0.9]], [[1, 0], [0, 1]]))
    assert perfect == 1.0
    # one class: TP=2, FN=1, FP=1 -> 2 / (2 + 1 + 2*1) = 0.4
    scores = [[0.9], [0.9], [0.1], [0.9]]
    labels = [[1], [1], [1], [0]]
    assert m.macro_gbeta(sm(scores, labels), beta=2.0) == pytest.approx(0.4)
    # beta=0 reduces to recall: TP / (TP + FN) = 2/3
    assert m.macro_gbeta(sm(scores, labels), beta=0.0) == pytest.approx(2.0 / 3.0)
    assert m.compute_all(scores, labels, beta=0.0).macro_gbeta == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("beta", [-0.5, -1e-300, float("nan")])
def test_a_negative_or_nan_beta_raises_in_every_entry_point(beta):
    scores, labels = [[0.9], [0.9]], [[1], [0]]  # with beta -0.5 this read 2.0, above G-beta's range
    with pytest.raises(ConfigurationError, match=f"beta must be nonnegative, got {beta}"):
        m.macro_gbeta(sm(scores, labels), beta=beta)
    with pytest.raises(ConfigurationError, match=f"beta must be nonnegative, got {beta}"):
        m.compute_all(scores, labels, beta=beta)
    with pytest.raises(ConfigurationError, match=f"gbeta_beta must be nonnegative, got {beta}"):
        m.MetricsConfig(gbeta_beta=beta)


def test_an_infinite_beta_raises_where_it_would_score_a_clean_class_0():
    scores, labels = [[0.9], [0.1]], [[1], [0]]  # no false positive: recall 1 for every finite beta
    assert m.compute_all(scores, labels, beta=1e300).macro_gbeta == 1.0
    with pytest.raises(ConfigurationError, match="beta must be finite, got inf"):
        m.compute_all(scores, labels, beta=float("inf"))
    with pytest.raises(ConfigurationError, match="gbeta_beta must be finite, got inf"):
        m.MetricsConfig(gbeta_beta=float("inf"))


def test_all_metrics_match_bruteforce_oracles():
    # continuous scores, then ties, where worst ranks and half credit matter
    for quantum in (None, 0.1, 0.25):
        g = np.random.default_rng(0)
        for _ in range(200):
            scores, labels = random_instance(g, quantum=quantum)
            inst = m.ScoreMatrix(scores, labels)
            for name, impl in IMPLS.items():
                try:
                    got = impl(inst)
                except UndefinedMetricError:
                    with pytest.raises(ValueError):
                        METRIC_ORACLES[name](scores, labels)
                    continue
                want = METRIC_ORACLES[name](scores, labels)
                assert abs(got - want) < 1e-9, (name, quantum)


# compute_all(...).to_csv_row() on tie-heavy inputs, recorded from the pairwise
# implementation that preceded the sort-based rank counts.
PINNED_ROWS = {
    (0.1, 300, 5): "0.4728327228327229,0.4726666666666667,3.9963636363636366,0.4225883181561869,"
                   "0.5232805928501966,0.2019864455124542,27,25,0,0",
    (0.25, 40, 24): "0.47006578839529223,0.45416666666666666,23.15,0.4328006694483215,"
                    "0.520077590597919,0.18156664857850502,0,0,0,0",
    (0.5, 3, 8): "0.3215277777777778,0.4166666666666667,7.333333333333333,0.8095238095238094,"
                 "0.8,0.20833333333333331,0,0,1,3",
    (0.5, 1, 4): "0.8333333333333334,0.75,4.0,1.0,nan,0.0,0,0,1,4",
}


@pytest.mark.parametrize("quantum,n,c", list(PINNED_ROWS))
def test_report_bytes_are_pinned_on_tied_scores(quantum, n, c):
    scores, labels = random_instance(np.random.default_rng(11), n=n, c=c, quantum=quantum)
    every_other = scores[::2]
    every_other[every_other == 0.0] = -0.0  # -0.0 and 0.0 must tie
    assert ",".join(m.compute_all(scores, labels).to_csv_row()) == PINNED_ROWS[quantum, n, c]


def _brute_rank_counts(scores, mask):
    """Per entry, masked entries of its row scoring higher / at least as high, pair by pair."""
    n, c = scores.shape
    gt, ge = np.zeros((n, c), dtype=np.int64), np.zeros((n, c), dtype=np.int64)
    for i in range(n):
        for j in range(c):
            gt[i, j] = sum(mask[i, k] and scores[i, k] > scores[i, j] for k in range(c))
            ge[i, j] = sum(mask[i, k] and scores[i, k] >= scores[i, j] for k in range(c))
    return gt, ge


def test_rank_counts_shares_one_sort_across_masks_and_matches_brute_force():
    g = np.random.default_rng(12)
    for trial in range(300):
        n, c = [(1, 1), (1, 7), (9, 1)][trial] if trial < 3 else g.integers(1, 12, size=2)
        scores = np.round(g.random((n, c)) * g.integers(1, 6)) / 4 - 0.5  # few distinct values
        scores[g.random((n, c)) < 0.2] = 0.0
        scores[g.random((n, c)) < 0.2] = -0.0  # ties with 0.0
        masks = [g.random((n, c)) < g.random(), np.zeros((n, c), dtype=bool), np.ones((n, c), dtype=bool), None]
        together = m.rank_counts(scores, *masks)
        assert len(together) == len(masks)
        # the same entries in other layouts: Fortran order, and every other column of a wider array,
        # as a class block is a strided view of the transpose
        wide_scores, wide_masks = np.zeros((n, 2 * c)), np.zeros((n, 2 * c, len(masks) - 1), dtype=bool)
        wide_scores[:, ::2], wide_masks[:, ::2] = scores, np.stack(masks[:-1], axis=-1)
        layouts = [m.rank_counts(np.asfortranarray(scores), *[np.asfortranarray(k) for k in masks[:-1]], None),
                   m.rank_counts(wide_scores[:, ::2], *np.moveaxis(wide_masks[:, ::2], -1, 0), None)]
        for k, (mask, (gt, ge)) in enumerate(zip(masks, together)):
            [(alone_gt, alone_ge)] = m.rank_counts(scores, mask)
            want_gt, want_ge = _brute_rank_counts(scores, np.ones((n, c), dtype=bool) if mask is None else mask)
            for got, alone, want in ((gt, alone_gt, want_gt), (ge, alone_ge, want_ge)):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, alone)
                np.testing.assert_array_equal(got, want)
            for laid_out in layouts:
                np.testing.assert_array_equal(laid_out[k][0], want_gt)
                np.testing.assert_array_equal(laid_out[k][1], want_ge)


def test_rank_counts_on_empty_shapes():
    for shape in ((0, 4), (3, 0), (0, 0)):
        pairs = m.rank_counts(np.zeros(shape), np.ones(shape, dtype=bool), None)
        assert len(pairs) == 2
        for gt, ge in pairs:
            assert gt.dtype == ge.dtype == np.int64
            assert gt.shape == ge.shape == shape
            assert not gt.any() and not ge.any()
        [(gt, ge)] = m.rank_counts(np.zeros(shape), None)
        assert gt.shape == ge.shape == shape


def test_rank_counts_do_not_depend_on_the_order_within_a_tie():
    g = np.random.default_rng(14)
    for _ in range(100):
        n, c = g.integers(1, 9), g.integers(2, 40)
        scores = g.integers(-2, 3, size=(n, c)) / 2.0  # a handful of values, each tied many times
        scores[g.random((n, c)) < 0.3] = -0.0  # ties with 0.0
        masks = [g.random((n, c)) < 0.5, None]
        want = m.rank_counts(scores, *masks)
        for _ in range(5):
            p = g.permutation(c)
            got = m.rank_counts(scores[:, p], *[None if mask is None else mask[:, p] for mask in masks])
            for (got_gt, got_ge), (want_gt, want_ge) in zip(got, want):
                np.testing.assert_array_equal(got_gt, want_gt[:, p])
                np.testing.assert_array_equal(got_ge, want_ge[:, p])


def test_compute_all_sorts_each_entry_once_per_orientation_in_blocks(monkeypatch):
    scores, labels = random_instance(np.random.default_rng(13), n=30, c=7, quantum=0.1)
    one_block = m.compute_all(scores, labels).to_csv_row()
    sorted_blocks, tie_groups = [], m._tie_groups

    def recording(block, *masks):
        sorted_blocks.append(np.array(block))
        return tie_groups(block, *masks)

    monkeypatch.setattr(m, "_tie_groups", recording)
    monkeypatch.setattr(data, "_BLOCK_ELEMENTS", 64 * m._ENTRY_ELEMENTS)  # 9 samples (the last block 3) or 2 classes
    report = m.compute_all(scores, labels)
    rows = [b for b in sorted_blocks if b.shape[1] == 7]
    classes = [b for b in sorted_blocks if b.shape[1] == 30]
    assert [len(b) for b in rows] == [9, 9, 9, 3]
    assert [len(b) for b in classes] == [2, 2, 2, 1]
    assert sum(b.size for b in sorted_blocks) == 2 * scores.size  # every entry sorted once per orientation
    np.testing.assert_array_equal(np.concatenate(rows), scores)
    np.testing.assert_array_equal(np.concatenate(classes), scores.T)
    assert report.to_csv_row() == one_block


# Rows of compute_all(np.zeros(shape) + 0.3, np.ones(shape)) with no sample, no
# class or one class: no block, or one block of a single column. With no sample,
# macro_gbeta scores each class's empty denominator 0, so (0, C) reports 0.0.
DEGENERATE_ROWS = {
    (0, 5): "nan,nan,nan,nan,nan,0.0,0,0,5,5",
    (5, 0): "nan,nan,nan,nan,nan,nan,5,5,0,0",
    (0, 0): "nan,nan,nan,nan,nan,nan,0,0,0,0",
    (1, 1): "nan,1.0,1.0,1.0,nan,0.0,1,0,0,1",
    (3, 1): "nan,1.0,1.0,1.0,nan,0.0,3,0,0,1",
}


@pytest.mark.filterwarnings("error")  # an undefined metric is NaN without numpy's warnings
@pytest.mark.parametrize("shape", list(DEGENERATE_ROWS))
def test_compute_all_on_degenerate_shapes(shape):
    report = m.compute_all(np.zeros(shape) + 0.3, np.ones(shape))
    assert ",".join(report.to_csv_row()) == DEGENERATE_ROWS[shape]


@pytest.mark.parametrize("n,c", [(64_000, 5), (16_000, 24)])
def test_compute_all_temporaries_stay_within_a_few_score_matrices(n, c):
    g = np.random.default_rng(15)
    scores, labels = g.random((n, c)), (g.random((n, c)) < 0.3).astype(float)
    tracemalloc.start()
    try:
        m.compute_all(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * scores.nbytes


def test_rank_metrics_invariant_under_monotone_transform():
    g = np.random.default_rng(1)
    for _ in range(20):
        scores, labels = random_instance(g, n=15)
        inst = m.ScoreMatrix(scores, labels)
        warped = m.ScoreMatrix(scores**3 / (1.0 + scores**3), labels)  # strictly monotone
        for name in ("ranking_loss", "coverage", "map", "macro_auc"):
            try:
                base = IMPLS[name](inst)
            except UndefinedMetricError:
                continue
            assert IMPLS[name](warped) == pytest.approx(base, abs=1e-12), name


def test_threshold_metrics_do_change_under_monotone_transform():
    scores = np.array([[0.6, 0.4], [0.7, 0.3]])
    labels = np.array([[1.0, 0.0], [1.0, 0.0]])
    warped = scores / 2.0  # monotone, but crosses the fixed threshold
    assert m.hamming_loss(m.ScoreMatrix(scores, labels)) != m.hamming_loss(m.ScoreMatrix(warped, labels))


def test_sample_permutation_invariance():
    g = np.random.default_rng(2)
    scores, labels = random_instance(g, n=20)
    perm = g.permutation(20)
    a, b = m.ScoreMatrix(scores, labels), m.ScoreMatrix(scores[perm], labels[perm])
    for name, impl in IMPLS.items():
        assert impl(a) == pytest.approx(impl(b), abs=1e-12), name


def test_class_permutation_keeps_row_metrics_and_permutes_macro_vectors():
    g = np.random.default_rng(3)
    scores, labels = random_instance(g, n=25)
    perm = g.permutation(5)
    a = m.ScoreMatrix(scores, labels)
    b = m.ScoreMatrix(scores[:, perm], labels[:, perm])
    for name in ("ranking_loss", "hamming_loss", "coverage"):
        assert IMPLS[name](a) == pytest.approx(IMPLS[name](b), abs=1e-12)
    per_class_a = np.array([m.macro_gbeta(m.ScoreMatrix(scores[:, [c]], labels[:, [c]])) for c in range(5)])
    per_class_b = [m.macro_gbeta(m.ScoreMatrix(b.scores[:, [c]], b.labels[:, [c]])) for c in range(5)]
    assert per_class_b == pytest.approx(per_class_a[perm])
    for s, y in ((scores, labels), (b.scores, b.labels)):
        assert m.compute_all(s, y).macro_gbeta == pytest.approx(per_class_a.mean())


def test_ranking_loss_complements_pairwise_auc_per_sample():
    g = np.random.default_rng(4)
    for _ in range(20):
        scores = g.random((1, 6))  # continuous, tie-free w.p. 1
        labels = np.zeros((1, 6))
        labels[0, :3] = 1.0
        inst = m.ScoreMatrix(scores, labels)
        rl = m.ranking_loss(inst)
        # pair accuracy over (relevant, irrelevant) pairs within the row
        pos, neg = scores[0, :3], scores[0, 3:]
        acc = np.mean([1.0 if p > q else 0.0 for p in pos for q in neg])
        assert rl == pytest.approx(1.0 - acc, abs=1e-12)


def test_compute_all_records_skips_and_nan_for_undefined():
    # single row: no class has both label values, auc is undefined
    report = m.compute_all(np.array([[0.9, 0.2, 0.4]]), np.array([[1.0, 0.0, 1.0]]))
    assert np.isnan(report.macro_auc)
    assert report.skipped["auc_classes"] == 3
    assert report.coverage == 2.0
    assert report.skipped["map_classes"] == 1


def test_report_csv_roundtrip():
    report = m.compute_all(np.random.default_rng(5).random((10, 5)),
                           (np.random.default_rng(6).random((10, 5)) > 0.5).astype(float))
    row = report.to_csv_row()
    back = m.MetricsReport.from_csv_row(row)
    for name in m.METRIC_NAMES:
        assert back.value(name) == pytest.approx(report.value(name), abs=1e-15)
    assert back.skipped == report.skipped


def test_score_matrix_validation():
    with pytest.raises(ValueError):
        m.ScoreMatrix(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        m.ScoreMatrix(np.zeros((2, 2)), np.full((2, 2), 0.5))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            m.ScoreMatrix(np.array([[0.2, bad]]), np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("scores, labels", [(np.zeros((2, 3)), np.zeros((3, 2))),
                                            (np.zeros((2, 2)), np.full((2, 2), 0.5)),
                                            (np.array([[0.2, np.nan]]), np.array([[1.0, 0.0]]))],
                         ids=["shapes", "labels", "scores"])
def test_score_matrix_input_errors_are_configuration_errors(scores, labels):
    with pytest.raises(ConfigurationError):
        m.compute_all(scores, labels)


def test_seed_mean_std_skips_the_seeds_where_a_metric_is_undefined():
    def report(map_value, auc_value):
        return m.MetricsReport(0.1, 0.2, 1.0, map_value, auc_value, 0.3)

    reports = [report(0.5, np.nan), report(np.nan, np.nan), report(0.75, np.nan)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an all-NaN metric warns nothing
        mean, std = m.seed_mean_std(reports)
    assert (mean["map"], std["map"]) == (0.625, 0.125)
    assert (mean["coverage"], std["coverage"]) == (1.0, 0.0)
    assert np.isnan(mean["macro_auc"]) and np.isnan(std["macro_auc"])
    values = np.random.default_rng(3).random(9)
    mean, _ = m.seed_mean_std([report(v, v) for v in values])
    assert mean["map"] == np.mean(values.tolist())  # on finite seeds, np.mean's bits
