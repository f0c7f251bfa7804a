"""Multi-label evaluation metrics.

All ranking-based metrics use the "worst rank" convention for ties (an item
tied with others takes the deepest of their shared positions) and score tied
pairs as half-correct, which keeps every metric invariant under sample and
class permutations. `compute_all` is the one implementation of the four
ranking metrics, and `ranking_loss`, `coverage`, `mean_average_precision`
and `macro_auc` are views of its report (UndefinedMetricError where it holds
NaN). It sorts the samples once and the classes once for the rank primitive,
`rank_counts`: per entry, how many entries of a masked set in its row score
higher and at least as high, where a None mask is every entry. Each
orientation asks for two sets, every entry and the negative (rows) or
positive (classes) labels; a class's negative counts are every entry's less
its positive ones. The sort need not be stable, as no count depends on the
order within a tie. Scores must be finite: NaN or +-inf raise ConfigurationError,
since no ranking orders them consistently. Rows or classes that
cannot support a metric (no relevant label, single-valued class column) are
skipped, not zero-filled, and the skip counts are carried in the report.
`seed_mean_std` is the one mean over seeds, for `summary.csv` and `compare`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UndefinedMetricError

METRIC_NAMES = ("ranking_loss", "hamming_loss", "coverage", "map", "macro_auc", "macro_gbeta")
_SKIP_KEYS = ("ranking_rows", "coverage_rows", "map_classes", "auc_classes")
CSV_COLUMNS = [*METRIC_NAMES, *(f"skipped_{key}" for key in _SKIP_KEYS)]
# Metric orientation: True when larger values mean better performance.
HIGHER_IS_BETTER = dict(zip(METRIC_NAMES, (False, False, False, True, True, True)))


@dataclass(frozen=True)
class MetricsConfig:
    """The decision threshold of hamming_loss and macro_gbeta, and macro_gbeta's beta."""

    threshold: float = 0.5
    gbeta_beta: float = 2.0

    def __post_init__(self):
        _check_beta(self.gbeta_beta, "gbeta_beta")


def _check_beta(beta: float, name: str) -> None:
    """ConfigurationError unless G-beta's beta is finite and >= 0 (0 is recall).

    A negative beta lifts G-beta above 1; an infinite one scores a class with
    no false positive 0 (inf * 0 is NaN), where any large finite beta gives recall.
    """
    if not beta >= 0.0:  # NaN fails too
        raise ConfigurationError(f"{name} must be nonnegative, got {beta}")
    if beta == np.inf:
        raise ConfigurationError(f"{name} must be finite, got {beta}")


@dataclass
class ScoreMatrix:
    scores: np.ndarray  # (n, C) finite, in [0, 1]
    labels: np.ndarray  # (n, C) binary

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 2:
            raise ConfigurationError(
                f"scores {self.scores.shape} and labels {self.labels.shape} must be matching 2-D"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ConfigurationError("scores must be finite (found NaN or inf)")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ConfigurationError("labels must be binary")


@dataclass
class MetricsReport:
    ranking_loss: float
    hamming_loss: float
    coverage: float
    map: float
    macro_auc: float
    macro_gbeta: float
    skipped: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        return float(getattr(self, name))

    def to_csv_row(self) -> list[str]:
        return ([repr(self.value(name)) for name in METRIC_NAMES]
                + [str(int(self.skipped.get(key, 0))) for key in _SKIP_KEYS])

    @classmethod
    def from_csv_row(cls, row) -> "MetricsReport":
        """Inverse of to_csv_row; ValueError unless the row has one number per CSV column."""
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} metric cells, got {len(row)}")
        k = len(METRIC_NAMES)
        return cls(*map(float, row[:k]), skipped=dict(zip(_SKIP_KEYS, map(int, row[k:]))))


def seed_mean_std(reports) -> tuple[dict, dict]:
    """Per metric, the mean and std over the `reports` (seeds) where it is defined; NaN where none is."""
    values = {name: np.array([r.value(name) for r in reports]) for name in METRIC_NAMES}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns stay NaN
        return ({name: float(np.nanmean(v)) for name, v in values.items()},
                {name: float(np.nanstd(v)) for name, v in values.items()})


def rank_counts(scores: np.ndarray, *masks: np.ndarray | None) -> list:
    """One (gt, ge) pair per mask: per entry, how many masked entries of its row
    score higher / at least as high. A mask of None stands for every entry.

    One sort per row, shared by every mask. Each tie group is a run of the
    sorted, flattened array; a running count of a mask's entries, read at the
    run's first and last position, gives the masked entries before the group
    and up to its end, as exact integers. For a None mask the sorted positions
    are that count. The counts do not depend on the order inside a tie group,
    so the sort need not be stable; they do need finite scores, since the
    order a sort gives NaN decides how it would be counted.
    """
    n, c = scores.shape
    if not scores.size:
        return [(np.zeros((n, c), dtype=np.int64),) * 2 for _ in masks]
    order = np.argsort(scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    first = np.ones((n, c), dtype=bool)  # opens a tie group
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n * c) - 1
    row_last = (starts // c + 1) * c - 1  # last position of each group's row
    group = np.empty(n * c, dtype=np.int64)  # tie group of each entry, in its unsorted place
    group[(order + c * np.arange(n)[:, None]).ravel()] = np.cumsum(first, dtype=np.int64) - 1
    pairs = []
    for mask in masks:
        if mask is None:
            gt, ge = row_last - ends, row_last - starts + 1
        else:
            hit = np.take_along_axis(mask, order, axis=1).ravel()
            seen = np.cumsum(hit, dtype=np.int64)
            in_row = seen[row_last]
            gt, ge = in_row - seen[ends], in_row - seen[starts] + hit[starts]
        pairs.append((np.take(gt, group).reshape(n, c), np.take(ge, group).reshape(n, c)))
    return pairs


def _pair_errors(pos: np.ndarray, neg: np.ndarray, neg_counts):
    """Per row: twice the (positive, negative) pairs where the negative scores higher,
    ties counting half (an exact integer), and the positive x negative pair count."""
    gt, ge = neg_counts
    return np.where(pos, gt + ge, 0).sum(axis=1), pos.sum(axis=1) * neg.sum(axis=1)


def _mean_in_order(values: np.ndarray) -> float:
    """Mean with the values added one at a time in order, NaN when there are none.

    The reports keep this summation order; np.sum adds pairwise and can change the last bit.
    """
    return np.add.accumulate(values)[-1] / values.size if values.size else float("nan")


def _macro_mean(per_class: dict) -> float:
    """np.mean over the per-class values, NaN when no class was scored."""
    return float(np.mean(list(per_class.values()))) if per_class else float("nan")


def _defined(value, message: str) -> float:
    """A ranking view's field of `compute_all`; UndefinedMetricError(message) when it is NaN."""
    if np.isnan(value):
        raise UndefinedMetricError(message)
    return value


def ranking_loss(sm: ScoreMatrix) -> float:
    """Mean fraction of (relevant, irrelevant) pairs ranked out of order (ties count half)."""
    return _defined(compute_all(sm.scores, sm.labels).ranking_loss,
                    "ranking loss: no row has both relevant and irrelevant labels")


def hamming_loss(sm: ScoreMatrix, threshold: float = 0.5) -> float:
    """Fraction of cells where the thresholded score disagrees with the label."""
    pred = (sm.scores > threshold).astype(float)
    return float(np.mean(pred != sm.labels))


def coverage(sm: ScoreMatrix) -> float:
    """Mean depth (1-based rank) needed to cover every relevant label."""
    return _defined(compute_all(sm.scores, sm.labels).coverage, "coverage: no row has a relevant label")


def mean_average_precision(sm: ScoreMatrix) -> float:
    """Macro mean over classes of average precision (classes without positives skipped)."""
    return _defined(compute_all(sm.scores, sm.labels).map, "MAP: no class has a positive sample")


def macro_auc(sm: ScoreMatrix) -> float:
    """Macro mean pairwise AUC (ties half credit); single-valued classes skipped."""
    return _defined(compute_all(sm.scores, sm.labels).macro_auc,
                    "macro AUC: no class has both positives and negatives")


def macro_gbeta(sm: ScoreMatrix, beta: float = 2.0, threshold: float = 0.5) -> float:
    """Macro mean of TP / (TP + FN + beta*FP) after thresholding (0 on empty denominators);
    ConfigurationError unless beta >= 0."""
    _check_beta(beta, "beta")
    pred, truth = sm.scores > threshold, sm.labels == 1.0
    tp = (pred & truth).sum(axis=0).astype(float)
    fp = (pred & ~truth).sum(axis=0).astype(float)
    fn = (~pred & truth).sum(axis=0).astype(float)
    denom = tp + fn + beta * fp
    return float(np.mean(np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0)))


def compute_all(scores, labels, threshold: float = 0.5, beta: float = 2.0) -> MetricsReport:
    """All six metrics in one report; undefined metrics become NaN with their skips recorded."""
    sm = ScoreMatrix(scores, labels)
    pos, neg = sm.labels == 1.0, sm.labels == 0.0
    # one sort per orientation: rows (samples) for ranking loss and coverage, columns (classes) for MAP and AUC
    row_neg, (_, row_depth) = rank_counts(sm.scores, neg, None)
    (col_gt, col_depth), (col_pos_gt, col_hits) = rank_counts(sm.scores.T, None, pos.T)
    col_neg = (col_gt - col_pos_gt, col_depth - col_hits)  # every label not positive is negative
    # per row: the mis-ordered (relevant, irrelevant) pairs, and the worst rank of a relevant label
    twice_wrong, pairs = _pair_errors(pos, neg, row_neg)
    ranked, has = pairs > 0, pos.any(axis=1)
    depth = np.where(pos, row_depth, 0).max(axis=1, initial=0)
    # per class (a row of the transposes): precision at each positive's worst rank, and mis-ordered pairs
    pos_t, precision = pos.T, col_hits / col_depth
    ap = {c: float(np.mean(precision[c, pos_t[c]])) for c in range(len(pos_t)) if pos_t[c].any()}
    twice_wrong_t, pairs_t = _pair_errors(pos_t, neg.T, col_neg)
    auc = {c: float((pairs_t[c] - twice_wrong_t[c] / 2) / pairs_t[c]) for c in range(len(pairs_t)) if pairs_t[c]}
    return MetricsReport(
        ranking_loss=_mean_in_order(twice_wrong[ranked] / 2 / pairs[ranked]),
        hamming_loss=hamming_loss(sm, threshold),
        coverage=_mean_in_order(depth[has].astype(float)),
        map=_macro_mean(ap),
        macro_auc=_macro_mean(auc),
        macro_gbeta=macro_gbeta(sm, beta, threshold),
        skipped=dict(zip(_SKIP_KEYS, (int((~ranked).sum()), int((~has).sum()),
                                      len(pos_t) - len(ap), len(pairs_t) - len(auc)))),
    )
