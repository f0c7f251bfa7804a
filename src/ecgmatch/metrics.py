"""Multi-label evaluation metrics.

All ranking-based metrics use the "worst rank" convention for ties (an item
tied with others takes the deepest of their shared positions) and score tied
pairs as half-correct, which keeps every metric invariant under sample and
class permutations. The four ranking metrics read one rank primitive,
`rank_counts`: per entry, how many entries of a masked set in its row score
higher and at least as high, from one sort per row. Scores must be finite:
NaN or +-inf raise ValueError, since no ranking orders them consistently.
Rows or classes that cannot support a metric (no relevant label,
single-valued class column) are skipped, not zero-filled, and the skip
counts are carried in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError

METRIC_NAMES = ("ranking_loss", "hamming_loss", "coverage", "map", "macro_auc", "macro_gbeta")
_SKIP_KEYS = ("ranking_rows", "coverage_rows", "map_classes", "auc_classes")
CSV_COLUMNS = [*METRIC_NAMES, *(f"skipped_{key}" for key in _SKIP_KEYS)]
# Metric orientation: True when larger values mean better performance.
HIGHER_IS_BETTER = dict(zip(METRIC_NAMES, (False, False, False, True, True, True)))


@dataclass
class ScoreMatrix:
    scores: np.ndarray  # (n, C) finite, in [0, 1]
    labels: np.ndarray  # (n, C) binary

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 2:
            raise ValueError(
                f"scores {self.scores.shape} and labels {self.labels.shape} must be matching 2-D"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite (found NaN or inf)")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ValueError("labels must be binary")


@dataclass
class MetricsReport:
    ranking_loss: float
    hamming_loss: float
    coverage: float
    map: float
    macro_auc: float
    macro_gbeta: float
    skipped: dict = field(default_factory=dict)
    per_class: dict = field(default_factory=dict)

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


def rank_counts(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(gt, ge): per entry, how many masked entries of its row score higher / at least as high.

    One stable sort per row. A running count of tie groups over the sorted,
    flattened array is an exact integer key for (row, tie group), so one
    searchsorted of the keys into the sorted masked keys counts both.
    """
    n, c = scores.shape
    order = np.argsort(scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=1)
    new_group = np.ones((n, c), dtype=np.int64)
    new_group[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    keys = np.cumsum(new_group.ravel())
    masked = keys[np.take_along_axis(mask, order, axis=1).ravel()]
    below, upto = np.searchsorted(masked, np.stack([keys, keys + 1])).reshape(2, n, c)
    row_ends = np.cumsum(mask.sum(axis=1))[:, None]
    counts = np.empty((2, n, c), dtype=np.int64)
    np.put_along_axis(counts, np.stack([order, order]), row_ends - np.stack([upto, below]), axis=2)
    return counts


def _pair_errors(scores: np.ndarray, labels: np.ndarray):
    """Per row: twice the (positive, negative) pairs where the negative scores higher,
    ties counting half (an exact integer), and the positive x negative pair count."""
    pos, neg = labels == 1.0, labels == 0.0
    gt, ge = rank_counts(scores, neg)
    return np.where(pos, gt + ge, 0).sum(axis=1), pos.sum(axis=1) * neg.sum(axis=1)


def _mean_in_order(values: np.ndarray) -> float:
    """Mean with the values added one at a time in order, NaN when there are none.

    The reports keep this summation order; np.sum adds pairwise and can change the last bit.
    """
    return np.add.accumulate(values)[-1] / values.size if values.size else float("nan")


def _macro_mean(per_class: dict) -> float:
    """np.mean over the per-class values, NaN when no class was scored."""
    return float(np.mean(list(per_class.values()))) if per_class else float("nan")


def _ranking_loss(sm: ScoreMatrix):
    twice_wrong, pairs = _pair_errors(sm.scores, sm.labels)
    ok = pairs > 0
    return twice_wrong[ok] / 2 / pairs[ok], int((~ok).sum())


def ranking_loss(sm: ScoreMatrix) -> float:
    """Mean fraction of (relevant, irrelevant) pairs ranked out of order (ties count half)."""
    per_row, _ = _ranking_loss(sm)
    if not per_row.size:
        raise UndefinedMetricError("ranking loss: no row has both relevant and irrelevant labels")
    return _mean_in_order(per_row)


def hamming_loss(sm: ScoreMatrix, threshold: float = 0.5) -> float:
    """Fraction of cells where the thresholded score disagrees with the label."""
    pred = (sm.scores > threshold).astype(float)
    return float(np.mean(pred != sm.labels))


def _coverage(sm: ScoreMatrix):
    pos = sm.labels == 1.0
    _, worst_ranks = rank_counts(sm.scores, np.ones_like(pos))
    has = pos.any(axis=1)
    depth = np.where(pos, worst_ranks, 0).max(axis=1, initial=0)
    return depth[has].astype(float), int((~has).sum())


def coverage(sm: ScoreMatrix) -> float:
    """Mean depth (1-based rank) needed to cover every relevant label."""
    per_row, _ = _coverage(sm)
    if not per_row.size:
        raise UndefinedMetricError("coverage: no row has a relevant label")
    return _mean_in_order(per_row)


def _map(sm: ScoreMatrix):
    scores, pos = sm.scores.T, sm.labels.T == 1.0
    _, worst_ranks = rank_counts(scores, np.ones_like(pos))
    _, hits = rank_counts(scores, pos)
    precision = hits / worst_ranks
    per_class = {c: float(np.mean(precision[c, pos[c]])) for c in range(len(pos)) if pos[c].any()}
    return per_class, len(pos) - len(per_class)


def mean_average_precision(sm: ScoreMatrix) -> float:
    """Macro mean over classes of average precision (classes without positives skipped)."""
    per_class, _ = _map(sm)
    if not per_class:
        raise UndefinedMetricError("MAP: no class has a positive sample")
    return _macro_mean(per_class)


def _macro_auc(sm: ScoreMatrix):
    twice_wrong, pairs = _pair_errors(sm.scores.T, sm.labels.T)
    per_class = {c: float((pairs[c] - twice_wrong[c] / 2) / pairs[c])
                 for c in range(len(pairs)) if pairs[c]}
    return per_class, len(pairs) - len(per_class)


def macro_auc(sm: ScoreMatrix) -> float:
    """Macro mean pairwise AUC (ties half credit); single-valued classes skipped."""
    per_class, _ = _macro_auc(sm)
    if not per_class:
        raise UndefinedMetricError("macro AUC: no class has both positives and negatives")
    return _macro_mean(per_class)


def _gbeta_per_class(sm: ScoreMatrix, beta: float, threshold: float) -> np.ndarray:
    pred, truth = sm.scores > threshold, sm.labels == 1.0
    tp = (pred & truth).sum(axis=0).astype(float)
    fp = (pred & ~truth).sum(axis=0).astype(float)
    fn = (~pred & truth).sum(axis=0).astype(float)
    denom = tp + fn + beta * fp
    return np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0)


def macro_gbeta(sm: ScoreMatrix, beta: float = 2.0, threshold: float = 0.5) -> float:
    """Macro mean of TP / (TP + FN + beta*FP) after thresholding (0 on empty denominators)."""
    return float(np.mean(_gbeta_per_class(sm, beta, threshold)))


def compute_all(scores, labels, threshold: float = 0.5, beta: float = 2.0) -> MetricsReport:
    """All six metrics in one report; undefined metrics become NaN with their skips recorded."""
    sm = ScoreMatrix(scores, labels)
    rl_per_row, rl_skip = _ranking_loss(sm)
    cov_per_row, cov_skip = _coverage(sm)
    map_per_class, map_skip = _map(sm)
    auc_per_class, auc_skip = _macro_auc(sm)
    gbeta_values = _gbeta_per_class(sm, beta, threshold)
    return MetricsReport(
        ranking_loss=_mean_in_order(rl_per_row),
        hamming_loss=hamming_loss(sm, threshold),
        coverage=_mean_in_order(cov_per_row),
        map=_macro_mean(map_per_class),
        macro_auc=_macro_mean(auc_per_class),
        macro_gbeta=float(np.mean(gbeta_values)),
        skipped=dict(zip(_SKIP_KEYS, (rl_skip, cov_skip, map_skip, auc_skip))),
        per_class={
            "map": map_per_class,
            "macro_auc": auc_per_class,
            "macro_gbeta": dict(enumerate(gbeta_values.tolist())),
        },
    )
