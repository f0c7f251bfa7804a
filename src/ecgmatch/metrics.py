"""Multi-label evaluation metrics.

All ranking-based metrics use the "worst rank" convention for ties (an item
tied with others takes the deepest of their shared positions) and score tied
pairs as half-correct, which keeps every metric invariant under sample and
class permutations. `compute_all` is the one implementation of the four
ranking metrics, and `ranking_loss`, `coverage`, `mean_average_precision`
and `macro_auc` are views of its report (UndefinedMetricError where it holds
NaN). It sorts each entry once per orientation (samples, then classes) in
blocks that `data.row_blocks` cuts, at `_ENTRY_ELEMENTS` per entry and a
class column at least, and counts once per tie group: its positive labels
in it and at or above it give every group's mis-ordered pairs, depth and
precision. `rank_counts` spreads those group counts onto entries for any
mask (None is every entry). No count depends on the order within a tie, so
the sort need not be stable. Scores must be finite: NaN or +-inf raise
ConfigurationError, since no ranking orders them consistently. Rows or
classes that cannot support a metric (no relevant label, single-valued
class column) are skipped, not zero-filled, and the skip counts are carried
in the report; a metric with nothing to average is NaN, without a warning.
`seed_mean_std` is the one mean over seeds, for `summary.csv` and `compare`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import row_blocks
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


def _tie_groups(scores: np.ndarray, *masks: np.ndarray | None):
    """Sort each row of `scores` once and cut it into tie groups (runs of equal scores).
    Returns each sorted entry's flat index, the group sizes and starts, and per mask
    each group's (gt, ge): the masked entries of its row scoring higher / at least as
    high, read off a running count at the group's ends (None: the sorted positions).
    """
    n, c = scores.shape
    order = np.argsort(scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    first = np.ones((n, c), dtype=bool)  # opens a tie group
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n * c) - 1
    row_last = (starts // c + 1) * c - 1  # last position of each group's row
    counts = []
    for mask in masks:
        if mask is None:
            counts.append((row_last - ends, row_last - starts + 1))
            continue
        hit = np.take_along_axis(mask, order, axis=1).ravel()
        seen = np.cumsum(hit, dtype=np.int64)
        in_row = seen[row_last]
        counts.append((in_row - seen[ends], in_row - seen[starts] + hit[starts]))
    return (order + c * np.arange(n)[:, None]).ravel(), ends - starts + 1, starts, counts


def _spread(values: np.ndarray, flat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """One value per tie group, copied onto each of its entries in their unsorted places."""
    out = np.empty(flat.size, dtype=values.dtype)
    out[flat] = np.repeat(values, sizes)
    return out


def rank_counts(scores: np.ndarray, *masks: np.ndarray | None) -> list:
    """One (gt, ge) pair per mask: per entry, how many masked entries of its row
    score higher / at least as high (its tie group's counts). None is every entry."""
    if not scores.size:
        return [(np.zeros(scores.shape, dtype=np.int64),) * 2 for _ in masks]
    flat, sizes, _, counts = _tie_groups(scores, *masks)
    return [tuple(_spread(v, flat, sizes).reshape(scores.shape) for v in pair) for pair in counts]


# Elements of temporaries one entry of a ranking block holds, with room to spare: `_ranked_block`
# holds ~14 per entry, and `_spread` and AP's gather add theirs. Blocks are 2^14 entries.
_ENTRY_ELEMENTS = 32


def _ranked_block(scores: np.ndarray, pos: np.ndarray):
    """Per row of a block: twice its mis-ordered (positive, negative) pairs, ties
    counting half, and its deepest positive's depth (0 if none); per tie group its
    precision (positives / entries at or above), with what `_spread` needs."""
    flat, sizes, starts, [(gt, ge), (pos_gt, hits)] = _tie_groups(scores, None, pos)
    in_group = hits - pos_gt  # the group's positives; the rest of it is negative
    row_first = np.flatnonzero(starts % scores.shape[1] == 0)
    twice_wrong = np.add.reduceat(in_group * (gt - pos_gt + ge - hits), row_first)
    depth = np.maximum.reduceat(np.where(in_group > 0, ge, 0), row_first)
    return twice_wrong, depth, (hits / ge, flat, sizes)


def _mean_in_order(values: np.ndarray) -> float:
    """Mean with the values added one at a time in order, NaN when there are none.

    The reports keep this summation order; np.sum adds pairwise and can change the last bit.
    """
    return np.add.accumulate(values)[-1] / values.size if values.size else float("nan")


def _mean(values) -> float:
    """np.mean of the values, NaN without numpy's empty-slice warning when there are none."""
    return float(np.mean(values)) if np.size(values) else float("nan")


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
    """Fraction of cells where the thresholded score disagrees with the label; NaN with no cell."""
    return _mean((sm.scores > threshold) != (sm.labels == 1.0))


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
    return _mean(np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0))


def compute_all(scores, labels, threshold: float = 0.5, beta: float = 2.0) -> MetricsReport:
    """All six metrics in one report; undefined metrics become NaN with their skips recorded."""
    sm = ScoreMatrix(scores, labels)
    pos = sm.labels == 1.0  # every label not positive is negative
    (n, c), npos, npos_t = pos.shape, pos.sum(axis=1), pos.sum(axis=0)
    # per row (sample): the mis-ordered (relevant, irrelevant) pairs, and the worst rank of a relevant label
    twice_wrong, depth = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for rows in row_blocks(n, _ENTRY_ELEMENTS * c):
        twice_wrong[rows], depth[rows], _ = _ranked_block(sm.scores[rows], pos[rows])
    pairs, has = npos * (c - npos), npos > 0
    ranked = pairs > 0
    # per class (a row of the transposes): precision at each positive's worst rank, and mis-ordered pairs
    twice_wrong_t, pairs_t, ap = np.zeros(c, dtype=np.int64), npos_t * (n - npos_t), {}
    for classes in row_blocks(c, _ENTRY_ELEMENTS * n):
        twice_wrong_t[classes], _, group_precision = _ranked_block(sm.scores.T[classes], pos.T[classes])
        precision = _spread(*group_precision).reshape(-1, n)
        ap.update((k, float(np.mean(p[hit]))) for k, p, hit in zip(range(c)[classes], precision, pos.T[classes])
                  if hit.any())
    auc = {k: float((pairs_t[k] - twice_wrong_t[k] / 2) / pairs_t[k]) for k in range(c) if pairs_t[k]}
    return MetricsReport(
        ranking_loss=_mean_in_order(twice_wrong[ranked] / 2 / pairs[ranked]),
        hamming_loss=hamming_loss(sm, threshold),
        coverage=_mean_in_order(depth[has].astype(float)),
        map=_mean(list(ap.values())),
        macro_auc=_mean(list(auc.values())),
        macro_gbeta=macro_gbeta(sm, beta, threshold),
        skipped=dict(zip(_SKIP_KEYS, (int((~ranked).sum()), int((~has).sum()),
                                      c - len(ap), c - len(auc)))),
    )
