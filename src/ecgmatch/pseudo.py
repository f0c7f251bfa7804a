"""Teacher-side memory banks and neighbor-vote pseudo-labels.

The teacher maintains two row-aligned banks over the unlabeled pool: a
feature bank (one d-dimensional vector per sample) and a prediction bank
(one probability vector per sample). A pseudo-label for a query is the
columnwise mean of its K nearest bank neighbors' predictions, and each
class's weight is the neighbor agreement

    alpha_c = |2 * mean_k(p_kc) - 1|

which is 1 when the neighbors are unanimous for class c (all 0 or all 1)
and 0 when their mean prediction sits at one half.

One ranking (`_neighbors`, over `_nearest`) and one vote (`_vote`) serve
the batch path `generate_pseudo_labels`; `knn_query` and
`neighbor_agreement` are one-query and one-neighbourhood views of them.

`MemoryBanks` is built for one distance and stores each feature row once,
in the space that distance ranks: scaled to unit norm for cosine (a zero
row stays zero), as given for euclidean. `update` checks every bank row it
is given, and `_neighbors` refuses a query under the other distance. No
step holds a pool-sized temporary: `data.row_blocks` cuts rows into blocks
of about `data._BLOCK_ELEMENTS` elements. `bank_init` takes the pool as
the caller's blocks of input rows, never as one encoded matrix, and runs
the teacher forward and the bank update one block at a time. `_neighbors`
walks the query rows once, with one distance block in flight: a block's
distances (its own rows, normalised there, of the cosine product through
`nn.matmul_rows`, so no unit copy of all queries is held and a lone
query has its batch bits; under euclidean, the bank axis is cut too, so
one chunk's (rows, bank rows, d) difference tensor stays within the
budget), its excluded cells set to inf, then `_nearest`, which sorts only
the entries not above a bound from 4k column-chunk minima and equals a
stable argsort of the whole row. Each block is released before the next
one is formed.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .correlation import normalize_columns
from .data import row_blocks
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10
    distance: str = "cosine"
    exclude_self: bool = False  # drop the query's own bank row before voting

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be positive, got {reprlib.repr(self.k)}")
        if self.distance not in ("cosine", "euclidean"):
            raise ConfigurationError(f"distance must be cosine or euclidean, got {self.distance!r}")


class MemoryBanks:
    """Row-aligned feature and prediction stores for the unlabeled pool.

    `features` holds the rows that `distance` ranks, as float64: each given
    row scaled to unit norm under cosine (a zero row stays zero), the given
    row itself under euclidean.
    """

    def __init__(self, n_unlabeled: int, feature_dim: int, num_classes: int, distance: str):
        if n_unlabeled < 1:
            raise ConfigurationError("memory banks need at least one unlabeled sample")
        if feature_dim < 1 or num_classes < 1:
            raise ConfigurationError(f"memory banks need feature_dim and num_classes >= 1, "
                                     f"got {feature_dim} and {num_classes}")
        self.distance = KnnConfig(distance=distance).distance  # cosine or euclidean, else a ConfigurationError
        self.features = np.zeros((n_unlabeled, feature_dim))
        self.predictions = np.zeros((n_unlabeled, num_classes))

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def update(self, indices, features, predictions) -> None:
        """Overwrite the addressed rows of both banks together, one given row per index."""
        n = len(features) if np.ndim(features) == 2 else -1  # no row count matches a non-matrix
        if (np.shape(features) != (n, self.features.shape[1])
                or np.shape(predictions) != (n, self.predictions.shape[1])):
            raise ContractViolation(
                f"bank update needs (n, {self.features.shape[1]}) features and (n, {self.predictions.shape[1]}) "
                f"predictions for a list of n indices; got features {np.shape(features)}, "
                f"predictions {np.shape(predictions)}")
        rows = self._rows(indices, n)
        if self.distance == "cosine":  # C order: a row's norm sums in one order, whatever the layout given
            features = normalize_columns(np.ascontiguousarray(features, dtype=float).T).T
        self.features[rows] = features  # a repeated index keeps its last given row
        self.predictions[rows] = predictions

    def _rows(self, indices, n: int) -> np.ndarray:
        """`indices` as n bank rows: integers in [0, size), else a ContractViolation."""
        rows = np.asarray(indices)
        if rows.shape != (n,) or (n and rows.dtype.kind not in "iu"):
            raise ContractViolation(f"need {n} integer bank rows, got a {rows.dtype} array of shape {rows.shape}")
        if n and (rows.min() < 0 or rows.max() >= self.size):
            raise ContractViolation(f"bank row out of range [0, {self.size})")
        return rows.astype(np.intp, copy=False)


def bank_init(teacher_cfg: nn.ModelConfig, teacher: nn.ParameterSet, n: int, blocks,
              distance: str) -> MemoryBanks:
    """The teacher's view of an n-row (weak-augmented, encoded) unlabeled pool, stored for `distance`.

    `blocks` yields (bank rows, input rows) pairs that cover the pool; each is taken, and cut
    again to the forward's row budget, one block at a time.
    """
    banks = MemoryBanks(n, teacher_cfg.feature_dim, teacher_cfg.num_classes, distance)
    row_elements = sum(map(sum, teacher_cfg.layer_sizes()))  # a forward holds each layer's input rows
    for positions, inputs in blocks:
        for rows in row_blocks(len(inputs), row_elements):
            banks.update(positions[rows], *nn.forward(teacher_cfg, teacher, inputs[rows]))
    return banks


def bank_update(banks: MemoryBanks, indices, teacher_cfg: nn.ModelConfig,
                teacher: nn.ParameterSet, batch: np.ndarray) -> MemoryBanks:
    """Refresh the addressed rows with the teacher's view of the current mini-batch."""
    banks.update(indices, *nn.forward(teacher_cfg, teacher, batch))
    return banks


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Per row, the column indices of the k smallest distances, nearest first.

    Equals np.argsort(dist, axis=1, kind="stable")[:, :k]: ties go to the
    lower bank index and NaN ranks last. Each row is cut into min(m, 4k)
    column chunks, and the k-th smallest chunk minimum is the row's
    `bound`. It is an element of the row with at least k elements at or
    below it, so it is never below the row's k-th distance. Only the
    entries not above it are sorted by (distance, index). One flat scan
    finds those entries, in row-major order as a 2-D nonzero would, at a
    fraction of its cost. `~(dist > bound)` rather than `dist <= bound`
    keeps NaN entries: a chunk holding a NaN has a NaN minimum, so a row
    with fewer than k NaN-free chunks has a NaN bound, and every entry of
    it stays a candidate.
    """
    m = dist.shape[1]
    chunks = min(m, 4 * k)
    minima = np.minimum.reduceat(dist, np.arange(chunks) * m // chunks, axis=1)
    bound = np.partition(minima, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.divmod(np.flatnonzero(~(dist > bound)), m)
    order = np.lexsort((cols, dist[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(dist.shape[0]))
    return cols[order[starts[:, None] + np.arange(k)]]


def _neighbors(banks: MemoryBanks, queries: np.ndarray, cfg: KnnConfig, exclude=None) -> np.ndarray:
    """(n_queries, k) bank rows nearest to each query row, nearest first.

    `exclude` names one bank row per query (its own slot), dropped before ranking.
    """
    n_bank, d = banks.features.shape
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ContractViolation(f"queries must be (n, {d}) rows, got {queries.shape}")
    if cfg.distance != banks.distance:
        raise ContractViolation(f"a {cfg.distance} query needs a {cfg.distance} bank, got a {banks.distance} one")
    if cfg.k + (exclude is not None) > n_bank:
        raise ConfigurationError(f"k={reprlib.repr(cfg.k)} exceeds available bank rows ({n_bank})")
    n = queries.shape[0]
    exclude = None if exclude is None else banks._rows(exclude, n)
    euclidean = cfg.distance == "euclidean"
    out = np.empty((n, cfg.k), dtype=np.intp)
    for rows in row_blocks(n, n_bank * d if euclidean else n_bank):
        if euclidean:  # each pair sums its d squares along one contiguous row, whatever the bank cut
            q = queries[rows, None, :]
            dist = np.empty((len(q), n_bank))
            for cols in row_blocks(n_bank, len(q) * d):
                diff = q - banks.features[None, cols, :]
                np.sum(np.multiply(diff, diff, out=diff), axis=2, out=dist[:, cols])
                del diff  # freed before the next chunk's is formed
            np.sqrt(dist, out=dist)
        else:  # cosine distance 1 - s; a zero query has similarity 0, and C order sums a norm in one order
            dist = nn.matmul_rows(normalize_columns(np.ascontiguousarray(queries[rows]).T).T, banks.features.T)
            np.subtract(1.0, dist, out=dist)
        if exclude is not None:
            dist[np.arange(len(dist)), exclude[rows]] = np.inf
        out[rows] = _nearest(dist, cfg.k)
        del dist  # freed before the next block's is formed
    return out


def _vote(neighbor_preds: np.ndarray):
    """Soft vote and agreement |2 * mean - 1| of an (n, K, C) stack, over its K axis."""
    means = neighbor_preds.mean(axis=1)
    return means, np.abs(2.0 * means - 1.0)


def knn_query(banks: MemoryBanks, query: np.ndarray, cfg: KnnConfig, exclude: int | None = None):
    """The K bank rows nearest to `query`; ties resolve to the lower index.

    Returns a list of (bank_index, prediction_row) pairs sorted by distance.
    `exclude` drops one bank row (the query's own slot) before ranking.
    """
    q = np.asarray(query, dtype=float).reshape(1, -1)
    nearest = _neighbors(banks, q, cfg, None if exclude is None else [exclude])[0]
    return [(int(i), banks.predictions[i].copy()) for i in nearest]


def neighbor_agreement(neighbor_preds: np.ndarray) -> np.ndarray:
    """Per-class unanimity score |2/K * sum_k p_kc - 1| of one K x C neighbourhood."""
    p = np.asarray(neighbor_preds, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ContractViolation("neighbor_agreement needs a nonempty K x C matrix")
    return _vote(p[None])[1][0]


def generate_pseudo_labels(banks: MemoryBanks, query_features: np.ndarray, cfg: KnnConfig,
                           self_indices=None):
    """Soft vote + agreement for a batch of query feature rows.

    Returns (pseudo n x C, agreement n x C). Each row's neighbours equal an
    exhaustive stable sort of that row's distances (ties toward lower bank
    indices). With cfg.exclude_self, `self_indices` names each query's own
    bank row, which is skipped; leaving it out, or giving other than one
    integer row in [0, banks.size) per query, is a ContractViolation.
    """
    queries = np.asarray(query_features, dtype=float)
    if cfg.exclude_self and self_indices is None:
        raise ContractViolation("exclude_self needs self_indices, one own bank row per query")
    exclude = self_indices if cfg.exclude_self else None
    return _vote(banks.predictions[_neighbors(banks, queries, cfg, exclude)])
