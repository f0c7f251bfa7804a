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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10
    distance: str = "cosine"
    exclude_self: bool = False  # drop the query's own bank row before voting

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.distance not in ("cosine", "euclidean"):
            raise ConfigurationError(f"distance must be cosine or euclidean, got {self.distance!r}")


class MemoryBanks:
    """Row-aligned feature and prediction stores for the unlabeled pool."""

    def __init__(self, n_unlabeled: int, feature_dim: int, num_classes: int):
        if n_unlabeled < 1:
            raise ConfigurationError("memory banks need at least one unlabeled sample")
        self.features = np.zeros((n_unlabeled, feature_dim))
        self.predictions = np.zeros((n_unlabeled, num_classes))

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def update(self, indices, features, predictions) -> None:
        """Overwrite the addressed rows of both banks together."""
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.size:
            raise ContractViolation(f"bank index out of range [0, {self.size})")
        self.features[indices] = features
        self.predictions[indices] = predictions


def bank_init(teacher_cfg: nn.ModelConfig, teacher: nn.ParameterSet, unlabeled_inputs: np.ndarray) -> MemoryBanks:
    """One full teacher pass over the (weak-augmented, encoded) unlabeled pool."""
    x = np.asarray(unlabeled_inputs, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ConfigurationError("bank_init needs a nonempty unlabeled input matrix")
    features, predictions = nn.forward(teacher_cfg, teacher, x)
    banks = MemoryBanks(x.shape[0], features.shape[1], predictions.shape[1])
    banks.update(np.arange(x.shape[0]), features, predictions)
    return banks


def bank_update(banks: MemoryBanks, indices, teacher_cfg: nn.ModelConfig,
                teacher: nn.ParameterSet, batch: np.ndarray) -> MemoryBanks:
    """Refresh the addressed rows with the teacher's view of the current mini-batch."""
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        return banks
    features, predictions = nn.forward(teacher_cfg, teacher, np.asarray(batch, dtype=float))
    if features.shape[0] != indices.size:
        raise ContractViolation("index list and batch size differ")
    banks.update(indices, features, predictions)
    return banks


# Elements per block of query rows for the euclidean difference tensor and
# for the ranking's partitioned copy: about 4 MB of float64 per temporary,
# instead of one more full (n_queries, n_bank[, d]) array.
_BLOCK_ELEMENTS = 1 << 19


def _distances(bank_features: np.ndarray, queries: np.ndarray, distance: str) -> np.ndarray:
    """(n_queries, n_bank) distance matrix."""
    if distance == "euclidean":
        n_bank, d = bank_features.shape
        step = max(1, _BLOCK_ELEMENTS // max(1, n_bank * d))
        out = np.empty((queries.shape[0], n_bank))
        for start in range(0, queries.shape[0], step):
            diff = queries[start : start + step, None, :] - bank_features[None, :, :]
            out[start : start + step] = np.sqrt(np.sum(diff * diff, axis=2))
        return out
    # cosine distance: 1 - cos similarity; zero vectors get similarity 0
    qn = np.linalg.norm(queries, axis=1, keepdims=True)
    bn = np.linalg.norm(bank_features, axis=1, keepdims=True)
    q = queries / np.where(qn > 0.0, qn, 1.0)
    b = bank_features / np.where(bn > 0.0, bn, 1.0)
    dist = q @ b.T
    return np.subtract(1.0, dist, out=dist)  # in place: one (n_queries, n_bank) array, not two


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Per row, the column indices of the k smallest distances, nearest first.

    Equals np.argsort(dist, axis=1, kind="stable")[:, :k]: ties go to the
    lower bank index and NaN ranks last. Per block of rows, a partition
    finds each row's k-th distance, and only the entries not above it are
    sorted by (distance, index). One flat scan of the block finds those
    entries, in row-major order as a 2-D nonzero would, at a fraction of
    its cost. `~(block > kth)` rather than `block <= kth` keeps NaN entries:
    a row with fewer than k finite distances has a NaN k-th distance, and
    every entry of it stays a candidate.
    """
    out = np.empty((dist.shape[0], k), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // dist.shape[1])
    for start in range(0, dist.shape[0], step):
        block = dist[start : start + step]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
        rows, cols = np.divmod(np.flatnonzero(~(block > kth)), block.shape[1])
        order = np.lexsort((cols, block[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(block.shape[0]))
        out[start : start + step] = cols[order[starts[:, None] + np.arange(k)]]
    return out


def _neighbors(banks: MemoryBanks, queries: np.ndarray, cfg: KnnConfig, exclude=None) -> np.ndarray:
    """(n_queries, k) bank rows nearest to each query row, nearest first.

    `exclude` names one bank row per query (its own slot), dropped before ranking.
    """
    if cfg.k + (exclude is not None) > banks.size:
        raise ConfigurationError(f"k={cfg.k} exceeds available bank rows ({banks.size})")
    dist = _distances(banks.features, queries, cfg.distance)
    if exclude is not None:
        dist[np.arange(queries.shape[0]), np.asarray(exclude, dtype=int)] = np.inf
    return _nearest(dist, cfg.k)


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
    bank row, which is skipped. A lone query through knn_query can rank
    near-ties differently: its cosine product runs as a BLAS matrix-vector
    product, whose last bits differ from the batched matrix product's.
    """
    queries = np.asarray(query_features, dtype=float)
    exclude = self_indices if cfg.exclude_self else None
    return _vote(banks.predictions[_neighbors(banks, queries, cfg, exclude)])
