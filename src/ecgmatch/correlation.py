"""Label co-occurrence matrices and the gradient of the alignment penalty.

For an n x C matrix Y of labels (binary ground truth) or predictions
(values in [0, 1]), the cosine correlation matrix is

    R = N(Y)^T N(Y)

where N normalizes every nonzero column to unit Euclidean length. On binary
labels the (c1, c2) entry equals the geometric mean of the two empirical
conditional co-occurrence probabilities sqrt(P(c1|c2) * P(c2|c1)), which is
why this estimate does not move when the class marginals change (row
duplication, padding with rows empty in both classes). Squared Pearson and
an inverse-Euclidean similarity are available as alternatives; both depend
on the marginals.

`correlation_matrix` is the one implementation of every kind. Training
aligns the stacked unlabeled predictions' R_u with the labeled R_b through
the Frobenius gap ||R_b - R_u||_F, which `nn.backward` computes and
differentiates with `correlation_matrix_backward`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractViolation

SIMILARITY_KINDS = ("cosine", "pearson", "euclidean")


def normalize_columns(y: np.ndarray) -> np.ndarray:
    """Scale each nonzero column to unit norm; all-zero columns stay zero."""
    y = np.asarray(y, dtype=float)
    norms = np.linalg.norm(y, axis=0)
    safe = np.where(norms > 0.0, norms, 1.0)
    return y / safe


def _column_differences(y: np.ndarray):
    """(diff, dist): diff[:, i, j] = y[:, i] - y[:, j] and dist[i, j] its Euclidean norm."""
    diff = y[:, :, None] - y[:, None, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=0))


def correlation_matrix(y: np.ndarray, kind: str = "cosine") -> np.ndarray:
    """C x C similarity matrix between the columns of y."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ContractViolation(f"need at least one row, got shape {y.shape}")
    if kind == "cosine":
        u = normalize_columns(y)
        return u.T @ u
    if kind == "pearson":  # the squared cosine of the centered columns
        return correlation_matrix(y - y.mean(axis=0, keepdims=True), "cosine") ** 2
    if kind == "euclidean":
        return 1.0 / (1.0 + _column_differences(y)[1])
    raise ContractViolation(f"unknown similarity kind {kind!r}")


def pearson_correlation(y_c1: np.ndarray, y_c2: np.ndarray) -> float:
    """Squared Pearson coefficient of two label sequences, in [0, 1].

    A two-column view of correlation_matrix(..., "pearson"); a constant
    sequence (zero diagonal entry) warns and gives 0.
    """
    r = correlation_matrix(np.column_stack([y_c1, y_c2]), "pearson")
    if r[0, 0] == 0.0 or r[1, 1] == 0.0:
        warnings.warn("pearson correlation undefined for a constant column; returning 0")
        return 0.0
    return float(r[0, 1])


# --- gradients for the alignment loss ----------------------------------------


def correlation_matrix_backward(y: np.ndarray, kind: str, d_r: np.ndarray) -> np.ndarray:
    """Gradient of sum(R * d_r) w.r.t. the input rows, for R = correlation_matrix(y, kind)."""
    y = np.asarray(y, dtype=float)
    d_r = np.asarray(d_r, dtype=float)
    if kind == "cosine":
        # u = y / ||y|| per column, so d y = (d_u - u <u, d_u>) / ||y||; zero columns get zero
        norms = np.linalg.norm(y, axis=0)
        safe = np.where(norms > 0.0, norms, 1.0)
        u = y / safe
        d_u = u @ (d_r + d_r.T)
        d_y = (d_u - u * np.sum(u * d_u, axis=0, keepdims=True)) / safe
        return np.where(norms > 0.0, d_y, 0.0)
    if kind == "pearson":
        # the cosine backward of the centered columns at d rho = 2 rho d_r, then centering's
        centered = y - y.mean(axis=0, keepdims=True)
        rho = correlation_matrix(centered, "cosine")
        d_centered = correlation_matrix_backward(centered, "cosine", 2.0 * rho * d_r)
        return d_centered - d_centered.mean(axis=0, keepdims=True)
    if kind == "euclidean":
        # d R_ij / d y_i = -(y_i - y_j) / ((1 + d_ij)^2 d_ij); coincident columns get zero
        diff, dist = _column_differences(y)
        coeff = np.where(dist > 0.0, -d_r / ((1.0 + dist) ** 2 * np.where(dist > 0.0, dist, 1.0)), 0.0)
        return np.sum(diff * (coeff + coeff.T), axis=2)
    raise ContractViolation(f"unknown similarity kind {kind!r}")

