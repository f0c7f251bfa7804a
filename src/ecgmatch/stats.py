"""Friedman rank test and Bonferroni-Dunn critical-difference comparison.

Models are ranked per dataset row (rank 1 = best, tie-averaged) with the
rank primitive the ranking metrics share, `metrics.rank_counts`, whose None
mask counts every model of the row; `PerformanceTable` keeps its cells
finite, as that primitive needs. The Friedman chi-square over mean ranks is
converted to the F-form statistic

    F = (N - 1) * chi2 / (N * (k - 1) - chi2)

with k models and N datasets. Post-hoc, `dunn_compare` gives every model's
mean-rank difference from a control and whether it reaches the critical
difference CD = q_alpha(k) * sqrt(k * (k + 1) / (6 * N)), as two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .metrics import rank_counts

# Two-tailed critical values q_alpha for comparing k - 1 models against one
# control (Dunn's procedure with Bonferroni correction); standard published
# table for k = 2..10. Entries equal the standard normal quantile at
# alpha / (2(k-1)) to the printed precision, except the widely reproduced
# k=9, alpha=0.05 entry (2.724; the exact quantile is 2.734).
Q_ALPHA = {
    0.05: {2: 1.960, 3: 2.241, 4: 2.394, 5: 2.498, 6: 2.576,
           7: 2.638, 8: 2.690, 9: 2.724, 10: 2.773},
    0.10: {2: 1.645, 3: 1.960, 4: 2.128, 5: 2.241, 6: 2.326,
           7: 2.394, 8: 2.450, 9: 2.498, 10: 2.539},
}

# Reference critical value quoted for the k=8, N=4 comparison layout at the
# 0.05 level; surfaced alongside the F quantile computed from the degrees of
# freedom, which differs (see the comparison report columns).
REFERENCE_CRITICAL_VALUE_K8_N4 = 3.2590


@dataclass
class PerformanceTable:
    values: np.ndarray  # (N datasets, k models)
    higher_is_better: bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise ConfigurationError("performance table needs N >= 2 datasets and k >= 2 models")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("performance table has missing or non-finite cells")


@dataclass
class RankTable:
    ranks: np.ndarray  # (N, k), tie-averaged, 1 = best
    mean_ranks: np.ndarray  # (k,)


def rank_models(pt: PerformanceTable) -> RankTable:
    """Rank models within each dataset row, best = 1; ties share (#better + #as good + 1) / 2."""
    scores = pt.values if pt.higher_is_better else -pt.values
    [(better, at_least)] = rank_counts(scores, None)  # every model of the row counts
    ranks = (better + at_least + 1) / 2
    return RankTable(ranks=ranks, mean_ranks=ranks.mean(axis=0))


def friedman_statistic(rt: RankTable):
    """(chi2, F-form statistic); F is +inf when chi2 reaches its ceiling N*(k-1)."""
    n, k = rt.ranks.shape
    chi2 = 12.0 * n / (k * (k + 1)) * (np.sum(rt.mean_ranks**2) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    denom = n * (k - 1) - chi2
    if denom <= 0.0:
        return chi2, float("inf")
    return chi2, (n - 1) * chi2 / denom


def f_critical_value(k: int, n: int, alpha: float = 0.05) -> float:
    """F-distribution quantile at (k-1, (k-1)(N-1)) degrees of freedom."""
    from scipy.special import fdtri  # only `compare` needs scipy; keep it off the import path

    return float(fdtri(k - 1, (k - 1) * (n - 1), 1.0 - alpha))


def bonferroni_dunn_cd(k: int, n: int, alpha: float = 0.05) -> float:
    """Critical difference in mean ranks for k models over n datasets."""
    if alpha not in Q_ALPHA:
        raise ConfigurationError(f"no critical-value table for alpha={alpha}")
    table = Q_ALPHA[alpha]
    if k not in table:
        raise ConfigurationError(f"k={k} outside the tabulated range 2..10")
    return table[k] * float(np.sqrt(k * (k + 1) / (6.0 * n)))


def dunn_compare(rt: RankTable, control_index: int, cd: float):
    """(differences, significant) over all k models: each mean rank's distance from the
    control's (exactly 0.0 for the control), and whether it reaches cd."""
    if not 0 <= control_index < len(rt.mean_ranks):
        raise ContractViolation(f"control index {control_index} out of range")
    differences = np.abs(rt.mean_ranks - rt.mean_ranks[control_index])
    return differences, differences >= cd
