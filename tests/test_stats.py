import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import f as f_dist, norm, rankdata

import ecgmatch
from ecgmatch import stats
from ecgmatch.errors import ConfigurationError, ContractViolation

from oracles import rank_models_oracle


def test_rank_models_strict_order():
    pt = stats.PerformanceTable(np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), higher_is_better=False)
    rt = stats.rank_models(pt)
    np.testing.assert_array_equal(rt.ranks, [[1, 2, 3], [1, 2, 3]])


def test_rank_models_orientation():
    pt = stats.PerformanceTable(np.array([[0.9, 0.2, 0.5], [0.8, 0.1, 0.4]]), higher_is_better=True)
    rt = stats.rank_models(pt)
    np.testing.assert_array_equal(rt.ranks[0], [1, 3, 2])


def test_rank_models_tie_average():
    pt = stats.PerformanceTable(np.array([[0.1, 0.1, 0.9], [0.2, 0.3, 0.4]]), higher_is_better=False)
    rt = stats.rank_models(pt)
    np.testing.assert_array_equal(rt.ranks[0], [1.5, 1.5, 3])


def _tie_heavy_tables(seed, count):
    """Random (N, k) tables drawn from a few levels, with +-0.0 among them."""
    g = np.random.default_rng(seed)
    for _ in range(count):
        n, k = int(g.integers(2, 8)), int(g.integers(2, 11))
        levels = np.array([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 1e-300, -1e300])[: int(g.integers(2, 9))]
        values = g.choice(levels, size=(n, k))
        if g.integers(2):  # some tables mix in continuous values
            values = np.where(g.random((n, k)) < 0.5, values, g.normal(size=(n, k)))
        yield values, bool(g.integers(2))


def test_rank_models_matches_brute_force_oracle_bytewise():
    for values, higher in _tie_heavy_tables(7, 500):
        got = stats.rank_models(stats.PerformanceTable(values, higher_is_better=higher)).ranks
        want = rank_models_oracle(values.tolist(), higher)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (values, higher)


def test_rank_models_matches_scipy_rankdata_bytewise():
    for values, higher in _tie_heavy_tables(8, 500):
        got = stats.rank_models(stats.PerformanceTable(values, higher_is_better=higher)).ranks
        want = np.vstack([rankdata(-row if higher else row, method="average") for row in values])
        assert got.tobytes() == want.tobytes(), (values, higher)


def test_rank_rows_sum_to_constant():
    g = np.random.default_rng(0)
    for _ in range(20):
        k = int(g.integers(2, 9))
        n = int(g.integers(2, 7))
        values = g.random((n, k))
        values[0, :2] = 0.5  # force a tie
        rt = stats.rank_models(stats.PerformanceTable(values, higher_is_better=bool(g.integers(2))))
        np.testing.assert_allclose(rt.ranks.sum(axis=1), k * (k + 1) / 2.0)


def test_friedman_zero_when_ranks_identical():
    values = np.tile(np.array([[0.5, 0.5, 0.5, 0.5]]), (4, 1))
    rt = stats.rank_models(stats.PerformanceTable(values, higher_is_better=True))
    chi2, ff = stats.friedman_statistic(rt)
    assert chi2 == 0.0
    assert ff == 0.0


def test_friedman_infinite_at_maximal_consistency():
    # the same strict order on every dataset row maximizes the rank spread
    values = np.tile(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]), (4, 1))
    rt = stats.rank_models(stats.PerformanceTable(values, higher_is_better=False))
    n, k = 4, 5
    chi2, ff = stats.friedman_statistic(rt)
    assert chi2 == pytest.approx(n * (k - 1))
    assert ff == float("inf")


def test_friedman_nonnegative_random():
    g = np.random.default_rng(1)
    for _ in range(30):
        values = g.random((4, 6))
        rt = stats.rank_models(stats.PerformanceTable(values, higher_is_better=True))
        chi2, ff = stats.friedman_statistic(rt)
        assert chi2 >= 0.0
        assert ff >= 0.0 or ff == float("inf")


def test_friedman_invariances():
    g = np.random.default_rng(2)
    values = g.random((5, 4))
    pt = stats.PerformanceTable(values, higher_is_better=True)
    base = stats.friedman_statistic(stats.rank_models(pt))
    # dataset-row permutation
    perm = g.permutation(5)
    shuffled = stats.friedman_statistic(
        stats.rank_models(stats.PerformanceTable(values[perm], higher_is_better=True))
    )
    assert shuffled == pytest.approx(base)
    # strictly monotone transform of the raw values within rows
    warped = stats.friedman_statistic(
        stats.rank_models(stats.PerformanceTable(np.exp(values), higher_is_better=True))
    )
    assert warped == pytest.approx(base)


def test_f_critical_value_matches_scipy():
    for alpha in (0.01, 0.05, 0.1):
        for k in range(2, 11):
            for n in range(2, 21):
                assert stats.f_critical_value(k, n, alpha) == float(f_dist.ppf(1 - alpha, k - 1, (k - 1) * (n - 1)))
    assert stats.f_critical_value(8, 4, 0.05) == pytest.approx(2.488, abs=5e-3)


def test_importing_the_cli_does_not_load_scipy_stats():
    # no scipy module at all: only `compare` imports it, inside f_critical_value; and no
    # process pool: only `gridsearch --threads N>1` imports it, inside _gridsearch
    env = dict(os.environ, PYTHONPATH=str(Path(ecgmatch.__file__).parents[1]))
    for module in ("ecgmatch", "ecgmatch.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules if "
                "m.split('.')[0] in ('scipy', 'multiprocessing') or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def test_reference_critical_value_is_stored_verbatim():
    assert stats.REFERENCE_CRITICAL_VALUE_K8_N4 == 3.2590


def test_cd_reference_case():
    cd = stats.bonferroni_dunn_cd(8, 4, 0.05)
    assert cd == pytest.approx(2.690 * np.sqrt(3.0), abs=1e-12)
    assert cd == pytest.approx(4.6592, abs=1e-3)


def test_cd_two_model_case_is_normal_quantile():
    for n in (2, 4, 10):
        assert stats.bonferroni_dunn_cd(2, n, 0.05) == pytest.approx(1.960 * np.sqrt(1.0 / n))


def test_cd_shrinks_with_datasets_grows_with_models():
    cds_n = [stats.bonferroni_dunn_cd(8, n, 0.05) for n in (2, 4, 8, 100, 10000)]
    assert all(a > b for a, b in zip(cds_n, cds_n[1:]))
    assert cds_n[-1] < 0.1  # N -> infinity limit heads to zero
    cds_k = [stats.bonferroni_dunn_cd(k, 4, 0.05) for k in range(2, 11)]
    assert all(a < b for a, b in zip(cds_k, cds_k[1:]))


def test_cd_table_bounds():
    with pytest.raises(ConfigurationError):
        stats.bonferroni_dunn_cd(11, 4, 0.05)
    with pytest.raises(ConfigurationError):
        stats.bonferroni_dunn_cd(8, 4, 0.01)


def test_q_table_tracks_normal_quantiles():
    # stored constants agree with z_{alpha/(2(k-1))} except the legacy k=9 entry
    for alpha, table in stats.Q_ALPHA.items():
        for k, q in table.items():
            if (alpha, k) == (0.05, 9):
                continue
            assert q == pytest.approx(float(norm.isf(alpha / (2 * (k - 1)))), abs=6e-4)


def test_dunn_compare_boundary_and_verdicts():
    rt = stats.RankTable(ranks=np.zeros((4, 3)), mean_ranks=np.array([1.0, 3.0, 6.0]))
    differences, significant = stats.dunn_compare(rt, 0, cd=2.0)
    assert differences.tolist() == [0.0, 2.0, 5.0]  # every model, the control's own difference 0
    assert significant[1]  # difference exactly 2.0 counts as significant
    assert significant[2]
    _, none = stats.dunn_compare(stats.RankTable(np.zeros((2, 3)), np.array([2.0, 2.0, 2.0])), 0, 2.0)
    assert not none.any()


def test_dunn_compare_reference_example():
    rt = stats.RankTable(ranks=np.zeros((4, 2)), mean_ranks=np.array([1.0, 6.0]))
    _, significant = stats.dunn_compare(rt, 0, cd=4.66)
    assert significant[1]  # 5 >= 4.66


def test_dunn_compare_bad_control():
    rt = stats.RankTable(ranks=np.zeros((2, 2)), mean_ranks=np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        stats.dunn_compare(rt, 5, 1.0)


def test_performance_table_validation():
    with pytest.raises(ConfigurationError):
        stats.PerformanceTable(np.zeros((1, 3)), True)
    with pytest.raises(ConfigurationError):
        stats.PerformanceTable(np.array([[1.0, np.nan], [0.0, 1.0]]), True)
