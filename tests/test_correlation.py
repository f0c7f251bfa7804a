import numpy as np
import pytest

from ecgmatch import correlation as corr
from ecgmatch import nn
from ecgmatch.errors import ContractViolation

from oracles import conditional_cooccurrence_oracle


def random_binary(g, n, c, p=0.4):
    y = (g.random((n, c)) < p).astype(float)
    # make sure every class occurs at least once
    for col in range(c):
        if y[:, col].sum() == 0:
            y[g.integers(0, n), col] = 1.0
    return y


def test_normalize_columns_three_four_five():
    y = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(corr.normalize_columns(y), [[0.6], [0.8]])


def test_normalize_columns_unit_column_unchanged():
    y = np.array([[1.0, 0.6], [0.0, 0.8]])
    np.testing.assert_allclose(corr.normalize_columns(y), y)


def test_normalize_columns_zero_column_stays_zero():
    y = np.zeros((4, 2))
    y[:, 1] = [1, 0, 0, 0]
    out = corr.normalize_columns(y)
    assert np.all(out[:, 0] == 0.0)


def test_labeled_correlation_hand_value():
    y = np.array([[1, 1], [1, 0], [0, 0], [0, 0]], dtype=float)
    r = corr.correlation_matrix(y, "cosine")
    assert r[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    # cross-check against the conditional-probability form sqrt(1 * 0.5)
    assert r[0, 1] == pytest.approx(np.sqrt(1.0 * 0.5), abs=1e-12)


def test_labeled_correlation_identical_and_disjoint_columns():
    same = np.array([[1, 1], [0, 0], [1, 1]], dtype=float)
    assert corr.correlation_matrix(same, "cosine")[0, 1] == pytest.approx(1.0)
    disjoint = np.array([[1, 0], [0, 1], [1, 0]], dtype=float)
    assert corr.correlation_matrix(disjoint, "cosine")[0, 1] == 0.0


def test_unlabeled_single_row_is_rank_one():
    row = np.array([[0.8, 0.4, 0.2]])
    r = corr.correlation_matrix(row, "cosine")
    # single repeated row: each normalized column is a 1-vector, all entries 1
    np.testing.assert_allclose(r, np.ones((3, 3)), atol=1e-14)
    stacked = np.tile(row, (5, 1))
    np.testing.assert_allclose(corr.correlation_matrix(stacked, "cosine"), np.ones((3, 3)), atol=1e-14)


def test_unlabeled_unit_diagonal_for_nonzero_columns():
    g = np.random.default_rng(1)
    p = g.random((10, 5))
    np.testing.assert_allclose(np.diag(corr.correlation_matrix(p, "cosine")), 1.0, atol=1e-12)


def test_unlabeled_empty_raises():
    with pytest.raises(ContractViolation):
        corr.correlation_matrix(np.zeros((0, 3)), "cosine")


def _alignment_and_r_u(target, inputs, num_classes):
    """nn.backward's alignment term ||target - R_u||_F, and R_u, for one unlabeled batch."""
    cfg = nn.ModelConfig(input_dim=inputs.shape[1], num_classes=num_classes, hidden_dims=(4,),
                         feature_dim=3, head_hidden=4, activation="tanh")
    params = nn.init_params(cfg, np.random.default_rng(9))
    _, probs = nn.forward(cfg, params, inputs)
    batch = nn.StepBatch(strong_inputs=inputs, correlation_target=target)
    breakdown, _ = nn.backward(cfg, params, batch, nn.LossWeights(0.0, 1.0))
    return breakdown.alignment, corr.correlation_matrix(probs, "cosine")


def test_frobenius_loss_values():
    inputs = np.random.default_rng(2).normal(size=(6, 3))
    _, r_u = _alignment_and_r_u(np.eye(2), inputs, 2)
    assert _alignment_and_r_u(r_u, inputs, 2)[0] == 0.0
    shifted = r_u - np.diag([0.3, 0.4])
    assert _alignment_and_r_u(shifted, inputs, 2)[0] == pytest.approx(0.5, abs=1e-12)


def test_frobenius_matches_elementwise_oracle():
    g = np.random.default_rng(2)
    inputs, target = g.normal(size=(8, 3)), g.random((5, 5))
    alignment, r_u = _alignment_and_r_u(target, inputs, 5)
    expected = np.sqrt(sum((target[i, j] - r_u[i, j]) ** 2 for i in range(5) for j in range(5)))
    assert alignment == pytest.approx(expected, abs=1e-12)


def test_frobenius_shape_mismatch():
    with pytest.raises(ContractViolation):
        _alignment_and_r_u(np.eye(3), np.zeros((4, 3)), 2)


def test_frobenius_zero_iff_equal_and_triangle_inequality():
    g = np.random.default_rng(3)
    inputs = g.normal(size=(6, 3))
    _, r_u = _alignment_and_r_u(np.eye(4), inputs, 4)
    assert _alignment_and_r_u(r_u, inputs, 4)[0] == 0.0
    for _ in range(20):
        a, b = g.random((4, 4)), g.random((4, 4))
        gap_a, gap_b = _alignment_and_r_u(a, inputs, 4)[0], _alignment_and_r_u(b, inputs, 4)[0]
        assert gap_a > 0.0
        assert gap_a <= np.linalg.norm(a - b) + gap_b + 1e-12


def test_pearson_identical_and_complement():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    assert corr.pearson_correlation(y, y) == pytest.approx(1.0)
    assert corr.pearson_correlation(y, 1.0 - y) == pytest.approx(1.0)  # rho = -1, squared


def test_pearson_orthogonal_after_centering():
    assert corr.pearson_correlation(np.array([1.0, 1, 0, 0]), np.array([1.0, 0, 1, 0])) == pytest.approx(0.0, abs=1e-12)


def test_pearson_constant_column_warns_zero():
    with pytest.warns(UserWarning):
        assert corr.pearson_correlation(np.ones(4), np.array([1.0, 0, 1, 0])) == 0.0


def test_euclidean_similarity_values():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    other = 1.0 - y  # differs in 4 positions -> distance 2
    r = corr.correlation_matrix(np.column_stack([y, y, other]), "euclidean")
    assert r[0, 1] == 1.0
    assert r[0, 2] == pytest.approx(1.0 / 3.0)
    padded = np.vstack([np.column_stack([y, other]), np.zeros((3, 2))])
    assert corr.correlation_matrix(padded, "euclidean")[0, 1] == pytest.approx(1.0 / 3.0)


def test_euclidean_matrix_matches_pairwise_loop():
    g = np.random.default_rng(10)
    y = g.random((30, 6))
    y[:, 4] = y[:, 1]  # one coincident pair
    want = np.array([[1.0 / (1.0 + np.linalg.norm(y[:, i] - y[:, j])) for j in range(6)]
                     for i in range(6)])
    np.testing.assert_allclose(corr.correlation_matrix(y, "euclidean"), want, rtol=0.0, atol=1e-12)


def test_cosine_entry_equals_conditional_probability_identity():
    g = np.random.default_rng(4)
    for _ in range(50):
        y = random_binary(g, int(g.integers(5, 60)), 5)
        r = corr.correlation_matrix(y, "cosine")
        for c1 in range(5):
            for c2 in range(5):
                oracle = conditional_cooccurrence_oracle(y, c1, c2)
                assert abs(r[c1, c2] - oracle) < 1e-12


def test_cosine_invariant_to_row_duplication_and_zero_rows():
    g = np.random.default_rng(5)
    y = random_binary(g, 30, 4)
    base = corr.correlation_matrix(y, "cosine")
    doubled = corr.correlation_matrix(np.vstack([y, y]), "cosine")
    np.testing.assert_allclose(doubled, base, atol=1e-12)
    padded = corr.correlation_matrix(np.vstack([y, np.zeros((17, 4))]), "cosine")
    np.testing.assert_allclose(padded, base, atol=1e-12)


def test_pearson_changes_under_appended_zero_rows():
    # witness: appended all-zero rows shift both means, moving the squared
    # Pearson value even though co-occurrence counts are untouched
    y1 = np.array([1.0, 1, 0, 0])
    y2 = np.array([1.0, 0, 1, 0])
    before = corr.pearson_correlation(np.append(y1, [1.0]), np.append(y2, [1.0]))
    after = corr.pearson_correlation(
        np.append(np.append(y1, [1.0]), np.zeros(6)), np.append(np.append(y2, [1.0]), np.zeros(6))
    )
    assert abs(before - after) > 1e-3


def test_all_similarity_outputs_in_unit_interval_and_symmetric():
    g = np.random.default_rng(6)
    y = random_binary(g, 40, 5)
    for kind in corr.SIMILARITY_KINDS:
        r = corr.correlation_matrix(y, kind)
        assert np.all(r >= -1e-12) and np.all(r <= 1.0 + 1e-12)
        np.testing.assert_allclose(r, r.T, atol=1e-12)


@pytest.mark.parametrize("kind", ["cosine", "pearson", "euclidean"])
def test_correlation_backward_matches_finite_differences(kind):
    g = np.random.default_rng(7)
    p = 0.2 + 0.6 * g.random((8, 4))
    d_r = g.normal(size=(4, 4))
    analytic = corr.correlation_matrix_backward(p, kind, d_r)

    def objective(mat):
        return float(np.sum(corr.correlation_matrix(mat, kind) * d_r))

    h = 1e-6
    numeric = np.zeros_like(p)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            plus, minus = p.copy(), p.copy()
            plus[i, j] += h
            minus[i, j] -= h
            numeric[i, j] = (objective(plus) - objective(minus)) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)

