import hashlib

import numpy as np
import pytest
from scipy.special import expit

from ecgmatch import correlation, nn
from ecgmatch.errors import ConfigurationError, ContractViolation, NumericError
from ecgmatch.rng import RandomStream

from oracles import finite_difference_grads, forward_oracle, max_relative_error


def small_cfg(**kw):
    defaults = dict(input_dim=6, num_classes=3, hidden_dims=(5,), feature_dim=4,
                    head_hidden=4, activation="tanh")
    defaults.update(kw)
    return nn.ModelConfig(**defaults)


def test_forward_zero_params_gives_half_probs():
    cfg = small_cfg()
    params = nn.ParameterSet([(np.zeros((i, o)), np.zeros(o)) for i, o in cfg.layer_sizes()])
    _, probs = nn.forward(cfg, params, np.ones((2, 6)))
    assert np.all(probs == 0.5)


def test_forward_identity_extractor_returns_input_features():
    cfg = nn.ModelConfig(input_dim=4, num_classes=2, hidden_dims=(), feature_dim=4,
                         head_hidden=3, activation="relu")
    layers = [(np.eye(4), np.zeros(4)), (np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
    params = nn.ParameterSet(layers)
    x = np.random.default_rng(0).normal(size=(5, 4))
    features, probs = nn.forward(cfg, params, x)
    assert np.array_equal(features, x)
    assert np.all(probs == 0.5)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_matches_independent_recomputation(activation):
    cfg = small_cfg(activation=activation)
    params = nn.init_params(cfg, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(2, 6))
    features, probs = nn.forward(cfg, params, x)
    f2, p2 = forward_oracle(cfg, params, x)
    np.testing.assert_allclose(features, f2, atol=1e-12)
    np.testing.assert_allclose(probs, p2, atol=1e-12)


def _expit_reference(preacts):
    return np.clip(expit(preacts), 1e-12, 1.0 - 1e-12)


def test_forward_probabilities_equal_scipy_expit_bit_for_bit():
    # An exact pass-through network: features = x, the head's [I, -I] relu pair
    # and [I; -I] output give back x, so the output preactivations are the
    # drawn values. Three more classes have zero weights and a +inf, -inf or
    # NaN bias. -0.0 is fed in too; the matmul sums return it as +0.0.
    k = 8
    cfg = nn.ModelConfig(input_dim=k, num_classes=k + 3, feature_dim=k, head_hidden=2 * k)
    eye = np.eye(k)
    out_w = np.zeros((2 * k, k + 3))
    out_w[:, :k] = np.vstack([eye, -eye])
    params = nn.ParameterSet([
        (eye, np.zeros(k)),
        (np.hstack([eye, -eye]), np.zeros(2 * k)),
        (out_w, np.r_[np.zeros(k), np.inf, -np.inf, np.nan]),
    ])
    specials = np.array([700.0, -700.0, 40.0, -40.0, np.nextafter(40.0, 41.0), np.nextafter(-40.0, -41.0),
                         1e300, -1e300, 36.7368005696771, -36.7368005696771, 0.0, -0.0, 5e-324])
    g = np.random.default_rng(3)
    cells = 0
    for _ in range(10):
        x = np.clip(g.standard_normal((25_000, k)) * 10.0 ** g.integers(-3, 3, (25_000, k)), -700.0, 700.0)
        x.ravel()[:: 97] = g.choice(specials, size=x.ravel()[:: 97].size)
        _, probs = nn.forward(cfg, params, x)
        _, inputs = nn._forward_cache(cfg, params, x)
        z = nn.matmul_rows(inputs[-1], params.layers[-1][0]) + params.layers[-1][1]
        np.testing.assert_array_equal(z[:, :k], x)
        np.testing.assert_array_equal(probs, _expit_reference(z))  # NaN where z is NaN
        assert np.isnan(probs[:, -1]).all() and (probs[:, k:k + 2] == [1.0 - 1e-12, 1e-12]).all()
        cells += z.size
    assert cells >= 2_000_000


def test_forward_with_huge_weights_saturates_without_overflow():
    cfg = small_cfg(activation="relu")
    params = nn.init_params(cfg, np.random.default_rng(4))
    w, b = params.layers[-1]
    params.layers[-1] = (w * 1e6, b)
    x = np.random.default_rng(5).normal(size=(64, 6))
    _, probs = nn.forward(cfg, params, x)
    _, inputs = nn._forward_cache(cfg, params, x)
    z = nn.matmul_rows(inputs[-1], params.layers[-1][0]) + b
    assert np.abs(z).max() > 710.0  # math.exp would overflow here unclipped
    np.testing.assert_array_equal(probs, _expit_reference(z))


def test_a_one_row_forward_equals_its_row_of_a_batch_bit_for_bit():
    """A lone row runs through `nn.matmul_rows`, not as a BLAS matrix-vector product with other last bits."""
    cfg = nn.ModelConfig(input_dim=96, num_classes=5, hidden_dims=(128,))
    params = nn.init_params(cfg, np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(64, cfg.input_dim))
    features, probs = nn.forward(cfg, params, x)
    for i in range(len(x)):
        one_features, one_probs = nn.forward(cfg, params, x[i : i + 1])
        assert np.array_equal(one_features, features[i : i + 1]) and np.array_equal(one_probs, probs[i : i + 1])


def test_forward_shape_mismatch_raises():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        nn.forward(cfg, params, np.ones((2, 7)))


def test_bce_perfect_prediction_is_tiny():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert nn.bce(y, y) <= 1e-6


def test_bce_half_probs_is_ln2():
    p = np.full((3, 4), 0.5)
    y = np.zeros((3, 4))
    assert nn.bce(p, y) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_hand_value():
    val = nn.bce(np.array([[0.9, 0.2]]), np.array([[1.0, 0.0]]))
    assert val == pytest.approx((-np.log(0.9) - np.log(0.8)) / 2.0, abs=1e-12)


def test_bce_nan_raises():
    with pytest.raises(NumericError):
        nn.bce(np.array([[np.nan]]), np.array([[1.0]]))


def test_bce_nonnegative_random():
    g = np.random.default_rng(4)
    for _ in range(50):
        p = g.random((3, 4))
        y = (g.random((3, 4)) > 0.5).astype(float)
        assert nn.bce(p, y) >= 0.0


def test_weighted_bce_zero_alpha_is_zero():
    g = np.random.default_rng(5)
    p, t = g.random((4, 3)), g.random((4, 3))
    assert nn.bce(p, t, np.zeros((4, 3))) == 0.0


def test_weighted_bce_unit_alpha_equals_plain_bce():
    g = np.random.default_rng(6)
    p, t = g.random((4, 3)), g.random((4, 3))
    assert nn.bce(p, t, np.ones((4, 3))) == pytest.approx(
        nn.bce(p, t), abs=1e-12
    )


def test_weighted_bce_hand_value():
    val = nn.bce(
        np.array([[0.8, 0.3]]), np.array([[1.0, 0.0]]), np.array([[1.0, 0.5]])
    )
    expected = (1.0 * -np.log(0.8) + 0.5 * -np.log(0.7)) / 2.0
    assert val == pytest.approx(expected, abs=1e-12)


def test_weighted_bce_alpha_out_of_range():
    with pytest.raises(ContractViolation):
        nn.bce(np.array([[0.5]]), np.array([[0.5]]), np.array([[1.5]]))


def test_weighted_bce_monotone_in_alpha():
    g = np.random.default_rng(7)
    p, t = g.random((2, 3)), g.random((2, 3))
    a = g.random((2, 3)) * 0.5
    lo = nn.bce(p, t, a)
    hi = nn.bce(p, t, a + 0.4)
    assert hi >= lo


def test_total_loss_cases_and_linearity():
    assert nn.total_loss(1.0, 1.0, 1.0, nn.LossWeights(0.0, 0.0)) == 1.0
    assert nn.total_loss(0.5, 0.2, 0.1, nn.LossWeights(0.8, 0.8)) == pytest.approx(0.74)
    w = nn.LossWeights(0.3, 0.7)
    base = nn.total_loss(1.0, 2.0, 3.0, w)
    assert nn.total_loss(1.0, 2.0 + 1.0, 3.0, w) - base == pytest.approx(0.3)
    assert nn.total_loss(1.0, 2.0, 3.0 + 1.0, w) - base == pytest.approx(0.7)


def _composite_batch(cfg, seed=0):
    g = np.random.default_rng(seed)
    r_b = correlation.correlation_matrix((g.random((12, cfg.num_classes)) > 0.5).astype(float))
    return nn.StepBatch(
        labeled_inputs=g.normal(size=(4, cfg.input_dim)),
        labels=(g.random((4, cfg.num_classes)) > 0.5).astype(float),
        strong_inputs=g.normal(size=(5, cfg.input_dim)),
        pseudo_targets=g.random((5, cfg.num_classes)),
        pseudo_weights=g.random((5, cfg.num_classes)),
        weak_inputs=g.normal(size=(5, cfg.input_dim)),
        correlation_target=r_b,
    )


def test_backward_matches_finite_differences():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(3))
    batch = _composite_batch(cfg)
    weights = nn.LossWeights(0.8, 0.8)
    _, grads = nn.backward(cfg, params, batch, weights)

    def loss_of(p):
        breakdown, _ = nn.backward(cfg, p, batch, weights)
        return breakdown.total

    numeric = finite_difference_grads(loss_of, params, h=1e-5)
    assert max_relative_error(grads, numeric) < 1e-4


def test_backward_perfect_fit_has_near_zero_gradient():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(9))
    # saturate the output: huge biases aligned with the single repeated label row
    w_out, b_out = params.layers[-1]
    params.layers[-1] = (np.zeros_like(w_out), np.array([40.0, -40.0, 40.0]))
    labels = np.tile(np.array([[1.0, 0.0, 1.0]]), (4, 1))
    batch = nn.StepBatch(labeled_inputs=np.random.default_rng(1).normal(size=(4, 6)), labels=labels)
    breakdown, grads = nn.backward(cfg, params, batch, nn.LossWeights(0.0, 0.0))
    norm = np.sqrt(sum(float(np.sum(gw**2) + np.sum(gb**2)) for gw, gb in grads))
    assert norm <= 1e-5
    assert breakdown.supervised <= 1e-6


def test_backward_unsupervised_term_scales_linearly_with_lambda():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(11))
    g = np.random.default_rng(12)
    strong = g.normal(size=(5, cfg.input_dim))
    targets = g.random((5, cfg.num_classes))
    alpha = g.random((5, cfg.num_classes))

    def grads_for(lu):
        batch = nn.StepBatch(strong_inputs=strong, pseudo_targets=targets, pseudo_weights=alpha)
        _, grads = nn.backward(cfg, params, batch, nn.LossWeights(lu, 0.0))
        return grads

    g1, g2 = grads_for(0.4), grads_for(0.8)
    for (aw, ab), (bw, bb) in zip(g1, g2):
        np.testing.assert_allclose(2.0 * aw, bw, atol=1e-12)
        np.testing.assert_allclose(2.0 * ab, bb, atol=1e-12)


def test_backward_loss_identity():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(13))
    batch = _composite_batch(cfg, seed=14)
    w = nn.LossWeights(0.6, 1.2)
    breakdown, _ = nn.backward(cfg, params, batch, w)
    assert breakdown.total == breakdown.supervised + 0.6 * breakdown.unsupervised + 1.2 * breakdown.alignment


@pytest.mark.parametrize("activation, digest", [("relu", "2f80697a1428bf3a"), ("tanh", "a55ca57113ee560e")])
def test_backward_loss_and_gradient_bytes_are_pinned(activation, digest):
    """All three loss terms on one fixed batch: the breakdown and every gradient array keep their bits."""
    cfg = small_cfg(activation=activation)
    params = nn.init_params(cfg, np.random.default_rng(15))
    breakdown, grads = nn.backward(cfg, params, _composite_batch(cfg, seed=16), nn.LossWeights(0.6, 1.2))
    h = hashlib.sha256(np.array([breakdown.supervised, breakdown.unsupervised, breakdown.alignment,
                                 breakdown.total]).tobytes())
    for gw, gb in grads:
        h.update(gw.tobytes())
        h.update(gb.tobytes())
    assert h.hexdigest()[:16] == digest


def test_sgd_momentum_zero_is_plain_descent():
    params = nn.ParameterSet([(np.ones((2, 2)), np.ones(2))])
    grads = nn.ParameterSet([(np.full((2, 2), 0.5), np.full(2, 0.5))])
    new_p, _ = nn.sgd_step(params, grads, params.zeros_like(), lr=0.1, momentum=0.0)
    np.testing.assert_allclose(new_p.layers[0][0], np.ones((2, 2)) - 0.05)


def test_sgd_zero_gradient_keeps_params():
    params = nn.ParameterSet([(np.ones((2, 2)), np.ones(2))])
    new_p, _ = nn.sgd_step(params, params.zeros_like(), params.zeros_like(), lr=0.1, momentum=0.9)
    np.testing.assert_array_equal(new_p.layers[0][0], params.layers[0][0])


def test_sgd_two_steps_with_momentum_displacement():
    theta0 = np.zeros((1, 1))
    params = nn.ParameterSet([(theta0.copy(), np.zeros(1))])
    g = nn.ParameterSet([(np.full((1, 1), 2.0), np.zeros(1))])
    v = params.zeros_like()
    params, v = nn.sgd_step(params, g, v, lr=1.0, momentum=0.9)
    params, v = nn.sgd_step(params, g, v, lr=1.0, momentum=0.9)
    # v1 = g, v2 = 0.9 g + g; total displacement (1 + 1.9) * g
    assert params.layers[0][0][0, 0] == pytest.approx(-2.0 * 2.9)


def test_ema_boundary_and_value():
    t = nn.ParameterSet([(np.ones((1, 1)), np.zeros(1))])
    s = nn.ParameterSet([(np.zeros((1, 1)), np.ones(1))])
    same = nn.ema_update(t, s, 1.0)
    np.testing.assert_array_equal(same.layers[0][0], t.layers[0][0])
    copied = nn.ema_update(t, s, 0.0)
    np.testing.assert_array_equal(copied.layers[0][0], s.layers[0][0])
    mixed = nn.ema_update(t, s, 0.999)
    assert mixed.layers[0][0][0, 0] == pytest.approx(0.999)


def test_ema_is_convex_combination():
    g = np.random.default_rng(15)
    t = nn.ParameterSet([(g.normal(size=(3, 3)), g.normal(size=3))])
    s = nn.ParameterSet([(g.normal(size=(3, 3)), g.normal(size=3))])
    out = nn.ema_update(t, s, 0.3)
    lo = np.minimum(t.layers[0][0], s.layers[0][0])
    hi = np.maximum(t.layers[0][0], s.layers[0][0])
    assert np.all(out.layers[0][0] >= lo - 1e-15) and np.all(out.layers[0][0] <= hi + 1e-15)


def test_lr_schedule_values_and_monotonicity():
    cfg = nn.OptimizerConfig()
    assert nn.lr_at(0, cfg) == pytest.approx(0.03)
    assert nn.lr_at(cfg.max_steps, cfg) == pytest.approx(0.03 * 11.0 ** (-0.75), rel=1e-12)
    values = [nn.lr_at(s, cfg) for s in range(0, cfg.max_steps + 1, 250)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(16))
    path = tmp_path / "params.bin"
    nn.save_params(path, params)
    loaded = nn.load_params(path)
    assert loaded.shapes() == params.shapes()
    for (w, b), (w2, b2) in zip(params, loaded):
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(b, b2)


def test_checkpoint_format_is_little_endian_float64(tmp_path):
    path = tmp_path / "m.bin"
    nn.save_params(path, nn.ParameterSet([(np.array([[1.0, 2.0]]), np.array([3.0, 4.0]))]))
    raw = path.read_bytes()
    assert raw[:8] == (2).to_bytes(8, "little")
    assert raw[8:40] == b"".join(n.to_bytes(8, "little") for n in (1, 2, 1, 2))
    assert np.frombuffer(raw[40:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def _two_layer_checkpoint(path):
    nn.save_params(path, nn.ParameterSet([(np.ones((2, 3)), np.ones(3)), (np.ones((3, 4)), np.ones(4))]))


def test_load_params_rejects_truncated_shape_table(tmp_path):
    path = tmp_path / "m.bin"
    _two_layer_checkpoint(path)
    path.write_bytes(path.read_bytes()[:8 + 16 + 5])  # second shape entry cut short
    with pytest.raises(ConfigurationError, match="shape table"):
        nn.load_params(path)


def test_load_params_rejects_shape_larger_than_the_file(tmp_path):
    path = tmp_path / "m.bin"
    _two_layer_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[8:16] = (2**62).to_bytes(8, "little")  # 8 * rows * cols overflows a read's size argument
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="truncated checkpoint payload"):
        nn.load_params(path)


def test_load_params_rejects_negative_shape(tmp_path):
    path = tmp_path / "m.bin"
    _two_layer_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[8:16] = (-2).to_bytes(8, "little", signed=True)
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="negative shape"):
        nn.load_params(path)


@pytest.mark.parametrize("raw, message", [
    (bytes(7), "truncated checkpoint header"),
    ((-3).to_bytes(8, "little", signed=True), "negative matrix count -3"),
    ((1).to_bytes(8, "little") + nn._SHAPE.pack(1, 2) + np.ones(2, "<f8").tobytes(),
     "expected alternating weight/bias matrices"),
    # a 0 x 2^62 shape claims no payload bytes, so no file size bounds it and numpy refuses the shape
    (nn._HDR.pack(2) + nn._SHAPE.pack(0, 2**62) + nn._SHAPE.pack(0, 0), rf"params\.bin: shape \(0, {2**62}\) too"),
    (nn._HDR.pack(2) + nn._SHAPE.pack(2**62, 0) + nn._SHAPE.pack(0, 0), rf"params\.bin: shape \({2**62}, 0\) too"),
], ids=["under 8 bytes", "negative count", "odd count", "0 x 2^62", "2^62 x 0"])
def test_load_params_rejects_a_malformed_checkpoint(tmp_path, raw, message):
    path = tmp_path / "params.bin"
    path.write_bytes(raw)
    with pytest.raises(ConfigurationError, match=message):
        nn.load_params(path)


def test_backward_nonfinite_gradient_reports_layer():
    cfg = small_cfg()
    params = nn.init_params(cfg, np.random.default_rng(17))
    params.layers[1][0][0, 0] = np.inf
    batch = nn.StepBatch(labeled_inputs=np.ones((2, 6)), labels=np.zeros((2, 3)))
    with pytest.raises((NumericError, ConfigurationError)):
        nn.backward(cfg, params, batch, nn.LossWeights(0.0, 0.0))


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        nn.ModelConfig(input_dim=4, num_classes=1)
    with pytest.raises(ConfigurationError):
        nn.ModelConfig(input_dim=4, num_classes=2, activation="gelu")


@pytest.mark.parametrize("call, error, message", [
    (lambda cfg, params: nn.ParameterSet([(np.zeros((2, 3)), np.zeros(2))]), ConfigurationError,
     "layer 0 has inconsistent shapes (2, 3) / (2,)"),
    (lambda cfg, params: nn.forward(cfg, params, np.ones(6)), ConfigurationError, "batch must be 2-D, got shape (6,)"),
    (lambda cfg, params: nn.forward(cfg, params, np.full((2, 6), np.nan)), NumericError,
     "batch contains non-finite values"),
    (lambda cfg, params: nn.forward(cfg, nn.ParameterSet(params.layers[1:]), np.ones((2, 6))), ConfigurationError,
     "expected 4 layers, got 3"),
    (lambda cfg, params: nn.forward(cfg, nn.init_params(small_cfg(hidden_dims=(2,)), RandomStream(0)),
                                    np.ones((2, 6))),
     ConfigurationError, "layer 0: weight shape (6, 2) != (6, 5)"),
    (lambda cfg, params: nn.bce(np.full((2, 3), 0.5), np.zeros((2, 2))), ConfigurationError,
     "probs (2, 3), targets (2, 2) and alpha (2, 3) must share a shape"),
    (lambda cfg, params: nn.LossWeights(np.inf, 0.0), ConfigurationError, "loss weights must be finite"),
    (lambda cfg, params: nn.LossWeights(0.8, np.nan), ConfigurationError, "loss weights must be finite"),
    (lambda cfg, params: nn.backward(cfg, params, nn.StepBatch(pseudo_targets=np.zeros((2, 3)),
                                                               pseudo_weights=np.ones((2, 3))), nn.LossWeights()),
     ConfigurationError, "pseudo targets supplied without strong inputs"),
    (lambda cfg, params: nn.backward(cfg, params, nn.StepBatch(correlation_target=np.eye(3)), nn.LossWeights()),
     ConfigurationError, "alignment target supplied without unlabeled inputs"),
    (lambda cfg, params: nn.backward(cfg, params, nn.StepBatch(labeled_inputs=np.ones((2, 6))), nn.LossWeights()),
     ConfigurationError, "labeled inputs supplied without labels"),
    (lambda cfg, params: nn.backward(cfg, params, nn.StepBatch(strong_inputs=np.ones((2, 6)),
                                                               pseudo_targets=np.zeros((2, 3))), nn.LossWeights()),
     ConfigurationError, "pseudo targets supplied without pseudo weights"),
    (lambda cfg, params: nn.ema_update(params, params, 1.5), ConfigurationError,
     "ema momentum must be in [0, 1], got 1.5"),
    (lambda cfg, params: nn.ema_update(params, nn.ParameterSet(params.layers[1:]), 0.5), ConfigurationError,
     "teacher/student shape mismatch"),
], ids=["parameter-shapes", "batch-1-d", "batch-nan", "layer-count", "weight-shape", "bce-shapes",
        "lambda-u-inf", "lambda-f-nan", "pseudo-without-strong", "alignment-without-unlabeled",
        "labeled-without-labels", "pseudo-without-weights", "ema-momentum",
        "ema-shapes"])
def test_bad_network_inputs_raise_naming_the_fault(call, error, message):
    cfg = small_cfg()
    params = nn.init_params(cfg, RandomStream(0))
    with pytest.raises(error) as exc:
        call(cfg, params)
    assert str(exc.value) == message
