import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from ecgmatch import augment, metrics, nn, pseudo, trainer
from ecgmatch.data import Dataset, SplitSpec, SynthConfig, Subset, encode_subset, split_within, synth_generate
from ecgmatch.errors import ConfigurationError
from ecgmatch.rng import RandomStream
from ecgmatch.trainer import (
    Ablations,
    TrainConfig,
    _NS_STEP,
    _ROLE_LABELED,
    _inputs,
)


def quick_cfg(**kw):
    defaults = dict(
        batch_labeled=16,
        batch_unlabeled=32,
        knn=pseudo.KnnConfig(k=5),
        optimizer=nn.OptimizerConfig(max_steps=200, ema_momentum=0.99),
        max_epochs=3,
        patience=3,
        hidden_dims=(32,),
        feature_dim=16,
        head_hidden=16,
        pool_len=8,
        pretrain_max_epochs=10,
        pretrain_patience=3,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def quick_splits(n=240, seed=0, labeled_frac=0.2, noise=0.15):
    ds = synth_generate(SynthConfig(n_samples=n, seed=seed, noise_level=noise, channels=2,
                                    signal_length=64))
    return split_within(ds, SplitSpec(protocol="within", labeled_frac=labeled_frac, seed=seed))


def clone_state(state):
    banks = None
    if state.banks is not None:
        banks = pseudo.MemoryBanks(state.banks.size, state.banks.features.shape[1],
                                   state.banks.predictions.shape[1])
        banks.update(np.arange(banks.size), state.banks.features, state.banks.predictions)
    return trainer.TrainState(
        model_cfg=state.model_cfg,
        student=state.student.copy(),
        teacher=state.teacher.copy(),
        velocity=state.velocity.copy(),
        banks=banks,
        label_correlation=None if state.label_correlation is None else state.label_correlation.copy(),
        labeled=state.labeled,
        unlabeled=state.unlabeled,
        step=state.step,
    )


def params_equal(a, b):
    return all(
        np.array_equal(aw, bw) and np.array_equal(ab, bb)
        for (aw, ab), (bw, bb) in zip(a, b)
    )


# --- early stopping -------------------------------------------------------


class Scored:
    """Stands in for the params of one epoch and for their validation report."""

    def __init__(self, epoch, score):
        self.epoch, self.score = epoch, score

    def copy(self):
        return self

    def value(self, name):
        return self.score


def fit_scripted(monkeypatch, scores, patience, eval_metric="map"):
    """(epochs run, epoch kept) when `_fit` reads the scripted validation `scores`."""
    monkeypatch.setattr(trainer, "evaluate_model", lambda model_cfg, params, subset, cfg: params)
    run = []

    def run_epoch(epoch):
        run.append(epoch)
        return Scored(epoch, scores[epoch])

    best = trainer._fit(None, Scored(None, None), None, quick_cfg(eval_metric=eval_metric),
                        range(len(scores)), patience, run_epoch)
    return len(run), best.epoch


def test_early_stop_never_fires_on_strict_improvement(monkeypatch):
    assert fit_scripted(monkeypatch, np.linspace(0.1, 0.9, 30), patience=3) == (30, 29)


def test_early_stop_flat_sequence_stops_at_patience(monkeypatch):
    assert fit_scripted(monkeypatch, [0.5] * 10, patience=3) == (4, 0)


def test_early_stop_lower_is_better_orientation(monkeypatch):
    scores = [1.0, 0.5, 0.6, 0.7, 0.1]  # 0.5 improves, then two worse scores stop the run
    assert fit_scripted(monkeypatch, scores, patience=2, eval_metric="hamming_loss") == (4, 1)


def test_early_stop_recovers_from_nan_first_score(monkeypatch):
    nan = float("nan")
    # any number beats a NaN best; a NaN never beats a finite best, nor another NaN
    assert fit_scripted(monkeypatch, [nan, 0.5, 0.9, 0.95, nan, 0.1, 1.0], patience=2) == (6, 3)
    assert fit_scripted(monkeypatch, [nan, nan, nan, 0.5], patience=2) == (3, 0)


def test_fit_with_no_epochs_keeps_the_initial_params():
    start = Scored(None, None)
    assert trainer._fit(None, start, None, quick_cfg(), range(0), 1, None) is start


# --- pre-training -----------------------------------------------------------


def test_pretrain_reduces_training_loss_on_average():
    deltas = []
    for seed in (0, 1, 2):
        splits = quick_splits(seed=seed)
        cfg = quick_cfg(seed=seed, pretrain_max_epochs=1, pretrain_patience=1)
        model_cfg = cfg.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
        init = nn.init_params(model_cfg, RandomStream(seed).substream(0))

        inputs = _inputs(splits.labeled, np.arange(len(splits.labeled)), cfg)
        _, p0 = nn.forward(model_cfg, init, inputs)
        loss0 = nn.bce(p0, splits.labeled.labels)
        trained = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
        _, p1 = nn.forward(model_cfg, trained, inputs)
        deltas.append(nn.bce(p1, splits.labeled.labels) - loss0)
    assert np.mean(deltas) < 0.0


def test_pretrain_reaches_high_map_on_separable_fixture():
    ds = synth_generate(SynthConfig(n_samples=400, seed=5, noise_level=0.05, channels=2,
                                    signal_length=64))
    splits = split_within(ds, SplitSpec(protocol="within", labeled_frac=0.5, seed=5))
    cfg = quick_cfg(seed=5, pool_len=16, pretrain_max_epochs=50, pretrain_patience=10,
                    optimizer=nn.OptimizerConfig(max_steps=500, ema_momentum=0.99))
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    model_cfg = cfg.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
    report = trainer.evaluate_model(model_cfg, teacher, splits.val, cfg)
    assert report.map > 0.95


def test_pretrain_deterministic():
    splits = quick_splits(seed=3)
    cfg = quick_cfg(seed=3, pretrain_max_epochs=3)
    a = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    b = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    assert params_equal(a, b)


def test_pretrain_rejects_all_negative_labels():
    splits = quick_splits()
    ds = splits.labeled.datasets[0]
    empty = Subset([Dataset(ds.signals, np.zeros_like(ds.labels))], splits.labeled.sources, splits.labeled.rows)
    with pytest.raises(ConfigurationError):
        trainer.pretrain_teacher(empty, splits.val, quick_cfg())


# --- single steps ------------------------------------------------------------


def make_state_and_batches(cfg, splits):
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    state = trainer.init_train_state(splits.labeled, splits.unlabeled, cfg, teacher)
    lab = np.arange(min(cfg.batch_labeled, len(splits.labeled)))
    un = np.arange(min(cfg.batch_unlabeled, len(splits.unlabeled)))
    return state, lab, un


def test_step_with_zero_weights_equals_pure_supervised_step():
    splits = quick_splits()
    cfg = quick_cfg(weights=nn.LossWeights(0.0, 0.0), pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    manual_student = state.student.copy()
    manual_velocity = state.velocity.copy()
    step = state.step

    breakdown = trainer.train_step(state, lab, un, cfg)

    stream = RandomStream(cfg.seed).substream(_NS_STEP, step).substream(_ROLE_LABELED)
    inputs = _inputs(splits.labeled, lab, cfg, stream)
    batch = nn.StepBatch(labeled_inputs=inputs, labels=splits.labeled.labels[lab])
    manual_bd, grads = nn.backward(state.model_cfg, manual_student, batch, nn.LossWeights(0.0, 0.0))
    lr = nn.lr_at(step, cfg.optimizer)
    manual_student, _ = nn.sgd_step(manual_student, grads, manual_velocity, lr,
                                    cfg.optimizer.momentum)

    assert params_equal(state.student, manual_student)
    assert breakdown.supervised == manual_bd.supervised
    assert breakdown.unsupervised == 0.0 and breakdown.alignment == 0.0


def test_supervised_only_ignores_the_unlabeled_batch():
    splits = quick_splits()
    cfg = quick_cfg(baseline="supervised_only", pretrain_max_epochs=2)
    assert cfg.effective_weights() == nn.LossWeights(0.0, 0.0)
    state, lab, un = make_state_and_batches(cfg, splits)
    assert state.banks is None and state.label_correlation is None
    zero_cfg = quick_cfg(weights=nn.LossWeights(0.0, 0.0), pretrain_max_epochs=2)
    zero_state, _, _ = make_state_and_batches(zero_cfg, splits)

    breakdown = trainer.train_step(state, lab, un, cfg)
    assert breakdown == trainer.train_step(zero_state, lab, un, zero_cfg)
    assert params_equal(state.student, zero_state.student)


def test_no_pseudo_ablation_disables_banks_and_unsupervised_loss():
    splits = quick_splits()
    cfg = quick_cfg(ablations=Ablations(no_pseudo=True), pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    assert state.banks is None
    breakdown = trainer.train_step(state, lab, un, cfg)
    assert breakdown.unsupervised == 0.0
    assert breakdown.alignment > 0.0
    assert breakdown.total == breakdown.supervised + cfg.weights.lambda_f * breakdown.alignment


def test_no_align_ablation_drops_alignment_term():
    splits = quick_splits()
    cfg = quick_cfg(ablations=Ablations(no_align=True), pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    breakdown = trainer.train_step(state, lab, un, cfg)
    assert breakdown.alignment == 0.0
    assert breakdown.unsupervised > 0.0
    assert breakdown.total == breakdown.supervised + cfg.weights.lambda_u * breakdown.unsupervised


def test_no_nam_forces_unit_weights_and_threshold_zero_matches(monkeypatch):
    splits = quick_splits()
    captured = []
    real_backward = nn.backward

    def spy(model_cfg, params, batch, weights):
        captured.append(batch.pseudo_weights)
        return real_backward(model_cfg, params, batch, weights)

    cfg_nam = quick_cfg(ablations=Ablations(no_nam=True), pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg_nam, splits)
    state_b = clone_state(state)

    monkeypatch.setattr(trainer.nn, "backward", spy)
    trainer.train_step(state, lab, un, cfg_nam)
    assert np.all(captured[-1] == 1.0)

    # fixed threshold tau=0 accepts everything: identical update, bitwise
    cfg_thr = quick_cfg(baseline="fixed_threshold", fixed_threshold_tau=0.0, pretrain_max_epochs=2)
    trainer.train_step(state_b, lab, un, cfg_thr)
    assert np.all(captured[-1] == 1.0)
    assert params_equal(state.student, state_b.student)


def test_threshold_one_rejects_all_pseudo_labels(monkeypatch):
    splits = quick_splits()
    cfg = quick_cfg(baseline="fixed_threshold", fixed_threshold_tau=1.0, pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    captured = []
    real_backward = nn.backward

    def spy(model_cfg, params, batch, weights):
        captured.append(batch.pseudo_weights)
        return real_backward(model_cfg, params, batch, weights)

    monkeypatch.setattr(trainer.nn, "backward", spy)
    breakdown = trainer.train_step(state, lab, un, cfg)
    assert np.all(captured[-1] == 0.0)
    assert breakdown.unsupervised == 0.0  # every cell fully down-weighted


def test_threshold_step_alpha_is_binary(monkeypatch):
    splits = quick_splits()
    cfg = quick_cfg(baseline="fixed_threshold", fixed_threshold_tau=0.6, pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    captured = []
    real_backward = nn.backward

    def spy(model_cfg, params, batch, weights):
        captured.append((batch.pseudo_targets, batch.pseudo_weights))
        return real_backward(model_cfg, params, batch, weights)

    monkeypatch.setattr(trainer.nn, "backward", spy)
    trainer.train_step(state, lab, un, cfg)
    targets, alpha = captured[-1]
    conf = np.maximum(targets, 1.0 - targets)
    np.testing.assert_array_equal(alpha, (conf >= 0.6).astype(float))


@pytest.mark.parametrize("strong", [False, True])
def test_fused_augment_encode_equals_augment_then_encode(strong):
    """`_inputs` over a pool of three signal lengths equals augmenting and encoding each row alone."""
    g = np.random.default_rng(12)
    sizes, lengths = (300, 150, 150), (256, 64, 9)  # the 256-sample rows span three blocks
    datasets = [Dataset(g.normal(size=(n, 3, length)), np.zeros((n, 5))) for n, length in zip(sizes, lengths)]
    pool = Subset(datasets, np.repeat([0, 1, 2], sizes), np.concatenate([np.arange(n) for n in sizes]))
    picks = g.integers(0, len(pool), size=500)  # with repeats, as unlabeled batches may draw
    cfg = quick_cfg()
    stream = RandomStream(5, (_NS_STEP, 2))
    one_row = augment.strong_augment if strong else augment.weak_augment
    want = np.vstack([
        encode_subset(one_row(datasets[pool.sources[i]].signals[pool.rows[i]], stream.substream(p),
                              cfg.augment_cfg)[None], cfg.pool_len)
        for p, i in enumerate(picks)])
    got = _inputs(pool, picks, cfg, stream, strong=strong)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_strong_inputs_of_long_multi_lead_signals_hold_a_block_not_the_batch():
    """32 rows of 12x5000 signals (15 MiB): a block is cut by signal elements, not row count,
    so augment and encode hold a row or so at a time. At 256 rows a block it was ~56 MiB."""
    g = np.random.default_rng(13)
    pool = Subset([Dataset(g.normal(size=(32, 12, 5000)), np.zeros((32, 5)))], np.zeros(32), np.arange(32))
    cfg, stream = quick_cfg(pool_len=32), RandomStream(6, (_NS_STEP, 2))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        _inputs(pool, np.arange(32), cfg, stream, strong=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20 and time.perf_counter() - start < 1.0


def test_model_width_is_channels_times_pool_len():
    splits = quick_splits()  # 2-channel signals
    for pool_len in (4, 8):
        cfg = quick_cfg(pool_len=pool_len)
        model_cfg = cfg.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
        first = splits.labeled.datasets[0].signals[:1]
        assert model_cfg.input_dim == encode_subset(first, pool_len).shape[1] == 2 * pool_len


def test_evaluate_model_encodes_each_subset_once(monkeypatch):
    splits = quick_splits()
    cfg = quick_cfg(pretrain_max_epochs=2)
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    model_cfg = cfg.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
    test = Subset(splits.test.datasets, splits.test.sources, splits.test.rows)
    fresh = encode_subset(test.datasets[0].signals[test.rows], cfg.pool_len)
    want = metrics.compute_all(nn.forward(model_cfg, teacher, fresh)[1], test.labels).to_csv_row()

    calls = []

    def counting(signals, pool_len=32):
        calls.append((len(signals), pool_len))
        return encode_subset(signals, pool_len)

    monkeypatch.setattr(trainer, "encode_subset", counting)
    for _ in range(3):
        report = trainer.evaluate_model(model_cfg, teacher, test, cfg)
        assert report.to_csv_row() == want
        assert calls == [(len(test), cfg.pool_len)]
    assert test.encoded[0] == cfg.pool_len and test.encoded[1].tobytes() == fresh.tobytes()
    # a different pool length encodes again
    cfg4 = quick_cfg(pool_len=4)
    model4 = cfg4.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
    trainer.evaluate_model(model4, nn.init_params(model4, RandomStream(0)), test, cfg4)
    assert calls[1:] == [(len(test), 4)] and test.encoded[0] == 4


def test_bank_rows_update_only_for_batch_indices():
    splits = quick_splits()
    cfg = quick_cfg(pretrain_max_epochs=2)
    state, lab, _ = make_state_and_batches(cfg, splits)
    before = state.banks.features.copy()
    idx = np.array([1, 3, 5])
    trainer.train_step(state, lab, idx, cfg)
    untouched = np.setdiff1d(np.arange(state.banks.size), idx)
    np.testing.assert_array_equal(state.banks.features[untouched], before[untouched])


def test_teacher_follows_closed_form_ema():
    splits = quick_splits()
    cfg = quick_cfg(pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    m = cfg.optimizer.ema_momentum
    theta0 = state.teacher.copy()
    students = []
    for _ in range(5):
        trainer.train_step(state, lab, un, cfg)
        students.append(state.student.copy())
    t = len(students)
    for li in range(len(theta0.layers)):
        for gi in (0, 1):
            expected = m**t * theta0.layers[li][gi]
            for i, s in enumerate(students, start=1):
                expected = expected + (1 - m) * m ** (t - i) * s.layers[li][gi]
            np.testing.assert_allclose(state.teacher.layers[li][gi], expected, atol=1e-10)


def test_loss_breakdown_identity():
    splits = quick_splits()
    cfg = quick_cfg(weights=nn.LossWeights(0.7, 1.1), pretrain_max_epochs=2)
    state, lab, un = make_state_and_batches(cfg, splits)
    bd = trainer.train_step(state, lab, un, cfg)
    assert bd.total == bd.supervised + 0.7 * bd.unsupervised + 1.1 * bd.alignment


# --- full loop ----------------------------------------------------------------


@pytest.mark.parametrize("eval_metric", ["hamming_loss", "macro_gbeta"])
def test_every_evaluation_scores_with_the_configured_threshold_and_beta(monkeypatch, eval_metric):
    splits = quick_splits()
    cfg = quick_cfg(eval_metric=eval_metric, metrics=metrics.MetricsConfig(threshold=0.3, gbeta_beta=1.5),
                    max_epochs=2, pretrain_max_epochs=3)
    real = metrics.compute_all
    seen = []

    def spy(scores, labels, threshold=0.5, beta=2.0):
        seen.append((threshold, beta))
        return real(scores, labels, threshold=threshold, beta=beta)

    monkeypatch.setattr(metrics, "compute_all", spy)
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    pretrain_calls = len(seen)
    _, state, history = trainer.ssl_train(splits, cfg, teacher)
    assert pretrain_calls == 3 and len(seen) == 3 + 1 + 2  # pretraining epochs, then SSL's start and epochs
    assert set(seen) == {(0.3, 1.5)}
    val_inputs = encode_subset(splits.val.datasets[0].signals[splits.val.rows], cfg.pool_len)
    _, probs = nn.forward(state.model_cfg, state.student, val_inputs)
    want = real(probs, splits.val.labels, threshold=0.3, beta=1.5).value(eval_metric)
    assert history[-1]["val_metric"] == want


def test_iterations_per_epoch_match_floor_of_pool_over_batch():
    splits = quick_splits(n=400, labeled_frac=0.4)  # 128 labeled
    cfg = quick_cfg(batch_labeled=64, max_epochs=2, pretrain_max_epochs=1)
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    _, state, history = trainer.ssl_train(splits, cfg, teacher)
    expected_iters = len(splits.labeled) // 64
    assert expected_iters == 2
    assert state.step == cfg.max_epochs * expected_iters


def test_ssl_train_keeps_best_checkpoint_not_last():
    splits = quick_splits(seed=4)
    cfg = quick_cfg(seed=4, max_epochs=4, pretrain_max_epochs=3)
    teacher = trainer.pretrain_teacher(splits.labeled, splits.val, cfg)
    best, state, history = trainer.ssl_train(splits, cfg, teacher)
    model_cfg = state.model_cfg
    best_score = trainer.evaluate_model(model_cfg, best, splits.val, cfg).map
    vals = [row["val_metric"] for row in history if row["val_metric"] != ""]
    assert best_score == pytest.approx(max(vals))


def test_run_experiment_three_seeds_and_supervised_baseline():
    ds = synth_generate(SynthConfig(n_samples=240, seed=6, noise_level=0.2, channels=2,
                                    signal_length=64))
    spec = SplitSpec(protocol="within", labeled_frac=0.2, seed=0)
    cfg = quick_cfg(max_epochs=2, pretrain_max_epochs=3)
    result = trainer.run_experiment([ds], spec, cfg, seeds=[0, 1, 2])
    assert len(result.per_seed) == 3
    assert set(result.mean) == set(metrics.METRIC_NAMES)

    sup = trainer.run_experiment([ds], spec, quick_cfg(baseline="supervised_only",
                                                       pretrain_max_epochs=3), seeds=[0])
    assert sup.per_seed[0].history == []  # no unsupervised machinery ran


def test_an_empty_unlabeled_set_trains_when_no_loss_term_uses_it():
    ds = synth_generate(SynthConfig(n_samples=120, seed=6, noise_level=0.2, channels=2, signal_length=64))
    spec = SplitSpec(protocol="within", labeled_frac=1.0, seed=0)
    cfg = quick_cfg(max_epochs=2, pretrain_max_epochs=2, ablations=Ablations(no_pseudo=True, no_align=True))
    result = trainer.run_experiment([ds], spec, cfg, seeds=[0])
    assert result.per_seed[0].history[-1]["epoch"] == 2
    assert trainer.run_experiment([ds], spec, quick_cfg(baseline="supervised_only", pretrain_max_epochs=2),
                                  seeds=[0]).per_seed[0].history == []
    with pytest.raises(ConfigurationError, match="unlabeled set empty"):
        trainer.run_experiment([ds], spec, quick_cfg(ablations=Ablations(no_pseudo=True)), seeds=[0])


def test_run_experiment_rejects_a_negative_seed_before_any_work(monkeypatch):
    ds = synth_generate(SynthConfig(n_samples=120, seed=6, noise_level=0.2, channels=2, signal_length=64))
    spec = SplitSpec(protocol="within", labeled_frac=0.2, seed=0)

    def no_split(*args):
        raise AssertionError("split ran before the seeds were checked")

    monkeypatch.setattr(trainer, "split", no_split)
    with pytest.raises(ConfigurationError, match="seeds must be nonnegative, got seed -1"):
        trainer.run_experiment([ds], spec, quick_cfg(), seeds=[0, -1])


def test_run_experiment_is_deterministic():
    ds = synth_generate(SynthConfig(n_samples=200, seed=7, noise_level=0.2, channels=2,
                                    signal_length=64))
    spec = SplitSpec(protocol="within", labeled_frac=0.25, seed=0)
    cfg = quick_cfg(max_epochs=2, pretrain_max_epochs=2)
    a = trainer.run_experiment([ds], spec, cfg, seeds=[0, 1])
    b = trainer.run_experiment([ds], spec, cfg, seeds=[0, 1])
    for ra, rb in zip(a.per_seed, b.per_seed):
        for name in metrics.METRIC_NAMES:
            assert ra.report.value(name) == rb.report.value(name)


def test_mixed_length_pooled_run_is_pinned():
    """mix and cross over 2x64 and 2x48 recordings; batches of 300 rows span blocks and sources."""
    datasets = [synth_generate(SynthConfig(n_samples=n, channels=2, signal_length=length, seed=seed,
                                           dataset_id=name))
                for name, n, length, seed in (("a", 200, 64, 1), ("b", 160, 48, 2), ("c", 120, 64, 3))]
    cfg = TrainConfig(max_epochs=2, pretrain_max_epochs=2, batch_labeled=16, batch_unlabeled=300, pool_len=8,
                      hidden_dims=(16,), feature_dim=8, head_hidden=8, knn=pseudo.KnnConfig(k=5))
    rows = []
    for spec in (SplitSpec(protocol="mix", labeled_frac=0.1),
                 SplitSpec(protocol="cross", held_out_dataset="b", labeled_frac=0.1)):
        result = trainer.run_experiment(datasets, spec, cfg, [0])
        rows += [",".join(sr.report.to_csv_row()) for sr in result.per_seed]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "941ed6e0860bac83"
