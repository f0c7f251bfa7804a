"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete. The end-to-end directional check trains fifteen small models
and takes ~21 s on two shared vCPUs; everything else finishes in seconds.
"""

import time

import numpy as np

from ecgmatch import correlation as corr
from ecgmatch import metrics as m
from ecgmatch import nn, pseudo, stats, trainer
from ecgmatch.augment import (
    AugmentConfig,
    channel_reorganization,
    random_noise,
    signal_dropout,
    strong_augment,
    temporal_flip,
    weak_augment,
)
from ecgmatch.cli import main
from ecgmatch.data import (
    AnnotationMap,
    SplitSpec,
    SynthConfig,
    map_annotations,
    split_cross,
    split_mix,
    split_within,
    synth_generate,
)
from ecgmatch.rng import RandomStream

from oracles import METRIC_ORACLES, finite_difference_grads, knn_oracle, max_relative_error


def _report(name, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[PASS] {name}{suffix}")


# ---------------------------------------------------------------------------


def test_metric_oracle_equivalence():
    start = time.perf_counter()
    g = np.random.default_rng(2024)
    impls = {
        "ranking_loss": m.ranking_loss,
        "hamming_loss": m.hamming_loss,
        "coverage": m.coverage,
        "map": m.mean_average_precision,
        "macro_auc": m.macro_auc,
        "macro_gbeta": m.macro_gbeta,
    }
    checked = 0
    for _ in range(200):
        n = int(g.integers(2, 51))
        scores = g.random((n, 5))
        labels = (g.random((n, 5)) < 0.4).astype(float)
        inst = m.ScoreMatrix(scores, labels)
        for name, impl in impls.items():
            try:
                got = impl(inst)
            except Exception:
                continue
            want = METRIC_ORACLES[name](scores, labels)
            assert abs(got - want) < 1e-9, (name, got, want)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 1000
    assert elapsed < 10.0
    _report("metric-oracle equivalence (200 instances, tol 1e-9)", elapsed)


def test_conditional_probability_identity():
    g = np.random.default_rng(7)
    for _ in range(100):
        n = int(g.integers(4, 201))
        y = (g.random((n, 5)) < 0.35).astype(float)
        for c in range(5):
            if y[:, c].sum() == 0:
                y[int(g.integers(0, n)), c] = 1.0
        r = corr.correlation_matrix(y, "cosine")
        for c1 in range(5):
            for c2 in range(5):
                n1, n2 = y[:, c1].sum(), y[:, c2].sum()
                both = float((y[:, c1] * y[:, c2]).sum())
                want = np.sqrt((both / n2) * (both / n1))
                assert abs(r[c1, c2] - want) < 1e-12
    _report("cosine correlation equals conditional co-occurrence form (tol 1e-12)")


def test_class_distribution_robustness():
    g = np.random.default_rng(8)
    y = (g.random((40, 5)) < 0.4).astype(float)
    y[0] = 1.0  # no empty class
    base = corr.correlation_matrix(y, "cosine")
    doubled = corr.correlation_matrix(np.vstack([y, y]), "cosine")
    padded = corr.correlation_matrix(np.vstack([y, np.zeros((25, 5))]), "cosine")
    # zero-row padding adds exact zeros, so even the bits agree; duplication
    # reorders the summations and is exact up to one ulp
    np.testing.assert_array_equal(padded, base)
    np.testing.assert_allclose(doubled, base, rtol=0.0, atol=5e-16)

    # witness: squared Pearson moves when both-zero rows are appended
    a = np.array([1.0, 1, 0, 0, 1])
    b = np.array([1.0, 0, 1, 0, 1])
    before = corr.pearson_correlation(a, b)
    after = corr.pearson_correlation(np.append(a, np.zeros(6)), np.append(b, np.zeros(6)))
    assert abs(before - after) > 1e-3
    _report("class-distribution robustness (cosine exact, Pearson witness)")


def test_gradient_correctness():
    start = time.perf_counter()
    cfg = nn.ModelConfig(input_dim=6, num_classes=3, hidden_dims=(5,), feature_dim=4,
                         head_hidden=4, activation="tanh")
    g = np.random.default_rng(11)
    params = nn.init_params(cfg, g)
    r_b = corr.correlation_matrix((g.random((15, 3)) > 0.5).astype(float))
    batch = nn.StepBatch(
        labeled_inputs=g.normal(size=(4, 6)),
        labels=(g.random((4, 3)) > 0.5).astype(float),
        strong_inputs=g.normal(size=(5, 6)),
        pseudo_targets=g.random((5, 3)),
        pseudo_weights=g.random((5, 3)),
        weak_inputs=g.normal(size=(5, 6)),
        correlation_target=r_b,
    )
    weights = nn.LossWeights(0.8, 0.8)
    _, analytic = nn.backward(cfg, params, batch, weights)

    def loss_of(p):
        breakdown, _ = nn.backward(cfg, p, batch, weights)
        return breakdown.total

    numeric = finite_difference_grads(loss_of, params, h=1e-5)
    err = max_relative_error(analytic, numeric)
    elapsed = time.perf_counter() - start
    assert err < 1e-4, err
    assert elapsed < 30.0
    _report(f"gradient vs central differences (max rel err {err:.2e})", elapsed)


def test_neighbor_agreement_contract():
    for k in range(1, 11):
        # neighbor sums s on a quarter-step grid, realized as floor(s) unit
        # votes plus one fractional vote plus zero padding
        for s in np.arange(0.0, k + 1e-9, 0.25):
            whole = min(int(np.floor(s)), k)
            column = [1.0] * whole + [float(s) - whole] + [0.0] * k
            preds = np.array(column[:k]).reshape(-1, 1)
            total = float(preds.sum())
            assert total == float(s)
            alpha = pseudo.neighbor_agreement(preds)[0]
            expected = abs(2.0 * (total / k) - 1.0)
            assert alpha == expected, (k, s, alpha, expected)
            assert (alpha == 1.0) == (s in (0.0, float(k)))
            assert (alpha == 0.0) == (total / k == 0.5)
    _report("neighbor agreement |2s/K - 1| exact on all K <= 10 grids")


def test_knn_bank_equivalence():
    g = np.random.default_rng(13)
    for _ in range(100):
        n = int(g.integers(5, 201))
        d = int(g.integers(2, 33))
        features, predictions = g.normal(size=(n, d)), g.random((n, 3))
        k = int(g.integers(1, min(n, 10) + 1))
        query = g.normal(size=d)
        for distance in ("cosine", "euclidean"):  # a bank holds the rows of one distance
            banks = pseudo.MemoryBanks(n, d, 3, distance)
            banks.update(np.arange(n), features, predictions)
            got = pseudo.knn_query(banks, query, pseudo.KnnConfig(k=k, distance=distance))
            want = knn_oracle(features, predictions, query, k, distance)
            assert [i for i, _ in got] == [i for i, _ in want], distance
    _report("knn_query equals exhaustive-sort oracle (100 banks, both distances)")


def test_statistics_constants():
    cd = stats.bonferroni_dunn_cd(8, 4, 0.05)
    assert abs(cd - 4.6592) < 1e-3
    assert stats.REFERENCE_CRITICAL_VALUE_K8_N4 == 3.2590
    identical = stats.rank_models(stats.PerformanceTable(np.full((4, 8), 0.5), True))
    chi2, ff = stats.friedman_statistic(identical)
    assert chi2 == 0.0 and ff == 0.0
    _report("statistics constants (CD 4.6592, reference 3.2590, chi2=0 fixture)")


def test_augmentation_invariants():
    start = time.perf_counter()
    g = np.random.default_rng(17)
    cfg = AugmentConfig()
    for trial in range(100):
        x = g.normal(size=(int(g.integers(2, 13)), int(g.integers(8, 120))))
        stream = RandomStream(trial)
        assert np.array_equal(temporal_flip(temporal_flip(x)), x)
        shuffled = channel_reorganization(x, stream)
        assert sorted(map(tuple, shuffled)) == sorted(map(tuple, x))
        dropped = signal_dropout(x, stream, cfg)
        cols = np.unique(np.where(dropped != x)[1])
        if cols.size:
            assert np.array_equal(cols, np.arange(cols.min(), cols.max() + 1))
        near = random_noise(x, stream, AugmentConfig(noise_sigma=1e-13))
        assert np.allclose(near, x, atol=1e-9)
        for fn in (weak_augment, strong_augment):
            a = fn(x, RandomStream(trial), cfg)
            b = fn(x, RandomStream(trial), cfg)
            assert a.shape == x.shape
            assert np.array_equal(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("augmentation invariants (involution, multiset, locality, determinism)", elapsed)


def _toy_dataset(n, seed, name):
    g = np.random.default_rng(seed)
    signals = [g.normal(size=(2, 16)) for _ in range(n)]
    labels = (g.random((n, 5)) > 0.5).astype(float)
    labels[0] = 1.0
    from ecgmatch.data import Dataset

    return Dataset(signals, labels, name)


def test_split_protocol_contracts():
    ds = _toy_dataset(1000, 0, "one")
    res = split_within(ds, SplitSpec(protocol="within", labeled_frac=0.05, seed=3))
    sizes = (len(res.labeled), len(res.unlabeled), len(res.val), len(res.test))
    assert sizes == (40, 760, 100, 100)

    a, b = _toy_dataset(500, 1, "a"), _toy_dataset(500, 2, "b")
    mixed = split_mix([a, b], SplitSpec(protocol="mix", labeled_frac=0.01, seed=3))
    assert len(mixed.labeled) == 8
    assert len(mixed.labeled) + len(mixed.unlabeled) == 800

    four = [_toy_dataset(250, s, name) for s, name in enumerate("wxyz")]
    crossed = split_cross(four, SplitSpec(protocol="cross", labeled_frac=0.01, seed=3,
                                          held_out_dataset="w"))
    assert set(crossed.test.provenance) == {"w"}
    train_val = set(crossed.labeled.provenance) | set(crossed.unlabeled.provenance) | set(crossed.val.provenance)
    assert "w" not in train_val
    _report("split protocols reproduce reference ratios and pass the leakage check")


def test_end_to_end_directional():
    start = time.perf_counter()
    latent = np.eye(5)
    latent[0, 1] = latent[1, 0] = 0.45
    latent[2, 3] = latent[3, 2] = 0.4
    latent[1, 4] = latent[4, 1] = -0.35
    ds = synth_generate(SynthConfig(n_samples=2000, seed=99, noise_level=1.2, channels=2,
                                    signal_length=64, target_correlation=latent))
    spec = SplitSpec(protocol="within", labeled_frac=0.05, seed=0)

    def make_cfg(**kw):
        base = dict(
            batch_labeled=64, batch_unlabeled=256, knn=pseudo.KnnConfig(k=10),
            weights=nn.LossWeights(0.8, 0.8),
            optimizer=nn.OptimizerConfig(lr0=0.05, max_steps=1000, ema_momentum=0.99),
            max_epochs=60, patience=25, hidden_dims=(64,), feature_dim=32, head_hidden=32,
            pool_len=16, pretrain_max_epochs=150, pretrain_patience=10, seed=0,
        )
        base.update(kw)
        return trainer.TrainConfig(**base)

    seeds = [0, 1, 2]
    mean_map = {}
    for name, cfg in {
        "full": make_cfg(),
        "supervised_only": make_cfg(baseline="supervised_only"),
        "no_pseudo": make_cfg(ablations=trainer.Ablations(no_pseudo=True)),
        "no_nam": make_cfg(ablations=trainer.Ablations(no_nam=True)),
        "no_align": make_cfg(ablations=trainer.Ablations(no_align=True)),
    }.items():
        result = trainer.run_experiment([ds], spec, cfg, seeds)
        mean_map[name] = result.mean["map"]

    elapsed = time.perf_counter() - start
    assert mean_map["full"] >= mean_map["supervised_only"], mean_map
    for ablation in ("no_pseudo", "no_nam", "no_align"):
        assert mean_map[ablation] <= mean_map["full"] + 0.01, (ablation, mean_map)
    assert elapsed < 600.0
    _report(
        "end-to-end directional check (full {:.4f} >= supervised {:.4f}; ablations within +0.01)".format(
            mean_map["full"], mean_map["supervised_only"]
        ),
        elapsed,
    )


TABLE_ROWS = {
    "atrial fibrillation": "Abnormal Rhythms",
    "atrial flutter": "Abnormal Rhythms",
    "bradycardia": "Abnormal Rhythms",
    "pacing rhythm": "Abnormal Rhythms",
    "sinus arrhythmia": "Abnormal Rhythms",
    "sinus bradycardia": "Abnormal Rhythms",
    "sinus tachycardia": "Abnormal Rhythms",
    "prolonged qt interval": "ST/T Abnormalities",
    "t wave abnormal": "ST/T Abnormalities",
    "t wave inversion": "ST/T Abnormalities",
    "inferior ischaemia": "ST/T Abnormalities",
    "lateral ischaemia": "ST/T Abnormalities",
    "nonspecific st abnormality": "ST/T Abnormalities",
    "st changes": "ST/T Abnormalities",
    "st depression": "ST/T Abnormalities",
    "st elevation": "ST/T Abnormalities",
    "st interval abnormal": "ST/T Abnormalities",
    "bundle branch block": "Conduction Disturbance",
    "complete left bundle branch block": "Conduction Disturbance",
    "complete right bundle branch block": "Conduction Disturbance",
    "1st degree av block": "Conduction Disturbance",
    "incomplete right bundle branch block": "Conduction Disturbance",
    "left anterior fascicular block": "Conduction Disturbance",
    "left bundle branch block": "Conduction Disturbance",
    "non-specific intraventricular conduction disorder": "Conduction Disturbance",
    "right bundle branch block": "Conduction Disturbance",
    "av block": "Conduction Disturbance",
    "complete heart block": "Conduction Disturbance",
    "2nd degree av block": "Conduction Disturbance",
    "mobitz type ii atrioventricular block": "Conduction Disturbance",
    "incomplete left bundle branch block": "Conduction Disturbance",
    "left posterior fascicular block": "Conduction Disturbance",
    "sinoatrial block": "Conduction Disturbance",
    "wolff parkinson white pattern": "Conduction Disturbance",
    "left axis deviation": "Other Abnormalities",
    "low qrs voltages": "Other Abnormalities",
    "premature atrial contraction": "Other Abnormalities",
    "poor r wave progression": "Other Abnormalities",
    "premature ventricular contractions": "Other Abnormalities",
    "qwave abnormal": "Other Abnormalities",
    "right axis deviation": "Other Abnormalities",
    "supraventricular premature beats": "Other Abnormalities",
    "ventricular premature beats": "Other Abnormalities",
    "ventricular ectopics": "Other Abnormalities",
    "prolonged pr interval": "Other Abnormalities",
    "sinus rhythm": "Normal Signals",
}


def test_annotation_mapping_roundtrip(tmp_path, capsys):
    from ecgmatch.data import SUPERCLASSES

    am = AnnotationMap.default()
    for term, superclass in TABLE_ROWS.items():
        vec = map_annotations({term}, am)
        expected = np.array([1.0 if name == superclass else 0.0 for name in SUPERCLASSES])
        np.testing.assert_array_equal(vec, expected)

    terms_file = tmp_path / "terms.txt"
    terms_file.write_text("\n".join(TABLE_ROWS) + "\n")
    assert main(["annotate", "--terms", str(terms_file)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(out_lines) == len(TABLE_ROWS)
    for line, (term, superclass) in zip(out_lines, TABLE_ROWS.items()):
        bits = line.split("->")[1].strip().split(",")
        idx = list(SUPERCLASSES).index(superclass)
        assert bits[idx] == "1" and sum(int(b) for b in bits) == 1, term

    # normal-signal exclusivity on combined fixtures
    for other in ("st depression", "atrial fibrillation", "av block", "low qrs voltages"):
        vec = map_annotations({"sinus rhythm", other}, am)
        assert vec[list(SUPERCLASSES).index("Normal Signals")] == 0.0
        assert vec.sum() == 1.0
    _report("annotation table round-trips; normal-signal exclusivity holds")
