"""Experiment configuration: a strict JSON document.

Every section rejects unknown keys so a typo in a hyperparameter name fails
loudly instead of silently running defaults. See README for the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import augment, nn, pseudo, trainer
from .data import SplitSpec, SynthConfig
from .errors import ConfigurationError


def _take(doc: dict, where: str):
    """Pop-based accessor factory; leftover keys are rejected by _done."""
    def take(key, default=None):
        return doc.pop(key, default)
    def done():
        if doc:
            raise ConfigurationError(f"unknown keys in {where}: {sorted(doc)}")
    return take, done


@dataclass
class DataSource:
    synth: SynthConfig | None = None
    paths: list = field(default_factory=list)
    format: str = "csv"


@dataclass
class ExperimentConfig:
    output_dir: str
    seeds: list
    data: DataSource
    split: SplitSpec
    train: trainer.TrainConfig
    metric_threshold: float = 0.5
    gbeta_beta: float = 2.0
    model_name: str = "ecgmatch"
    grid_axis: str = "lambda_f"
    grid_values: tuple = (0.0, 0.4, 0.8, 1.2, 1.6)
    grid_fixed: float = 0.8


def _parse_augment(doc) -> augment.AugmentConfig:
    take, done = _take(dict(doc), "augment")
    cfg = augment.AugmentConfig(
        dropout_max_frac=float(take("dropout_max_frac", 0.5)),
        noise_sigma=float(take("noise_sigma", 0.1)),
        strong_max_transforms=int(take("strong_max_transforms", 4)),
        dropout_all_channels=bool(take("dropout_all_channels", True)),
    )
    done()
    return cfg


def _parse_optimizer(doc) -> nn.OptimizerConfig:
    take, done = _take(dict(doc), "train.optimizer")
    cfg = nn.OptimizerConfig(
        lr0=float(take("lr0", 3e-2)),
        momentum=float(take("momentum", 0.9)),
        gamma=float(take("gamma", 10.0)),
        power=float(take("power", 0.75)),
        max_steps=int(take("max_steps", 5000)),
        ema_momentum=float(take("ema_momentum", 0.999)),
        increasing_schedule=bool(take("increasing_schedule", False)),
    )
    done()
    return cfg


def _parse_knn(doc) -> pseudo.KnnConfig:
    take, done = _take(dict(doc), "train.knn")
    cfg = pseudo.KnnConfig(
        k=int(take("k", 10)),
        distance=str(take("distance", "cosine")),
        exclude_self=bool(take("exclude_self", False)),
    )
    done()
    return cfg


def _parse_train(doc, similarity: str, aug_cfg: augment.AugmentConfig) -> trainer.TrainConfig:
    take, done = _take(dict(doc), "train")
    ab = dict(take("ablations", {}))
    ab_take, ab_done = _take(ab, "train.ablations")
    ablations = trainer.Ablations(
        no_pseudo=bool(ab_take("no_pseudo", False)),
        no_nam=bool(ab_take("no_nam", False)),
        no_align=bool(ab_take("no_align", False)),
    )
    ab_done()
    cfg = trainer.TrainConfig(
        batch_labeled=int(take("batch_labeled", 64)),
        batch_unlabeled=int(take("batch_unlabeled", 448)),
        weights=nn.LossWeights(float(take("lambda_u", 0.8)), float(take("lambda_f", 0.8))),
        knn=_parse_knn(take("knn", {})),
        optimizer=_parse_optimizer(take("optimizer", {})),
        max_epochs=int(take("max_epochs", 50)),
        patience=int(take("patience", 10)),
        eval_metric=str(take("eval_metric", "map")),
        seed=int(take("seed", 0)),
        ablations=ablations,
        baseline=str(take("baseline", "ecgmatch")),
        fixed_threshold_tau=float(take("fixed_threshold_tau", 0.95)),
        hidden_dims=tuple(int(h) for h in take("hidden_dims", [128])),
        feature_dim=int(take("feature_dim", 128)),
        head_hidden=int(take("head_hidden", 128)),
        activation=str(take("activation", "relu")),
        pool_len=int(take("pool_len", 32)),
        similarity=similarity,
        pretrain_max_epochs=int(take("pretrain_max_epochs", 200)),
        pretrain_patience=int(take("pretrain_patience", 10)),
        pretrain_augment=bool(take("pretrain_augment", True)),
        augment_cfg=aug_cfg,
    )
    done()
    return cfg


def _parse_split(doc) -> SplitSpec:
    take, done = _take(dict(doc), "split")
    spec = SplitSpec(
        protocol=str(take("protocol", "within")),
        train_frac=float(take("train_frac", 0.8)),
        val_frac=float(take("val_frac", 0.1)),
        test_frac=float(take("test_frac", 0.1)),
        labeled_frac=float(take("labeled_frac", 0.05)),
        seed=int(take("seed", 0)),
        held_out_dataset=take("held_out_dataset", None),
    )
    done()
    return spec


def _parse_synth(doc) -> SynthConfig:
    take, done = _take(dict(doc), "data.synth")
    corr = take("target_correlation", None)
    cfg = SynthConfig(
        n_samples=int(take("n_samples", 2000)),
        num_classes=int(take("num_classes", 5)),
        target_marginals=tuple(float(m) for m in take("target_marginals", (0.35, 0.3, 0.25, 0.3, 0.2))),
        target_correlation=None if corr is None else np.asarray(corr, dtype=float),
        signal_length=int(take("signal_length", 256)),
        channels=int(take("channels", 3)),
        noise_level=float(take("noise_level", 0.25)),
        seed=int(take("seed", 0)),
        dataset_id=str(take("dataset_id", "synthetic")),
    )
    done()
    return cfg


def _parse_data(doc) -> DataSource:
    take, done = _take(dict(doc), "data")
    synth_doc = take("synth", None)
    paths = take("paths", [])
    fmt = str(take("format", "csv"))
    done()
    if (synth_doc is None) == (not paths):
        raise ConfigurationError("data section needs exactly one of 'synth' or 'paths'")
    if fmt not in ("csv", "raw_f32"):
        raise ConfigurationError(f"unknown data format {fmt!r}")
    return DataSource(
        synth=None if synth_doc is None else _parse_synth(synth_doc),
        paths=[str(p) for p in paths],
        format=fmt,
    )


def _parse_seeds(value) -> list:
    try:
        seeds = [int(s) for s in value] if isinstance(value, (list, tuple)) else []
    except (TypeError, ValueError):
        seeds = []
    if not seeds:
        raise ConfigurationError(f"seeds must be a nonempty list of integers, got {value!r}")
    return seeds


def _parse_metrics(doc):
    take, done = _take(dict(doc), "metrics")
    threshold = float(take("threshold", 0.5))
    beta = float(take("gbeta_beta", 2.0))
    done()
    return threshold, beta


def _parse_grid(doc):
    take, done = _take(dict(doc), "grid")
    axis = str(take("axis", "lambda_f"))
    values = tuple(float(v) for v in take("values", (0.0, 0.4, 0.8, 1.2, 1.6)))
    fixed = float(take("fixed", 0.8))
    done()
    if axis not in ("lambda_u", "lambda_f", "cartesian"):
        raise ConfigurationError(f"grid axis must be lambda_u, lambda_f or cartesian, got {axis!r}")
    return axis, values, fixed


def _section(where: str, parse, *args):
    """Run one section parser; a wrongly typed value's TypeError/ValueError becomes a ConfigurationError."""
    try:
        return parse(*args)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid value in {where}: {exc}") from None


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    take, done = _take(dict(doc), "config root")
    output_dir = str(take("output_dir", "runs"))
    seeds = _parse_seeds(take("seeds", [0, 1, 2]))
    data = _section("data", _parse_data, take("data", {}))
    split = _section("split", _parse_split, take("split", {}))
    similarity = str(take("similarity", "cosine"))
    aug_cfg = _section("augment", _parse_augment, take("augment", {}))
    train = _section("train", _parse_train, take("train", {}), similarity, aug_cfg)
    threshold, beta = _section("metrics", _parse_metrics, take("metrics", {}))
    grid_axis, grid_values, grid_fixed = _section("grid", _parse_grid, take("grid", {}))
    model_name = str(take("model_name", train.baseline))
    done()
    return ExperimentConfig(
        output_dir=output_dir, seeds=seeds, data=data, split=split, train=train,
        metric_threshold=threshold, gbeta_beta=beta, model_name=model_name,
        grid_axis=grid_axis, grid_values=grid_values, grid_fixed=grid_fixed,
    )


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return parse_experiment_config(doc)
