"""End-to-end training orchestration.

The loop follows the teacher/student recipe: pre-train the teacher on the
labeled split, freeze the labeled label-correlation matrix, initialize the
student from the teacher, then per mini-batch

    augment both batches -> supervised loss -> refresh memory banks ->
    neighbor-vote pseudo-labels -> agreement weights -> unsupervised loss ->
    unlabeled correlation matrix -> alignment loss -> total loss ->
    SGD step on the student -> EMA update of the teacher

with validation-based early stopping keeping the best student checkpoint.
Model inputs are built block by block (`_input_blocks`): the banks are
filled from that walk, so init holds one block of the pool, never the
encoded pool; step batches and evaluation collect the blocks into one
matrix (`_inputs`).
Ablation switches disable pseudo-labeling, agreement weighting, or
alignment; baselines cover supervised-only training and a fixed-confidence-
threshold variant of pseudo-label filtering.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment, correlation, metrics, nn, pseudo
from .data import SplitResult, SplitSpec, Subset, encode_subset, shapeable, split
from .errors import ConfigurationError
from .rng import RandomStream

# substream namespaces, so no two consumers share a generator path
_NS_INIT = 0
_NS_PRETRAIN = 1
_NS_BANK = 2
_NS_STEP = 3
_NS_LABELED_ORDER = 4
_NS_UNLABELED_ORDER = 5

_ROLE_LABELED = 0
_ROLE_WEAK = 1
_ROLE_STRONG = 2

BASELINES = ("ecgmatch", "supervised_only", "fixed_threshold")


@dataclass(frozen=True)
class Ablations:
    no_pseudo: bool = False
    no_nam: bool = False
    no_align: bool = False


@dataclass(frozen=True)
class TrainConfig:
    batch_labeled: int = 64
    batch_unlabeled: int = 448
    weights: nn.LossWeights = field(default_factory=nn.LossWeights)
    knn: pseudo.KnnConfig = field(default_factory=pseudo.KnnConfig)
    optimizer: nn.OptimizerConfig = field(default_factory=nn.OptimizerConfig)
    max_epochs: int = 50
    patience: int = 10
    eval_metric: str = "map"
    seed: int = 0
    ablations: Ablations = field(default_factory=Ablations)
    baseline: str = "ecgmatch"
    fixed_threshold_tau: float = 0.95
    hidden_dims: tuple = (128,)
    feature_dim: int = 128
    head_hidden: int = 128
    activation: str = "relu"
    pool_len: int = 32
    similarity: str = "cosine"
    pretrain_max_epochs: int = 200
    pretrain_patience: int = 10
    pretrain_augment: bool = True
    augment_cfg: augment.AugmentConfig = field(default_factory=augment.AugmentConfig)
    metrics: metrics.MetricsConfig = field(default_factory=metrics.MetricsConfig)

    def __post_init__(self):
        if self.batch_labeled < 1 or self.batch_unlabeled < 1:
            raise ConfigurationError("batch sizes must be positive")
        if self.baseline not in BASELINES:
            raise ConfigurationError(f"unknown baseline {self.baseline!r}")
        if self.eval_metric not in metrics.HIGHER_IS_BETTER:
            raise ConfigurationError(f"unknown early-stop metric {self.eval_metric!r}")
        if self.similarity not in correlation.SIMILARITY_KINDS:
            raise ConfigurationError(f"unknown similarity kind {self.similarity!r}")
        if self.patience < 1 or self.pretrain_patience < 1:
            raise ConfigurationError("patience and pretrain_patience must be positive")
        if self.pool_len < 1:
            raise ConfigurationError(f"pool_len must be at least 1, got {reprlib.repr(self.pool_len)}")
        if not shapeable(self.pool_len + 1):  # encode_subset's bin edges
            raise ConfigurationError(f"pool_len {reprlib.repr(self.pool_len)} is too large for numpy to shape")
        if self.max_epochs < 0 or self.pretrain_max_epochs < 0:
            raise ConfigurationError("max_epochs and pretrain_max_epochs must be nonnegative")
        if not 0.0 <= self.fixed_threshold_tau <= 1.0:
            raise ConfigurationError(f"fixed_threshold_tau must be in [0, 1], got {self.fixed_threshold_tau}")
        self.model_config()  # the network's own rules on its widths and activation

    def model_config(self, channels: int = 1, num_classes: int = 2) -> nn.ModelConfig:
        """The network for `channels`-channel signals and `num_classes` classes: encode_subset's width
        is channels * pool_len."""
        return nn.ModelConfig(channels * self.pool_len, num_classes, self.hidden_dims, self.feature_dim,
                              self.head_hidden, self.activation)

    def zeroed_by(self, weight: str) -> str | None:
        """The setting that holds loss weight `weight` ("lambda_u" or "lambda_f") at 0, or None."""
        if self.baseline == "supervised_only":
            return "baseline supervised_only"
        if weight == "lambda_u":
            return "ablations.no_pseudo" if self.ablations.no_pseudo else None
        return "ablations.no_align" if self.ablations.no_align else None

    def effective_weights(self) -> nn.LossWeights:
        """(lambda_u, lambda_f) after ablations; supervised_only trains on the labeled loss alone."""
        return nn.LossWeights(*(0.0 if self.zeroed_by(name) else getattr(self.weights, name)
                                for name in ("lambda_u", "lambda_f")))


@dataclass
class TrainState:
    model_cfg: nn.ModelConfig
    student: nn.ParameterSet
    teacher: nn.ParameterSet
    velocity: nn.ParameterSet
    banks: pseudo.MemoryBanks | None  # bank row i is unlabeled row i
    label_correlation: np.ndarray | None
    labeled: Subset  # the pools that train_step's row indices address
    unlabeled: Subset
    step: int = 0


def _input_blocks(subset: Subset, picks, cfg: TrainConfig, stream: RandomStream | None = None, strong=False):
    """(positions, model inputs) blocks of subset rows `picks`, augmented first when a stream is given.

    The row at position p of `picks` draws from stream.substream(p). Each block of
    `subset.blocks` is augmented and encoded only when asked for, so a walk that drops
    each block holds no pool augmented or encoded at once.
    """
    for positions, signals in subset.blocks(picks):
        if stream is not None:
            signals = augment.augment_batch(signals, stream, cfg.augment_cfg, strong=strong, ids=positions)
        yield positions, encode_subset(signals, cfg.pool_len)


def _inputs(subset: Subset, picks, cfg: TrainConfig, stream: RandomStream | None = None, strong=False):
    """The `_input_blocks` of subset rows `picks` as one matrix, row i for `picks[i]`."""
    out = np.empty((len(picks), subset.channels * cfg.pool_len))
    for positions, inputs in _input_blocks(subset, picks, cfg, stream, strong):
        out[positions] = inputs
    return out


def evaluate_model(model_cfg: nn.ModelConfig, params: nn.ParameterSet, subset: Subset,
                   cfg: TrainConfig) -> metrics.MetricsReport:
    """Score a subset under cfg.metrics with clean inputs, encoded once per subset and pool_len."""
    if subset.encoded is None or subset.encoded[0] != cfg.pool_len:
        subset.encoded = (cfg.pool_len, _inputs(subset, np.arange(len(subset)), cfg))
    _, probs = nn.forward(model_cfg, params, subset.encoded[1])
    return metrics.compute_all(probs, subset.labels, cfg.metrics.threshold, cfg.metrics.gbeta_beta)


def _batches(n: int, batch: int, stream: RandomStream, iters: int | None = None) -> list:
    """One epoch's row batches of a pool of `n`, each of min(batch, n) rows: `iters` (default
    n // batch) slices of one permutation drawn from `stream`, or `iters` draws with replacement
    when the pool is too small."""
    g = stream.generator()
    batch = min(batch, n)
    iters = n // batch if iters is None else iters
    if n >= batch * iters:
        order = g.permutation(n)
        return [order[i * batch : (i + 1) * batch] for i in range(iters)]
    return [g.integers(0, n, size=batch) for _ in range(iters)]


def _fit(model_cfg: nn.ModelConfig, params: nn.ParameterSet, val: Subset, cfg: TrainConfig,
         epochs, patience: int, run_epoch, history=None) -> nn.ParameterSet:
    """The best of the params that `run_epoch(epoch)` returns for each of `epochs`, by
    cfg.eval_metric on `val`; `params` when `epochs` is empty.

    Stops after `patience` epochs in a row without improvement. The first score, a better
    score, or any non-NaN score after a NaN best (the metric was undefined) is an
    improvement. Each score is also written as "val_metric" on the last row of `history`.
    """
    higher = metrics.HIGHER_IS_BETTER[cfg.eval_metric]
    best, best_score, stale = params.copy(), None, 0
    for epoch in epochs:
        params = run_epoch(epoch)
        score = evaluate_model(model_cfg, params, val, cfg).value(cfg.eval_metric)
        if history is not None:
            history[-1]["val_metric"] = score
        if best_score is None or (np.isnan(best_score) and not np.isnan(score)) or (
                score > best_score if higher else score < best_score):
            best, best_score, stale = params.copy(), score, 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best


def pretrain_teacher(labeled: Subset, val: Subset, cfg: TrainConfig) -> nn.ParameterSet:
    """Supervised training of the teacher with early stopping on the validation metric."""
    if labeled.labels.sum() == 0:
        raise ConfigurationError("no positive labels in any class; nothing to pre-train on")
    model_cfg = cfg.model_config(labeled.channels, labeled.labels.shape[1])
    stream = RandomStream(cfg.seed)
    params = nn.init_params(model_cfg, stream.substream(_NS_INIT))
    velocity = params.zeros_like()

    def run_epoch(epoch):
        nonlocal params, velocity
        batches = _batches(len(labeled), cfg.batch_labeled, stream.substream(_NS_PRETRAIN, epoch))
        for it, idx in enumerate(batches):
            sub = stream.substream(_NS_PRETRAIN, epoch, it, _ROLE_LABELED) if cfg.pretrain_augment else None
            batch = nn.StepBatch(labeled_inputs=_inputs(labeled, idx, cfg, sub), labels=labeled.labels[idx])
            _, grads = nn.backward(model_cfg, params, batch, nn.LossWeights(0.0, 0.0))
            lr = nn.lr_at(epoch * len(batches) + it, cfg.optimizer)
            params, velocity = nn.sgd_step(params, grads, velocity, lr, cfg.optimizer.momentum)
        return params

    return _fit(model_cfg, params, val, cfg, range(cfg.pretrain_max_epochs), cfg.pretrain_patience, run_epoch)


def init_train_state(labeled: Subset, unlabeled: Subset, cfg: TrainConfig,
                     teacher: nn.ParameterSet) -> TrainState:
    """Set up the student, banks and the frozen labeled correlation matrix."""
    model_cfg = cfg.model_config(labeled.channels, labeled.labels.shape[1])
    weights = cfg.effective_weights()
    banks = None
    if weights.lambda_u > 0.0:
        blocks = _input_blocks(unlabeled, np.arange(len(unlabeled)), cfg, RandomStream(cfg.seed).substream(_NS_BANK))
        banks = pseudo.bank_init(model_cfg, teacher, len(unlabeled), blocks, cfg.knn.distance)
    label_corr = None
    if weights.lambda_f > 0.0:
        label_corr = correlation.correlation_matrix(labeled.labels, cfg.similarity)
    return TrainState(
        model_cfg=model_cfg,
        student=teacher.copy(),
        teacher=teacher.copy(),
        velocity=teacher.zeros_like(),
        banks=banks,
        label_correlation=label_corr,
        labeled=labeled,
        unlabeled=unlabeled,
    )


def train_step(state: TrainState, labeled_rows, unlabeled_rows, cfg: TrainConfig) -> nn.LossBreakdown:
    """One optimization step on rows of `state.labeled` and `state.unlabeled`; mutates `state`
    (student, teacher, banks, counters). The unlabeled rows are used only when a loss weight needs them.

    The fixed_threshold baseline replaces the agreement weights with 1 where
    max(pseudo, 1-pseudo) >= cfg.fixed_threshold_tau, else 0.
    """
    weights = cfg.effective_weights()
    stream = RandomStream(cfg.seed).substream(_NS_STEP, state.step)
    lab_inputs = _inputs(state.labeled, labeled_rows, cfg, stream.substream(_ROLE_LABELED))
    batch = nn.StepBatch(labeled_inputs=lab_inputs, labels=state.labeled.labels[labeled_rows],
                         similarity=cfg.similarity)

    if weights.lambda_u > 0.0 or weights.lambda_f > 0.0:
        weak_inputs = _inputs(state.unlabeled, unlabeled_rows, cfg, stream.substream(_ROLE_WEAK))
        strong_inputs = _inputs(state.unlabeled, unlabeled_rows, cfg, stream.substream(_ROLE_STRONG), strong=True)
        batch.strong_inputs = strong_inputs
        if weights.lambda_f > 0.0:
            batch.weak_inputs = weak_inputs
            batch.correlation_target = state.label_correlation
        if weights.lambda_u > 0.0:
            pseudo.bank_update(state.banks, unlabeled_rows, state.model_cfg, state.teacher, weak_inputs)
            query_features, _ = nn.forward(state.model_cfg, state.student, weak_inputs)
            targets, alpha = pseudo.generate_pseudo_labels(state.banks, query_features, cfg.knn,
                                                           self_indices=unlabeled_rows)
            if cfg.baseline == "fixed_threshold":
                alpha = (np.maximum(targets, 1.0 - targets) >= cfg.fixed_threshold_tau).astype(float)
            elif cfg.ablations.no_nam:
                alpha = np.ones_like(targets)
            batch.pseudo_targets = targets
            batch.pseudo_weights = alpha

    breakdown, grads = nn.backward(state.model_cfg, state.student, batch, weights)
    lr = nn.lr_at(state.step, cfg.optimizer)
    state.student, state.velocity = nn.sgd_step(
        state.student, grads, state.velocity, lr, cfg.optimizer.momentum
    )
    state.teacher = nn.ema_update(state.teacher, state.student, cfg.optimizer.ema_momentum)
    state.step += 1
    return breakdown


def ssl_train(splits: SplitResult, cfg: TrainConfig, teacher: nn.ParameterSet):
    """Semi-supervised training loop; returns (best student, state, history rows).

    Epoch 0 scores the teacher's copy before any step; epochs 1..max_epochs train.
    """
    state = init_train_state(splits.labeled, splits.unlabeled, cfg, teacher)
    stream = RandomStream(cfg.seed)
    n_lab, n_unlab = len(splits.labeled), len(splits.unlabeled)
    history = [{"step": 0, "epoch": 0, "lb": "", "lu": "", "lf": "", "lr": "", "val_metric": ""}]

    def run_epoch(epoch):
        if epoch == 0:
            return state.student
        labeled_rows = _batches(n_lab, cfg.batch_labeled, stream.substream(_NS_LABELED_ORDER, epoch))
        unlabeled_rows = _batches(n_unlab, cfg.batch_unlabeled, stream.substream(_NS_UNLABELED_ORDER, epoch),
                                  len(labeled_rows))
        for lab, unlab in zip(labeled_rows, unlabeled_rows):
            last = train_step(state, lab, unlab, cfg)
            history.append({"step": state.step, "epoch": epoch,
                            "lb": last.supervised, "lu": last.unsupervised,
                            "lf": last.alignment, "lr": nn.lr_at(state.step - 1, cfg.optimizer),
                            "val_metric": ""})
        return state.student

    best = _fit(state.model_cfg, state.student, splits.val, cfg, range(cfg.max_epochs + 1), cfg.patience,
                run_epoch, history)
    return best, state, history


@dataclass
class SeedResult:
    seed: int
    report: metrics.MetricsReport
    history: list
    final_params: nn.ParameterSet


@dataclass
class ExperimentResult:
    per_seed: list  # of SeedResult
    mean: dict
    std: dict


def run_experiment(datasets, split_spec: SplitSpec, cfg: TrainConfig, seeds) -> ExperimentResult:
    """Full pipeline per seed: split, pre-train, SSL train, evaluate on test.

    Each seed reseeds both the split and the training run, so the whole
    experiment is a pure function of (datasets, spec, cfg, seeds). A negative
    seed raises ConfigurationError before any work.
    """
    seeds = [int(seed) for seed in seeds]
    for seed in seeds:
        if seed < 0:
            raise ConfigurationError(f"seeds must be nonnegative, got seed {seed}")
    per_seed = []
    for seed in seeds:
        spec_s = replace(split_spec, seed=seed)
        cfg_s = replace(cfg, seed=seed)
        splits = split(datasets, spec_s)
        needed = [name for name in ("lambda_u", "lambda_f") if getattr(cfg_s.effective_weights(), name) > 0.0]
        if needed and not len(splits.unlabeled):
            raise ConfigurationError(f"the {split_spec.protocol} split leaves the unlabeled set empty, but the "
                                     f"unlabeled loss terms need it ({', '.join(needed)} > 0); lower "
                                     "split.labeled_frac or set those weights to 0")
        teacher = pretrain_teacher(splits.labeled, splits.val, cfg_s)
        if cfg_s.baseline == "supervised_only":
            final, history = teacher, []
        else:
            final, _, history = ssl_train(splits, cfg_s, teacher)
        model_cfg = cfg_s.model_config(splits.labeled.channels, splits.labeled.labels.shape[1])
        report = evaluate_model(model_cfg, final, splits.test, cfg_s)
        per_seed.append(SeedResult(seed, report, history, final))
    return ExperimentResult(per_seed, *metrics.seed_mean_std([r.report for r in per_seed]))
