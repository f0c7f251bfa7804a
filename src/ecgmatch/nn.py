"""Minimal dense network for multi-label scoring, with hand-rolled gradients.

The model is a feedforward feature extractor followed by a two-layer
classifier head ending in an elementwise sigmoid:

    extractor: input -> hidden_dims... -> feature_dim   (linear output layer)
    head:      feature_dim -> head_hidden -> num_classes -> sigmoid

Everything runs in float64 numpy. The composite training objective

    L = L_b + lambda_u * L_u + lambda_f * L_f

combines a supervised binary cross-entropy, an importance-weighted
unsupervised binary cross-entropy against soft pseudo-targets, and a
Frobenius alignment penalty between label correlation matrices; `backward`
returns its analytic gradient, which is validated against central finite
differences in the test suite.

A forward pass records one array per layer: its input (the batch, then each
layer's output, activated or linear). The head's pre-sigmoid output is not
kept. Backpropagation reads each activation's derivative off that layer's
recorded output, and `_activated` is the one rule for which layers stay
linear (the feature layer and the head output).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import correlation
from .errors import ConfigurationError, ContractViolation, NumericError
from .rng import as_generator

EPS = 1e-7  # probability clamp applied before every log
_OPEN_UNIT = 1e-12  # keeps sigmoid outputs inside the open interval


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = ()
    feature_dim: int = 128
    head_hidden: int = 128
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1 or self.feature_dim < 1 or self.head_hidden < 1:
            raise ConfigurationError("layer widths must be positive")
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.activation not in ("relu", "tanh"):
            raise ConfigurationError(f"activation must be relu or tanh, got {self.activation!r}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims entries must be positive")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    @property
    def n_extractor_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.feature_dim, self.head_hidden, self.num_classes]
        return list(zip(dims[:-1], dims[1:]))


class ParameterSet:
    """Ordered (weight, bias) pairs for extractor layers then head layers."""

    def __init__(self, layers):
        self.layers = [(np.asarray(w, dtype=float), np.asarray(b, dtype=float)) for w, b in layers]
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ConfigurationError(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")

    def __len__(self):
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def copy(self) -> "ParameterSet":
        return ParameterSet([(w.copy(), b.copy()) for w, b in self.layers])

    def zeros_like(self) -> "ParameterSet":
        return ParameterSet([(np.zeros_like(w), np.zeros_like(b)) for w, b in self.layers])

    def shapes(self):
        return [(w.shape, b.shape) for w, b in self.layers]


def init_params(cfg: ModelConfig, rng) -> ParameterSet:
    """Glorot-normal weights, zero biases."""
    g = as_generator(rng)
    layers = []
    for fan_in, fan_out in cfg.layer_sizes():
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        layers.append((scale * g.standard_normal((fan_in, fan_out)), np.zeros(fan_out)))
    return ParameterSet(layers)


def _act(cfg: ModelConfig, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if cfg.activation == "tanh" else np.maximum(z, 0.0)


def _act_prime(cfg: ModelConfig, a: np.ndarray) -> np.ndarray:
    """The activation's derivative, read off its output a: relu's a > 0 is z > 0, tanh's 1 - a^2."""
    return 1.0 - a * a if cfg.activation == "tanh" else (a > 0.0).astype(float)


def _activated(cfg: ModelConfig, idx: int) -> bool:
    """Whether layer idx passes the activation: the feature layer and the head output stay linear."""
    return idx not in (cfg.n_extractor_layers - 1, cfg.n_extractor_layers + 1)


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each row with the bits it has in any product of two or more rows.

    A one-row product runs as a BLAS matrix-vector product, whose last bits
    differ; so a lone row runs as two copies of itself, and the first is kept.
    """
    return (np.repeat(a, 2, axis=0) @ b)[:1] if len(a) == 1 else a @ b


def _forward_cache(cfg: ModelConfig, params: ParameterSet, batch: np.ndarray):
    """(probs, inputs): inputs[i] is layer i's input, so inputs[n_extractor_layers] the features."""
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError(f"batch must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("batch contains non-finite values")
    expected = cfg.layer_sizes()
    if len(params) != len(expected):
        raise ConfigurationError(f"expected {len(expected)} layers, got {len(params)}")
    for i, ((w, _), (fi, fo)) in enumerate(zip(params, expected)):
        if w.shape != (fi, fo):
            raise ConfigurationError(f"layer {i}: weight shape {w.shape} != ({fi}, {fo})")
    if x.shape[1] != cfg.input_dim:
        raise ConfigurationError(f"batch width {x.shape[1]} != input_dim {cfg.input_dim}")

    inputs, a = [], x
    for idx, (w, b) in enumerate(params):
        inputs.append(a)
        a = matmul_rows(a, w) + b
        if _activated(cfg, idx):
            a = _act(cfg, a)
    # libm's exp, as scipy.special.expit calls it, so probabilities keep its
    # bits (np.exp rounds differently); beyond +-40 the clip below decides.
    neg = -np.clip(a, -40.0, 40.0)
    e = np.fromiter(map(math.exp, neg.ravel().tolist()), dtype=float, count=neg.size).reshape(neg.shape)
    return np.clip(1.0 / (1.0 + e), _OPEN_UNIT, 1.0 - _OPEN_UNIT), inputs


def forward(cfg: ModelConfig, params: ParameterSet, batch: np.ndarray):
    """Run the network; returns (features n*d, probs n*C)."""
    probs, inputs = _forward_cache(cfg, params, batch)
    return inputs[cfg.n_extractor_layers], probs


def _backprop(cfg: ModelConfig, params: ParameterSet, inputs, d_z_out: np.ndarray, grads: ParameterSet):
    """Accumulate into `grads` the gradient flowing back from the output preactivation."""
    d = d_z_out
    for idx in range(len(params) - 1, -1, -1):
        gw, gb = grads.layers[idx]
        gw += inputs[idx].T @ d
        gb += d.sum(axis=0)
        if idx == 0:
            break
        d = d @ params.layers[idx][0].T
        if _activated(cfg, idx - 1):
            d = d * _act_prime(cfg, inputs[idx])


def bce(probs: np.ndarray, targets: np.ndarray, alpha: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy over all (sample, class) cells against (soft) targets,
    each cell weighted by its alpha in [0, 1] when alpha is given."""
    p = np.asarray(probs, dtype=float)
    t = np.asarray(targets, dtype=float)
    a = np.ones_like(p) if alpha is None else np.asarray(alpha, dtype=float)
    if np.any(np.isnan(p)) or np.any(np.isnan(t)) or np.any(np.isnan(a)):
        raise NumericError("NaN input to binary cross-entropy")
    if not (p.shape == t.shape == a.shape):
        raise ConfigurationError(f"probs {p.shape}, targets {t.shape} and alpha {a.shape} must share a shape")
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ContractViolation("alpha entries must lie in [0, 1]")
    pc = np.clip(p, EPS, 1.0 - EPS)
    return float(np.mean(a * -((1.0 - t) * np.log(1.0 - pc) + t * np.log(pc))))


def total_loss(lb: float, lu: float, lf: float, w: "LossWeights") -> float:
    return lb + w.lambda_u * lu + w.lambda_f * lf


@dataclass(frozen=True)
class LossWeights:
    lambda_u: float = 0.8
    lambda_f: float = 0.8

    def __post_init__(self):
        if not (np.isfinite(self.lambda_u) and np.isfinite(self.lambda_f)):
            raise ConfigurationError("loss weights must be finite")
        if self.lambda_u < 0 or self.lambda_f < 0:
            raise ConfigurationError("loss weights must be nonnegative")


@dataclass
class StepBatch:
    """Inputs for one composite forward/backward pass.

    Any part may be omitted: the supervised term needs (labeled_inputs,
    labels); the unsupervised term needs (strong_inputs, pseudo_targets,
    pseudo_weights); the alignment term needs correlation_target plus
    whichever of strong/weak inputs are present (their predictions are
    stacked row-wise before the correlation matrix is formed).
    """

    labeled_inputs: np.ndarray | None = None
    labels: np.ndarray | None = None
    strong_inputs: np.ndarray | None = None
    pseudo_targets: np.ndarray | None = None
    pseudo_weights: np.ndarray | None = None
    weak_inputs: np.ndarray | None = None
    correlation_target: np.ndarray | None = None
    similarity: str = "cosine"


@dataclass
class LossBreakdown:
    supervised: float = 0.0
    unsupervised: float = 0.0
    alignment: float = 0.0
    total: float = 0.0


def _bce_dz(probs, targets, alpha, n_cells):
    """Gradient of the (optionally weighted) clamped BCE w.r.t. the output preactivation."""
    pc = np.clip(probs, EPS, 1.0 - EPS)
    d_p = (pc - targets) / (pc * (1.0 - pc)) / n_cells
    if alpha is not None:
        d_p = alpha * d_p
    d_p = np.where((probs > EPS) & (probs < 1.0 - EPS), d_p, 0.0)
    return d_p * probs * (1.0 - probs)


def backward(cfg: ModelConfig, params: ParameterSet, batch: StepBatch, weights: LossWeights):
    """Composite loss value and its analytic gradient.

    Returns (LossBreakdown, ParameterSet-shaped gradients). Pseudo-targets
    and their weights are treated as constants; the alignment term sends
    gradient through both the strong and weak unlabeled predictions.
    """
    grads = params.zeros_like()
    out = LossBreakdown()

    if batch.labeled_inputs is not None:
        if batch.labels is None:
            raise ConfigurationError("labeled inputs supplied without labels")
        p_b, inputs_b = _forward_cache(cfg, params, batch.labeled_inputs)
        y = np.asarray(batch.labels, dtype=float)
        out.supervised = bce(p_b, y)
        _backprop(cfg, params, inputs_b, _bce_dz(p_b, y, None, p_b.size), grads)

    # (probs, inputs) of each unlabeled view given, in stacking order: strong, then weak
    views = [_forward_cache(cfg, params, x) for x in (batch.strong_inputs, batch.weak_inputs) if x is not None]

    if batch.pseudo_targets is not None:
        if batch.strong_inputs is None:
            raise ConfigurationError("pseudo targets supplied without strong inputs")
        if batch.pseudo_weights is None:
            raise ConfigurationError("pseudo targets supplied without pseudo weights")
        p_strong, inputs_s = views[0]
        t = np.asarray(batch.pseudo_targets, dtype=float)
        a = np.asarray(batch.pseudo_weights, dtype=float)
        out.unsupervised = bce(p_strong, t, a)
        if weights.lambda_u != 0.0:
            d_z = weights.lambda_u * _bce_dz(p_strong, t, a, p_strong.size)
            _backprop(cfg, params, inputs_s, d_z, grads)

    if batch.correlation_target is not None:
        if not views:
            raise ConfigurationError("alignment target supplied without unlabeled inputs")
        stacked = np.vstack([p for p, _ in views])
        r_u = correlation.correlation_matrix(stacked, batch.similarity)
        target = np.asarray(batch.correlation_target, dtype=float)
        if target.shape != r_u.shape:
            raise ContractViolation(f"correlation target shape {target.shape} != {r_u.shape}")
        diff = target - r_u
        out.alignment = float(np.sqrt(np.sum(diff * diff)))
        if weights.lambda_f != 0.0 and out.alignment > 0.0:
            d_r = (r_u - target) / out.alignment  # d||T - R||_F / dR
            d_stacked = weights.lambda_f * correlation.correlation_matrix_backward(
                stacked, batch.similarity, d_r
            )
            for (p, inputs), d_p in zip(views, np.split(d_stacked, [len(views[0][0])])):
                _backprop(cfg, params, inputs, d_p * p * (1.0 - p), grads)

    out.total = total_loss(out.supervised, out.unsupervised, out.alignment, weights)

    for i, (gw, gb) in enumerate(grads):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericError(f"non-finite gradient in layer {i}")
    return out, grads


def sgd_step(params: ParameterSet, grads: ParameterSet, velocity: ParameterSet,
             lr: float, momentum: float):
    """Momentum SGD: v <- momentum*v + g; theta <- theta - lr*v. Returns new (params, velocity)."""
    new_v, new_p = [], []
    for (w, b), (gw, gb), (vw, vb) in zip(params, grads, velocity):
        nvw = momentum * vw + gw
        nvb = momentum * vb + gb
        new_v.append((nvw, nvb))
        new_p.append((w - lr * nvw, b - lr * nvb))
    return ParameterSet(new_p), ParameterSet(new_v)


def ema_update(teacher: ParameterSet, student: ParameterSet, m: float) -> ParameterSet:
    """Elementwise convex combination m*teacher + (1-m)*student."""
    if not 0.0 <= m <= 1.0:
        raise ConfigurationError(f"ema momentum must be in [0, 1], got {m}")
    if teacher.shapes() != student.shapes():
        raise ConfigurationError("teacher/student shape mismatch")
    return ParameterSet(
        [(m * tw + (1.0 - m) * sw, m * tb + (1.0 - m) * sb)
         for (tw, tb), (sw, sb) in zip(teacher, student)]
    )


@dataclass(frozen=True)
class OptimizerConfig:
    lr0: float = 3e-2
    momentum: float = 0.9
    gamma: float = 10.0
    power: float = 0.75
    max_steps: int = 5000
    ema_momentum: float = 0.999

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigurationError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.gamma <= 0 or self.power <= 0 or self.max_steps < 1:
            raise ConfigurationError("gamma, power and max_steps must be positive")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ConfigurationError("ema_momentum must be in [0, 1]")


def lr_at(step: int, cfg: OptimizerConfig) -> float:
    """Annealed learning rate lr0 * (1 + gamma*step/max_steps)^(-power)."""
    base = 1.0 + cfg.gamma * step / cfg.max_steps
    return cfg.lr0 * base**-cfg.power


# --- flat binary checkpoints -------------------------------------------------
#
# Layout: int64 LE matrix count, then (rows, cols) as int64 LE per matrix,
# then each matrix's float64 LE payload in row-major order. A ParameterSet
# is stored as alternating weight and bias matrices (biases as 1 x n rows).

_HDR = struct.Struct("<q")
_SHAPE = struct.Struct("<qq")


def save_params(path, params: ParameterSet) -> None:
    mats = [np.asarray(m, dtype="<f8") for w, b in params for m in (w, b.reshape(1, -1))]
    with open(path, "wb") as fh:
        fh.write(_HDR.pack(len(mats)))
        for m in mats:
            fh.write(_SHAPE.pack(*m.shape))
        for m in mats:
            fh.write(m.tobytes())  # row-major whatever the memory layout


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        raw = fh.read(_HDR.size)
        if len(raw) < _HDR.size:
            raise ConfigurationError(f"{path}: truncated checkpoint header")
        (count,) = _HDR.unpack(raw)
        if count < 0:
            raise ConfigurationError(f"{path}: negative matrix count {count}")
        if count % 2 != 0:
            raise ConfigurationError(f"{path}: expected alternating weight/bias matrices")
        shapes = []
        for i in range(count):
            raw = fh.read(_SHAPE.size)
            if len(raw) < _SHAPE.size:
                raise ConfigurationError(f"{path}: truncated shape table at matrix {i}")
            rows, cols = _SHAPE.unpack(raw)
            if rows < 0 or cols < 0:
                raise ConfigurationError(f"{path}: negative shape ({rows}, {cols}) for matrix {i}")
            shapes.append((rows, cols))
        mats = []
        size = os.fstat(fh.fileno()).st_size  # a payload larger than the file is truncated
        for rows, cols in shapes:
            n = rows * cols
            buf = fh.read(8 * n) if 8 * n <= size else b""
            if len(buf) != 8 * n:
                raise ConfigurationError(f"{path}: truncated checkpoint payload")
            try:  # an empty payload bounds neither side of a 0 x 2^62 shape
                mats.append(np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy())
            except ValueError:
                raise ConfigurationError(f"{path}: shape ({rows}, {cols}) too large to shape") from None
    return ParameterSet([(mats[i], mats[i + 1].reshape(-1)) for i in range(0, count, 2)])
