"""Weak/strong augmentation pipelines for multi-channel physiological signals.

A signal is a (channels, length) float array. Four elementary transforms are
provided:

  1. signal_dropout          zero a random contiguous time window
  2. temporal_flip           reverse the time axis
  3. channel_reorganization  shuffle the channel (row) order
  4. random_noise            add i.i.d. Gaussian noise

The weak pipeline applies exactly one transform chosen uniformly; the strong
pipeline draws a queue of 1..4 distinct transforms and applies them in queue
order. Each signal's randomness flows through one generator, so results are
bit-reproducible given (input, seed, config).

`augment_batch` gives sample i the generator of substream(i). It makes
every draw of a sample first, row by row in queue order (the transform id
or queue, then per transform the dropout window and channel, the
permutation, the noise matrix), then applies each queue position to the
stacked rows of one signal shape as one block operation per transform id.
Every reduction runs along the time axis of one row, so a row comes out bit
for bit as if it were augmented alone. The per-sample functions are
one-row views of the same code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import RandomStream, as_generator

# A signal matrix is a 2-D float array, shape (channels, length).
SignalMatrix = np.ndarray

SIGNAL_DROPOUT = 1
TEMPORAL_FLIP = 2
CHANNEL_REORGANIZATION = 3
RANDOM_NOISE = 4
TRANSFORM_IDS = (SIGNAL_DROPOUT, TEMPORAL_FLIP, CHANNEL_REORGANIZATION, RANDOM_NOISE)


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for the elementary transforms.

    dropout_max_frac: cap on the dropout window as a fraction of the signal
        length (the window length is drawn uniformly from 1..floor(frac*L),
        never below one sample).
    noise_sigma: noise standard deviation relative to each channel's own
        standard deviation (constant channels receive no noise).
    strong_max_transforms: upper bound on the strong-pipeline queue length.
    dropout_all_channels: zero the window on every channel (default) or on a
        single random channel.
    """

    dropout_max_frac: float = 0.5
    noise_sigma: float = 0.1
    strong_max_transforms: int = 4
    dropout_all_channels: bool = True

    def __post_init__(self):
        if not 0.0 < self.dropout_max_frac <= 1.0:
            raise ConfigurationError(f"dropout_max_frac must be in (0, 1], got {self.dropout_max_frac}")
        if self.noise_sigma <= 0.0:
            raise ConfigurationError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if not 1 <= self.strong_max_transforms <= 4:
            raise ConfigurationError(
                f"strong_max_transforms must be in [1, 4], got {self.strong_max_transforms}"
            )


def _check_shape(x: SignalMatrix) -> SignalMatrix:
    """The float (channels, length) matrix; finiteness is checked per block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"signal must be a (channels, length) matrix, got shape {x.shape}")
    return x


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")


# --- draws: one row at a time, in queue order ----------------------------------

def _weak_queue(g: np.random.Generator, cfg: AugmentConfig) -> tuple:
    return (TRANSFORM_IDS[int(g.integers(0, 4))],)


def _strong_queue(g: np.random.Generator, cfg: AugmentConfig) -> tuple:
    """T ~ U{1..strong_max_transforms}, then the first T of a permutation of the ids."""
    t = int(g.integers(1, cfg.strong_max_transforms + 1))
    return tuple(TRANSFORM_IDS[i] for i in g.permutation(4)[:t].tolist())


def _draw_plan(g, queue, shape, cfg: AugmentConfig) -> list:
    """Every draw one row's queue makes, as [(transform id, parameter)].

    Dropout draws the window length w ~ U{1..max(1, floor(frac*L))}, the
    start ~ U{0..L-w} and, with dropout_all_channels=False, the channel;
    channel reorganization draws a permutation (nothing on one channel);
    noise draws a standard normal (channels, length) matrix.
    """
    channels, length = shape
    plan = []
    for tid in queue:
        if tid == SIGNAL_DROPOUT:
            w = int(g.integers(1, max(1, int(cfg.dropout_max_frac * length)) + 1))
            start = int(g.integers(0, length - w + 1))
            channel = -1 if cfg.dropout_all_channels else int(g.integers(0, channels))
            param = (start, start + w, channel)
        elif tid == TEMPORAL_FLIP:
            param = None
        elif tid == CHANNEL_REORGANIZATION:
            param = g.permutation(channels) if channels > 1 else None
        elif tid == RANDOM_NOISE:
            param = g.standard_normal(shape)
        else:
            raise ValueError(f"unknown transform id {tid}")
        plan.append((tid, param))
    return plan


# --- transforms: one block of stacked (rows, channels, length) signals ---------

def _dropout_block(x, params, cfg: AugmentConfig):
    lo, hi, channel = (np.array(v)[:, None, None] for v in zip(*params))
    t = np.arange(x.shape[2])
    window = (t >= lo) & (t < hi)
    if not cfg.dropout_all_channels:
        window = window & (np.arange(x.shape[1])[:, None] == channel)
    np.copyto(x, 0.0, where=window)
    return x


def _flip_block(x, params, cfg: AugmentConfig):
    return x[:, :, ::-1]


def _reorganize_block(x, params, cfg: AugmentConfig):
    if x.shape[1] < 2:
        warnings.warn("channel_reorganization on a single-channel signal is the identity")
        return x
    perms = np.concatenate(params).reshape(x.shape[:2])
    return x[np.arange(x.shape[0])[:, None], perms]


def _noise_block(x, params, cfg: AugmentConfig):
    scale = cfg.noise_sigma * x.std(axis=2, keepdims=True)
    return x + scale * np.concatenate(params).reshape(x.shape)


_BLOCK_TRANSFORMS = {SIGNAL_DROPOUT: _dropout_block, TEMPORAL_FLIP: _flip_block,
                     CHANNEL_REORGANIZATION: _reorganize_block, RANDOM_NOISE: _noise_block}


def _augment_rows(signals, plans, cfg: AugmentConfig) -> np.ndarray:
    """Apply each row's plan to a list of same-shape signals; returns (rows, channels, length).

    Queue position q is applied to every row that has one, one block
    operation per transform id. A row whose noise turns non-finite raises
    ValueError before its next transform, as a transform's input check would.
    """
    x = np.stack(signals)
    _check_finite(x)
    buckets: dict = {}  # (queue position, transform id) -> (rows, parameters)
    for r, plan in enumerate(plans):
        for q, (tid, param) in enumerate(plan):
            rows, params = buckets.setdefault((q, tid), ([], []))
            rows.append(r)
            params.append(param)
    for (q, tid), (rows, params) in sorted(buckets.items()):
        x[rows] = _BLOCK_TRANSFORMS[tid](x[rows], params, cfg)
        going_on = [r for r in rows if q + 1 < len(plans[r])] if tid == RANDOM_NOISE else []
        if going_on:
            _check_finite(x[going_on])
    return x


# --- public API -----------------------------------------------------------------

def apply_queue(x: SignalMatrix, queue, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply transforms by id in queue order, threading one generator through."""
    g = as_generator(rng)
    x = _check_shape(x)
    return _augment_rows([x], [_draw_plan(g, [int(t) for t in queue], x.shape, cfg)], cfg)[0]


def signal_dropout(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Zero one contiguous time window (all channels, or one random channel)."""
    return apply_queue(x, (SIGNAL_DROPOUT,), rng, cfg)


def temporal_flip(x: SignalMatrix) -> SignalMatrix:
    """Reverse every channel along the time axis."""
    return _augment_rows([_check_shape(x)], [[(TEMPORAL_FLIP, None)]], AugmentConfig())[0]


def channel_reorganization(x: SignalMatrix, rng) -> SignalMatrix:
    """Permute the channel rows uniformly at random.

    Single-channel signals are returned unchanged with a warning.
    """
    return apply_queue(x, (CHANNEL_REORGANIZATION,), rng)


def random_noise(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Add zero-mean Gaussian noise, scaled per channel.

    The noise on channel c has standard deviation noise_sigma * std(x[c]),
    so constant channels pass through untouched and the zero-sigma limit is
    the identity.
    """
    return apply_queue(x, (RANDOM_NOISE,), rng, cfg)


def weak_augment(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply exactly one of the four transforms, chosen uniformly."""
    g = as_generator(rng)
    return apply_queue(x, _weak_queue(g, cfg), g, cfg)


def strong_augment(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply a random queue of distinct transforms.

    Queue length T ~ U{1..strong_max_transforms}; the queue itself is the
    first T entries of a random permutation of the four ids (each transform
    appears at most once).
    """
    g = as_generator(rng)
    return apply_queue(x, _strong_queue(g, cfg), g, cfg)


def augment_batch(signals, stream: RandomStream, cfg: AugmentConfig, strong: bool = False,
                  first: int = 0) -> list:
    """Augment a list of signals; sample i draws from substream(first + i).

    The output is independent of how the list is cut into calls (pass the
    offset of a slice as `first`) and of any parallel execution order.
    Signals are grouped by shape and each group is transformed as a block.
    """
    signals = [_check_shape(x) for x in signals]
    draw_queue = _strong_queue if strong else _weak_queue
    plans = [_draw_plan(g, draw_queue(g, cfg), x.shape, cfg)
             for x, g in zip(signals, stream.children(len(signals), first))]
    groups: dict = {}
    for i, x in enumerate(signals):
        groups.setdefault(x.shape, []).append(i)
    out = [None] * len(signals)
    for rows in groups.values():
        block = _augment_rows([signals[i] for i in rows], [plans[i] for i in rows], cfg)
        for i, row in zip(rows, block):
            out[i] = row
    return out
