"""Weak/strong augmentation pipelines for multi-channel physiological signals.

A signal is a (channels, length) float array. Four elementary transforms are
provided:

  1. signal_dropout          zero a random contiguous time window
  2. temporal_flip           reverse the time axis
  3. channel_reorganization  shuffle the channel (row) order
  4. random_noise            add i.i.d. Gaussian noise

The weak pipeline applies exactly one transform chosen uniformly; the strong
pipeline draws a queue of 1..4 distinct transforms and applies them in queue
order. All randomness flows through one generator per call so results are
bit-reproducible given (input, seed, config).
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


def _check_signal(x: SignalMatrix) -> SignalMatrix:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"signal must be a (channels, length) matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def signal_dropout(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Zero one contiguous time window.

    Draw order: window length w ~ U{1..max(1, floor(frac*L))}, then start
    offset ~ U{0..L-w}. With dropout_all_channels=False a third draw picks
    the single affected channel.
    """
    x = _check_signal(x)
    g = as_generator(rng)
    channels, length = x.shape
    w_max = max(1, int(cfg.dropout_max_frac * length))
    w = int(g.integers(1, w_max + 1))
    start = int(g.integers(0, length - w + 1))
    out = x.copy()
    if cfg.dropout_all_channels:
        out[:, start : start + w] = 0.0
    else:
        ch = int(g.integers(0, channels))
        out[ch, start : start + w] = 0.0
    return out


def temporal_flip(x: SignalMatrix) -> SignalMatrix:
    """Reverse every channel along the time axis."""
    x = _check_signal(x)
    return x[:, ::-1].copy()


def channel_reorganization(x: SignalMatrix, rng) -> SignalMatrix:
    """Permute the channel rows uniformly at random.

    Single-channel signals are returned unchanged with a warning.
    """
    x = _check_signal(x)
    if x.shape[0] < 2:
        warnings.warn("channel_reorganization on a single-channel signal is the identity")
        return x.copy()
    g = as_generator(rng)
    perm = g.permutation(x.shape[0])
    return x[perm].copy()


def random_noise(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Add zero-mean Gaussian noise, scaled per channel.

    The noise on channel c has standard deviation noise_sigma * std(x[c]),
    so constant channels pass through untouched and the zero-sigma limit is
    the identity.
    """
    x = _check_signal(x)
    g = as_generator(rng)
    scale = cfg.noise_sigma * x.std(axis=1, keepdims=True)
    return x + scale * g.standard_normal(x.shape)


def _apply(transform_id: int, x: SignalMatrix, g: np.random.Generator, cfg: AugmentConfig) -> SignalMatrix:
    if transform_id == SIGNAL_DROPOUT:
        return signal_dropout(x, g, cfg)
    if transform_id == TEMPORAL_FLIP:
        return temporal_flip(x)
    if transform_id == CHANNEL_REORGANIZATION:
        return channel_reorganization(x, g)
    if transform_id == RANDOM_NOISE:
        return random_noise(x, g, cfg)
    raise ValueError(f"unknown transform id {transform_id}")


def apply_queue(x: SignalMatrix, queue, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply transforms by id in queue order, threading one generator through."""
    g = as_generator(rng)
    out = _check_signal(x)
    for tid in queue:
        out = _apply(int(tid), out, g, cfg)
    return out


def weak_augment(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply exactly one of the four transforms, chosen uniformly."""
    g = as_generator(rng)
    tid = TRANSFORM_IDS[int(g.integers(0, 4))]
    return _apply(tid, _check_signal(x), g, cfg)


def strong_augment(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply a random queue of distinct transforms.

    Queue length T ~ U{1..strong_max_transforms}; the queue itself is the
    first T entries of a random permutation of the four ids (each transform
    appears at most once).
    """
    g = as_generator(rng)
    t = int(g.integers(1, cfg.strong_max_transforms + 1))
    queue = [TRANSFORM_IDS[i] for i in g.permutation(4)[:t]]
    return apply_queue(x, queue, g, cfg)


def augment_batch(signals, stream: RandomStream, cfg: AugmentConfig, strong: bool = False):
    """Augment a list of signals with independent per-sample substreams.

    Sample i always sees substream(i), so the output is independent of any
    parallel execution order.
    """
    fn = strong_augment if strong else weak_augment
    return [fn(x, stream.substream(i), cfg) for i, x in enumerate(signals)]
