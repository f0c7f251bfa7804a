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

`augment_batch` takes an (n, channels, length) array and gives row i the
generator of substream(ids[i]). One pass walks the rows in order: each row
draws its transform id or queue, then per transform in queue order its
parameter (dropout window and channel, permutation, noise matrix), which
joins the group of its (queue position, transform id). The groups are then
applied in that order, each as one block operation. Every reduction runs
along the time axis of one row, so a row comes out bit for bit as if it
were augmented alone; the per-sample functions are one-row views of the
same pass.
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


def _check_shape(x, ndim: int = 2) -> np.ndarray:
    """x as a float array of `ndim` axes, the last two a non-empty (channels, length); finiteness is checked
    per block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-2] < 1 or x.shape[-1] < 1:
        raise ValueError(f"signals need {ndim} axes, the last two (channels, length), got shape {x.shape}")
    return x


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")


# --- one pass: each row's draws into (position, id) groups, each group a block ---

def _weak_queue(g: np.random.Generator, cfg: AugmentConfig) -> tuple:
    return (TRANSFORM_IDS[int(g.integers(0, 4))],)


def _strong_queue(g: np.random.Generator, cfg: AugmentConfig) -> tuple:
    """T ~ U{1..strong_max_transforms}, then the first T of a permutation of the ids."""
    t = int(g.integers(1, cfg.strong_max_transforms + 1))
    return tuple(TRANSFORM_IDS[i] for i in g.permutation(4)[:t].tolist())


def _augment(signals: np.ndarray, draws, cfg: AugmentConfig) -> np.ndarray:
    """Apply each row's queue to a copy of the (rows, channels, length) block `signals`.

    `draws` yields each row's (generator, queue) in row order, and the row
    makes all its draws, in queue order, before the next one is read (the
    generators of `RandomStream.children` are one reused object). Dropout
    draws the window length w ~ U{1..max(1, floor(frac*L))}, the start
    ~ U{0..L-w} and, with dropout_all_channels=False, the channel; channel
    reorganization draws a permutation (nothing on one channel); noise draws
    a standard normal (channels, length) matrix. Each draw joins the group
    of its (queue position, transform id), and the groups are applied in
    that order, one block operation each. A row whose noise turns
    non-finite raises ValueError before its next transform, as a
    transform's input check would.
    """
    channels, length = signals.shape[1:]
    groups: dict = {}  # (queue position, transform id) -> ([row], [parameter])
    lengths = []  # each row's queue length
    for r, (g, queue) in enumerate(draws):
        for q, tid in enumerate(queue):
            if tid == SIGNAL_DROPOUT:
                w = int(g.integers(1, max(1, int(cfg.dropout_max_frac * length)) + 1))
                start = int(g.integers(0, length - w + 1))
                param = (start, start + w, -1 if cfg.dropout_all_channels else int(g.integers(0, channels)))
            elif tid == TEMPORAL_FLIP:
                param = None
            elif tid == CHANNEL_REORGANIZATION:
                param = g.permutation(channels) if channels > 1 else None
            elif tid == RANDOM_NOISE:
                param = g.standard_normal((channels, length))
            else:
                raise ValueError(f"unknown transform id {tid}")
            rows, params = groups.setdefault((q, tid), ([], []))
            rows.append(r)
            params.append(param)
        lengths.append(len(queue))
    x = signals.copy()
    _check_finite(x)
    for (q, tid), (rows, params) in sorted(groups.items()):
        block = x[rows]
        if tid == SIGNAL_DROPOUT:
            lo, hi, channel = (np.array(v)[:, None, None] for v in zip(*params))
            t = np.arange(length)
            window = (t >= lo) & (t < hi)
            if not cfg.dropout_all_channels:
                window = window & (np.arange(channels)[:, None] == channel)
            np.copyto(block, 0.0, where=window)
        elif tid == TEMPORAL_FLIP:
            block = block[:, :, ::-1]
        elif tid == CHANNEL_REORGANIZATION and channels < 2:
            warnings.warn("channel_reorganization on a single-channel signal is the identity")
        elif tid == CHANNEL_REORGANIZATION:
            block = block[np.arange(len(rows))[:, None], np.concatenate(params).reshape(block.shape[:2])]
        else:
            scale = cfg.noise_sigma * block.std(axis=2, keepdims=True)
            block = block + scale * np.concatenate(params).reshape(block.shape)
        x[rows] = block
        going_on = [r for r in rows if q + 1 < lengths[r]] if tid == RANDOM_NOISE else []
        if going_on:
            _check_finite(x[going_on])
    return x


# --- public API -----------------------------------------------------------------

def apply_queue(x: SignalMatrix, queue, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Apply transforms by id in queue order, threading one generator through."""
    g = as_generator(rng)
    x = _check_shape(x)
    return _augment(x[None], [(g, [int(t) for t in queue])], cfg)[0]


def signal_dropout(x: SignalMatrix, rng, cfg: AugmentConfig = AugmentConfig()) -> SignalMatrix:
    """Zero one contiguous time window (all channels, or one random channel)."""
    return apply_queue(x, (SIGNAL_DROPOUT,), rng, cfg)


def temporal_flip(x: SignalMatrix) -> SignalMatrix:
    """Reverse every channel along the time axis."""
    return _augment(_check_shape(x)[None], [(None, (TEMPORAL_FLIP,))], AugmentConfig())[0]


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
                  ids=None) -> np.ndarray:
    """Augment an (n, channels, length) array; row i draws from substream(ids[i]), by default substream(i).

    The output is independent of how the rows are cut into calls (pass each
    row's id in the whole batch as `ids`) and of any parallel execution order.
    """
    x = _check_shape(signals, ndim=3)
    ids = np.arange(len(x)) if ids is None else np.asarray(ids)
    if ids.shape != (len(x),):
        raise ValueError(f"need one id per row: {len(x)} rows, ids of shape {ids.shape}")
    draw_queue = _strong_queue if strong else _weak_queue
    return _augment(x, ((g, draw_queue(g, cfg)) for g in stream.children(ids)), cfg)
