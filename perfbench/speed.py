"""Timings scaled to a reference speed, for a host whose cores are shared.

On a shared host the speed this process gets swings by up to 1.5x within
seconds and drifts over minutes, with the load on the neighbouring hardware
threads; wall time alone then measures the neighbours as much as the code.
`ScaledClock` times a block of code and, every `INTERVAL_S` of wall time,
interrupts it with a timer signal to run a fixed probe. The work after a
probe is scaled by `REFERENCE_PROBE_S` over that probe's time, so
`scaled_s` reads how long the block takes at the speed at which the probe
takes `REFERENCE_PROBE_S`. The probes' own time is left out of both
`wall_s` and `scaled_s`.

The probe mixes the two kinds of work the package does: small NumPy
operations in a Python loop (per-sample preprocessing, training steps) and a
sort of a few megabytes (the metrics' ranking code). It calls nothing in the
package, so a change to the package cannot change the scale.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import time

import numpy as np

INTERVAL_S = 0.25
# About the fastest the probe runs on the 2-vCPU Xeon host the baseline was
# recorded on (its 10th percentile over eight minutes of both workloads).
REFERENCE_PROBE_S = 0.0100
_PROBE_LOOPS = 500
_SMALL = np.random.default_rng(0).random((3, 256))
_LARGE = np.random.default_rng(1).random(400_000)
_SORTED = np.empty_like(_LARGE)  # sorted in place: a probe at peak memory adds nothing


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = time.perf_counter()
    for _ in range(_PROBE_LOOPS):
        _SMALL[:, ::2].mean(axis=1)
        np.abs(_SMALL).max()
        _SMALL.reshape(3, 8, 32).mean(axis=2)
    _SORTED[:] = _LARGE
    _SORTED.sort()
    return time.perf_counter() - start


def scaled_run(command, **kwargs) -> float:
    """Scaled seconds of `subprocess.run(command, check=True, **kwargs)`.

    The timer's probes cannot follow work into another process, and each of
    the host's CPUs has its own neighbours. So the command runs pinned to
    one CPU of this process, between two sets of probes on that CPU, and its
    wall time is scaled by their medians.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = statistics.median(probe() for _ in range(3))
        start = time.perf_counter()
        subprocess.run(command, check=True, **kwargs)
        wall = time.perf_counter() - start
        after = statistics.median(probe() for _ in range(3))
    finally:
        os.sched_setaffinity(0, cpus)
    return wall * 2.0 * REFERENCE_PROBE_S / (before + after)


class ScaledClock:
    """Context manager timing its block in wall and scaled seconds, probes left out.

    One use per instance, in the main thread, which receives the timer
    signal. Each stretch of work is scaled by `REFERENCE_PROBE_S` over the
    probe run just before it. `now()` reads the scaled seconds so far, so
    spans timed with it inside the block are scaled as well.
    """

    def __init__(self):
        self.wall_s = 0.0
        # (scaled seconds up to the last probe, when work resumed after it, scale);
        # replaced whole, so that `now()` never sees half an update
        self._state = (0.0, 0.0, 1.0)
        self._active = False
        self._previous = None

    @property
    def scaled_s(self) -> float:
        return self._state[0]

    def now(self) -> float:
        """Scaled seconds since the block began; after it, its scaled total."""
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:  # no probe ran in between
                scaled, resumed, scale = state
                return scaled + (t - resumed) * scale

    def _stop(self) -> float:
        """End the current stretch of work; returns the scaled seconds up to now."""
        stopped = time.perf_counter()
        scaled, resumed, scale = self._state
        self.wall_s += stopped - resumed
        return scaled + (stopped - resumed) * scale

    def _probe(self, scaled: float) -> None:
        scale = REFERENCE_PROBE_S / probe()
        self._state = (scaled, time.perf_counter(), scale)

    def _on_alarm(self, *_signal) -> None:
        self._probe(self._stop())
        if self._active:
            # one-shot, re-armed after the probe: a slow probe cannot nest
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._probe(0.0)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._state = (self._stop(), time.perf_counter(), 0.0)
        return False
