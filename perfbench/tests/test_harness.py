"""Self-tests of the benchmark harness: span arithmetic, wrappers, scaled clock, small passes.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ecgmatch import data, metrics, nn, trainer  # noqa: E402


def test_self_time_is_duration_minus_children():
    synthetic = [
        ["outer", 0.0, 10.0, -1, 0],
        ["left", 1.0, 4.0, 0, 0],
        ["right", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    assert spans.self_times(synthetic) == [6.0, 2.0, 1.0, 1.0]

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (_, start, end, _, _), *children = tracer.spans
    assert all(child[3] == 0 for child in children)
    selfs = spans.self_times(tracer.spans)
    assert selfs[0] == pytest.approx((end - start) - sum(c[2] - c[1] for c in children), abs=1e-12)
    assert sum(selfs) == pytest.approx(end - start, abs=1e-12)
    summary = spans.summarize(tracer.spans)
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["total_s"] == end - start


def test_wrapped_function_returns_what_the_original_does():
    g = np.random.default_rng(3)
    scores, labels = g.random((60, 5)), (g.random((60, 5)) < 0.4).astype(float)
    cfg = nn.ModelConfig(input_dim=8, num_classes=3, hidden_dims=(6,), feature_dim=4, head_hidden=5)
    params = nn.init_params(cfg, g)
    batch = g.normal(size=(7, 8))

    tracer = spans.Tracer()
    wrapped = tracer.wrap("metrics.compute_all", metrics.compute_all, workloads.TRACE_TARGETS["metrics.compute_all"])
    assert wrapped(scores, labels) == metrics.compute_all(scores, labels)
    forward = tracer.wrap("nn.forward", nn.forward, workloads.TRACE_TARGETS["nn.forward"])
    for got, want in zip(forward(cfg, params, batch=batch), nn.forward(cfg, params, batch)):
        np.testing.assert_array_equal(got, want)
    assert [s[4] for s in tracer.spans] == [60, 7]


def test_install_wraps_every_lookup_site_and_restores():
    original = data.encode_subset
    assert trainer.encode_subset is original
    with spans.Tracer() as tracer:
        tracer.install({"data.encode_subset": None, "data.no_such_function": None})
        assert data.encode_subset is not original
        assert trainer.encode_subset is data.encode_subset
        assert tracer.missing == ["data.no_such_function"]
    assert data.encode_subset is original and trainer.encode_subset is original


def test_scaled_clock_scales_work_by_the_probe_and_restores_the_signal(monkeypatch):
    # a host on which the probe runs twice as fast as the reference
    probes = []
    monkeypatch.setattr(speed, "probe", lambda: probes.append(1) or speed.REFERENCE_PROBE_S / 2)
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with speed.ScaledClock() as clock:
        readings = [clock.now()]
        while time.perf_counter() - start < 3 * speed.INTERVAL_S:
            readings.append(clock.now())
    elapsed = time.perf_counter() - start
    assert len(probes) >= 3  # the timer probed inside the block
    assert readings == sorted(readings)
    assert clock.wall_s == pytest.approx(elapsed, abs=0.01)
    assert clock.scaled_s == pytest.approx(2 * clock.wall_s)
    assert clock.now() == clock.scaled_s >= readings[-1]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_pass_of_each_workload_has_no_failed_ops(name, tmp_path):
    # a traced run also makes the untraced passes, so both paths run here
    workload = workloads.WORKLOADS[name](0, tmp_path / "work", small=True)
    ops, measured, _ = harness.run_workload(workload, 0.0, trace=True)
    assert ops.failures == [] and ops.attempted > len(workload.expected_calls)
    for trace in (False, True):
        line = harness.result_line(ops, measured, trace)
        listed = harness.benchmark()["per_layer" if trace else "end_to_end"]
        assert line["correct"] and set(line["metrics"]) == {m["name"] for m in listed}
    # all time inside the traced pass belongs to some wrapped layer
    assert abs(measured["trace.unaccounted_s"]) < 0.01 * measured["trace.run_s"] + 1e-3
