"""Measurement loop, correctness ops and the result line.

One process runs one workload in a closed loop: a single caller starts the
next pass only after the previous one returned. `run_workload` returns the
result object that `main` prints as the last line of standard output.
Every time it reports is scaled to a reference speed of the host (see
`speed`); the wall times are printed next to them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ecgmatch
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# per-layer metric suffix -> summary field (see spans.summarize)
_STAT_FIELD = {"calls": "calls", "rows": "count", "pairs": "count", "self_s": "self_s",
               "total_s": "total_s", "s": "total_s"}


@functools.cache
def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def benchmark() -> dict:
    """BENCHMARK.json: the metric names, units and bounds."""
    return _load(ROOT / "BENCHMARK.json")


def expected_rows(workload: str, seed: int):
    """The report rows recorded for this workload and seed, if any."""
    return _load(Path(__file__).with_name("expected.json")).get(workload, {}).get(str(seed))


def machine_info() -> dict:
    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def digest(rows) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


class Ops:
    """Correctness checks counted as operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def extend(self, checks) -> None:
        for name, ok in checks:
            self.add(name, ok)


def _scaled(fn):
    """Run fn(); return (its result, scaled seconds, wall seconds)."""
    with speed.ScaledClock() as clock:
        result = fn()
    return result, clock.scaled_s, clock.wall_s


def _timed_passes(workload, seconds: float):
    """Passes until the next one would end after `seconds`; at least one.

    Returns the passes' scaled seconds, wall seconds and report rows.
    """
    scaled, wall, rows = [], [], []
    start = time.perf_counter()
    while True:
        outcome, scaled_s, wall_s = _scaled(workload.run_pass)
        scaled.append(scaled_s)
        wall.append(wall_s)
        rows.append(workload.rows(outcome))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rows) > seconds:
            return scaled, wall, rows


def layer_metrics(summary: dict, pass_self_s: float, traced_s: float, untraced_s: float,
                  eval_rows: int) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from the traced spans' summary.

    `pass_self_s` sums the self times of the spans inside the traced pass.
    """
    zero = {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}
    encoded = summary.get("data.encode_subset", zero)["count"]
    augmented = summary.get("augment.augment_batch", zero)["count"]
    derived = {
        "trainer.self_s": sum((v["self_s"] for k, v in summary.items() if k.startswith("trainer.")), 0.0),
        # every augmented row is encoded once; the rest are clean encodes
        "trainer.evaluate_model.reencode_ratio": (encoded - augmented) / eval_rows if eval_rows else 0.0,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unaccounted_s": traced_s - pass_self_s,
    }
    out = {}
    for metric in benchmark()["per_layer"]:
        name = metric["name"]
        if name in derived:
            out[name] = derived[name]
        else:
            func, stat = name.rsplit(".", 1)
            out[name] = summary.get(func, zero)[_STAT_FIELD[stat]]
    return out


def import_seconds() -> float:
    """Median scaled time of a fresh interpreter importing the package's entry points."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-c", "import ecgmatch.cli"]
    return statistics.median(speed.scaled_run(command, cwd=ROOT, env=env) for _ in range(SETUP_REPEATS))


def run_workload(workload, seconds: float, trace: bool, spans_path: Path | None = None):
    """Set up, time, check; returns (ops, metrics {name: value}, notes {label: text}).

    `setup_s` is the median import time of a fresh interpreter plus the
    median time to make the workload's inputs; `run_s` is the median pass.
    """
    try:
        return _measure(workload, seconds, trace, spans_path)
    finally:
        workload.close()


def _measure(workload, seconds: float, trace: bool, spans_path: Path | None):
    ops = Ops()
    import_s = import_seconds()
    setup_times = [_scaled(workload.setup)[1] for _ in range(SETUP_REPEATS)]

    times, wall, rows = _timed_passes(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pass_rows in rows:
        ops.extend(workload.check_rows(pass_rows))
    for pass_rows in rows[1:]:
        ops.add("report repeats across passes", pass_rows == rows[0])
    ops.extend(workload.final_checks(rows[0]))
    expected = expected_rows(workload.name, workload.seed)
    if expected is not None:
        ops.add(f"report equals the recorded seed-{workload.seed} report", rows[0] == expected)

    metrics = {"setup_s": import_s + statistics.median(setup_times), "run_s": statistics.median(times),
               "peak_rss_mb": peak_rss_mb}
    notes = {"pass_scaled_s": " ".join(f"{t:.4f}" for t in times),
             "pass_wall_s": " ".join(f"{t:.4f}" for t in wall), "digest": digest(rows[0]),
             "report": " | ".join(rows[0])}
    if trace:
        eval_rows = workload.eval_rows()
        with speed.ScaledClock() as clock, spans.Tracer(clock.now) as tracer:
            tracer.install(workloads.TRACE_TARGETS)
            workload.setup()
            lo = len(tracer.spans)
            start = clock.now()
            outcome = workload.run_pass()
            traced_s = clock.now() - start
            hi = len(tracer.spans)
            workload.traced_extras()
        ops.add("traced report equals untraced report", workload.rows(outcome) == rows[0])
        summary = spans.summarize(tracer.spans)
        for name in workload.expected_calls:
            ops.add(f"{name} is wrapped and called",
                    name not in tracer.missing and summary.get(name, {}).get("calls", 0) > 0)
        pass_self_s = sum(spans.self_times(tracer.spans)[lo:hi])
        metrics.update(layer_metrics(summary, pass_self_s, traced_s, metrics["run_s"], eval_rows))
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.to_json()))
            notes["spans"] = str(spans_path)
    return ops, metrics, notes


def result_line(ops: Ops, metrics: dict, trace: bool) -> dict:
    listed = benchmark()["per_layer" if trace else "end_to_end"]
    return {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(args) -> int:
    src = Path(ecgmatch.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"ecgmatch imported from {src}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR / f"work-{os.getpid()}")
    spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    ops, metrics, notes = run_workload(workload, args.seconds, bool(args.trace), spans_path)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for label, text in notes.items():
        print(f"{label}: {text}")
    units = {m["name"]: m["unit"] for m in benchmark()["end_to_end"] + benchmark()["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, '')}".rstrip())
    print(f"ops_failed = {len(ops.failures)} / ops = {ops.attempted}")
    for name in ops.failures:
        print(f"FAILED: {name}")
    print(json.dumps(result_line(ops, metrics, bool(args.trace))))
    return 0
