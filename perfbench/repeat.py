"""Run the benchmark once per seed and summarise each metric.

From the repository root:

    python3 perfbench/repeat.py --workload ssl_wide --seeds 0-9
    python3 perfbench/repeat.py --workload eval_large --seeds 0-9 --record perfbench/baseline.json

Runs are sequential, one process at a time, with the command and run length
from BENCHMARK.json. For every metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.
`--record` stores the runs and the summary under the workload's name in a
JSON file, keeping the other workloads already there.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list, workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, str]:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next((line[len("machine "):] for line in lines if line.startswith("machine ")), "{}")
    return json.loads(lines[-1]), machine


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", type=Path, help="JSON file to store the runs in")
    args = parser.parse_args(argv)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    runs, machine = [], "{}"
    for seed in seed_list(args.seeds):
        result, machine = run_once(bench["command"], args.workload, seed, args.trace, args.seconds)
        runs.append({"seed": seed, **result})
        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in listed[:6])
        print(f"seed {seed}: correct={result['correct']} ops={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = {}
    if len(runs) >= 2:
        for m in listed:
            summary[m["name"]] = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s = summary[m["name"]]
            bound = m.get("bound")
            verdict = "" if bound is None else f" bound {bound} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
            print(f"{m['name']}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}{verdict}")
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record.setdefault(args.workload, {})["trace" if args.trace else "end_to_end"] = {
            "seconds": args.seconds, "machine": json.loads(machine), "summary": summary, "runs": runs,
        }
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
