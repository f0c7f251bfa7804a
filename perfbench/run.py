"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload ssl_wide --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones in BENCHMARK.json; with `--trace 1` they are the
per-layer ones, taken from a traced pass that follows the untraced passes.
Every time, end-to-end and per layer, is scaled to a reference speed of the
host, so that the load its neighbours put on shared cores drops out (see
`speed.py`). The lines before
it repeat every metric with its unit, the wall time of each pass, the
machine, and a digest of the checked report. Spans of a traced run are written to
`.perfbench_out/` at the repository root.

`ssl_acceptance` runs by hand like the others but is not listed in
BENCHMARK.json: one of its passes takes about 18 s, so within the time the
benchmark's runs may take in all, a third workload would leave it a single
pass per run, and a single pass varies too much from run to run.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the closed loop has a single caller, and on two shared
# cores a second BLAS thread mostly adds noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("ssl_acceptance", "ssl_wide", "eval_large")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    root = Path(__file__).resolve().parents[1]
    sys.path[1:1] = [str(root / "src"), str(root / "tests")]
    try:
        import harness
    except ImportError as exc:  # no package source or no oracles in this checkout
        print(f"perfbench: cannot load the package under test: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(harness.main(args))
