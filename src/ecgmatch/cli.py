"""Command-line entry points.

Verbs: run, gridsearch, eval, compare, annotate, synth. Exit codes: 0 on
success, 1 on runtime failure, 2 on configuration or parse problems; run,
gridsearch and synth name the failing stage. The environment variables
ECGMATCH_OUT, ECGMATCH_SEED and ECGMATCH_THREADS stand in for --out, --seed
and --threads when the flag is not given; a given flag wins.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import sys
from dataclasses import replace
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import metrics, stats, trainer
from .config import ExperimentConfig, load_experiment_config
from .data import (AnnotationMap, SUPERCLASSES, load_dataset, map_annotations, parse_rows, read_lines,
                   save_dataset, synth_generate)
from .errors import ConfigurationError, ParseError
from .metrics import CSV_COLUMNS, METRIC_NAMES
from .nn import LossWeights, save_params

REPORT_HEADER = ["model", "dataset", "seed", *CSV_COLUMNS]
SUMMARY_HEADER = ["model", "dataset", "stat", *METRIC_NAMES]
LOG_HEADER = ["step", "epoch", "lb", "lu", "lf", "lr", "val_metric"]
COMPARISON_HEADER = [
    "metric", "model", "mean_rank", "rank_diff_vs_control", "significant",
    "chi2_f", "f_f", "f_critical_0.05", "reference_critical_value", "cd",
]


def _guarded(body, args) -> int:
    """`body(args, stage)` under the exit-code contract; the one boundary of every verb.

    A body returns its exit code and names each stage it enters by calling
    `stage(name)`. A configuration or parse problem is exit 2 and any other
    failure exit 1, with the last stage entered in the message.
    """
    stages = []
    try:
        return body(args, stages.append)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        config = isinstance(exc, (ConfigurationError, ParseError, FileNotFoundError))
        where = f" in stage {stages[-1]}" if stages else ""
        print(f"{'configuration error' if config else 'error'}{where}: {exc}", file=sys.stderr)
        return 2 if config else 1


def _dataset_label(cfg: ExperimentConfig, datasets) -> str:
    if cfg.split.protocol == "within":
        return datasets[0].dataset_id
    if cfg.split.protocol == "cross":
        return cfg.split.held_out_dataset
    return "mix"


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_run_outputs(out_dir: Path, cfg: ExperimentConfig, result, dataset_label: str) -> None:
    rows = [
        [cfg.model_name, dataset_label, str(sr.seed), *sr.report.to_csv_row()]
        for sr in result.per_seed
    ]
    _write_csv(out_dir / "reports.csv", REPORT_HEADER, rows)
    summary = [
        [cfg.model_name, dataset_label, "mean", *(repr(result.mean[m]) for m in METRIC_NAMES)],
        [cfg.model_name, dataset_label, "std", *(repr(result.std[m]) for m in METRIC_NAMES)],
    ]
    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, summary)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for sr in result.per_seed:
        _write_csv(
            out_dir / f"train_log_seed{sr.seed}.csv", LOG_HEADER,
            [[row[k] for k in LOG_HEADER] for row in sr.history],
        )
        save_params(ckpt_dir / f"student_seed{sr.seed}.bin", sr.final_params)


def _flag_or_env(args, name: str, integer: bool = False):
    """The flag --<name> if given, else ECGMATCH_<NAME> if set, else None; as an integer under `integer`."""
    value = getattr(args, name)
    value = os.environ.get(f"ECGMATCH_{name.upper()}") if value is None else value
    try:
        return int(value) if integer and value is not None else value
    except ValueError:
        raise ConfigurationError(f"{name} override must be an integer, got {value!r}") from None


def _load(args, stage):
    """The config at --config with the flag and ECGMATCH_ overrides applied, and its datasets."""
    stage("load-config")
    cfg = load_experiment_config(args.config)
    out = _flag_or_env(args, "out")
    seed = _flag_or_env(args, "seed", integer=True)
    if "threads" in args:  # gridsearch's worker count, 1 unless given
        threads = _flag_or_env(args, "threads", integer=True)
        if threads is not None and threads < 1:
            raise ConfigurationError(f"threads must be at least 1, got {threads}")
        args.threads = threads or 1
    if out is not None:
        cfg = replace(cfg, output_dir=str(out))
    if seed is not None:
        cfg = replace(cfg, seeds=(seed,))
    stage("load-data")
    if cfg.data.synth is not None:
        return cfg, [synth_generate(cfg.data.synth)]
    datasets = [load_dataset(p, cfg.data.format) for p in cfg.data.paths]
    _distinct_files(cfg.data.paths)
    return cfg, datasets


def _distinct_files(paths) -> None:
    """Two spellings of one file load as two dataset ids, which the split's repeated-id check
    cannot tell apart; they would put the same samples in two sets, so they are a ConfigurationError."""
    first = {}
    for path in paths:
        status = os.stat(path)
        seen = first.setdefault((status.st_dev, status.st_ino), path)
        if seen != path:
            raise ConfigurationError(f"data paths {seen!r} and {path!r} name the same file")


def _train(cfg: ExperimentConfig, datasets, out_dir: Path, stage=lambda name: None):
    """Train every seed of `cfg` on `datasets`, write the run's files to `out_dir`: (mean, std).

    A grid cell is one such call, in this process or a worker, and reports no stage of its own.
    """
    stage("train")
    result = trainer.run_experiment(datasets, cfg.split, cfg.train, cfg.seeds)
    stage("write-reports")
    _write_run_outputs(out_dir, cfg, result, _dataset_label(cfg, datasets))
    return result.mean, result.std


_worker_datasets: list = []  # a gridsearch worker process's datasets, set once by the pool initializer


def _set_worker_datasets(datasets) -> None:
    global _worker_datasets
    _worker_datasets = datasets


def _train_cell(cfg: ExperimentConfig, out_dir: Path):
    """`_train` in a gridsearch worker: only the cell's config and directory cross the process boundary."""
    return _train(cfg, _worker_datasets, out_dir)


def _run(args, stage) -> int:
    cfg, datasets = _load(args, stage)
    mean, std = _train(cfg, datasets, Path(cfg.output_dir), stage)
    for name in METRIC_NAMES:
        print(f"{name}: mean={mean[name]:.4f} std={std[name]:.4f}")
    return 0


def _gridsearch(args, stage) -> int:
    """One `_train` per grid cell: the config's run with each swept weight set to a grid value, on the
    datasets loaded once; each of the min(--threads, cells) worker processes receives them once."""
    cfg, datasets = _load(args, stage)
    swept = ("lambda_u", "lambda_f") if cfg.grid.axis == "cartesian" else (cfg.grid.axis,)
    lu_values = cfg.grid.values if "lambda_u" in swept else (cfg.train.weights.lambda_u,)
    lf_values = cfg.grid.values if "lambda_f" in swept else (cfg.train.weights.lambda_f,)
    cells = list(product(lu_values, lf_values))
    out_dir = Path(cfg.output_dir)
    stage("train")
    for name in swept:
        setting = cfg.train.zeroed_by(name)
        if setting is not None:
            raise ConfigurationError(f"grid axis {cfg.grid.axis} sweeps {name}, which {setting} holds at 0, "
                                     "so its cells would train the same model")
    cell_dirs = [out_dir / f"cell_lu{lu:g}_lf{lf:g}" for lu, lf in cells]
    shared = next((d for d in cell_dirs if cell_dirs.count(d) > 1), None)
    if shared is not None:
        raise ConfigurationError(f"two grid cells would write to {shared}; "
                                 "grid values must differ in their first 6 significant digits")
    cell_cfgs = [replace(cfg, train=replace(cfg.train, weights=LossWeights(lu, lf))) for lu, lf in cells]
    workers = min(args.threads, len(cells))  # a fork pool starts every worker at the first submit
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only a pool needs it

        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_datasets,
                                 initargs=(datasets,)) as pool:
            results = list(pool.map(_train_cell, cell_cfgs, cell_dirs))
    else:
        results = list(map(_train, cell_cfgs, repeat(datasets), cell_dirs))
    stage("write-reports")
    rows = [[repr(lu), repr(lf), *(repr(stat[m]) for stat in (mean, std) for m in METRIC_NAMES)]
            for (lu, lf), (mean, std) in zip(cells, results)]
    header = ["lambda_u", "lambda_f", *(f"{stat}_{m}" for stat in ("mean", "std") for m in METRIC_NAMES)]
    _write_csv(out_dir / "gridsearch.csv", header, rows)
    width = 2 + len(METRIC_NAMES)
    _write_csv(out_dir / "grid_plot.csv", header[:width], [row[:width] for row in rows])
    print(f"gridsearch finished: {len(cells)} cells -> {out_dir / 'gridsearch.csv'}")
    return 0


def _load_matrix(path: str) -> np.ndarray:
    matrix, bad = parse_rows(read_lines(path), skip_blank=True)
    if bad is not None:
        index, _, error = bad
        if error is not None:
            raise ParseError(f"{path}:{index + 1}: non-numeric cell ({error})")
        raise ParseError(f"{path}:{index + 1}: ragged row")
    if not len(matrix):
        raise ParseError(f"{path}: empty matrix file")
    return matrix


def _eval(args, stage) -> int:
    scores = _load_matrix(args.scores)
    labels = _load_matrix(args.labels)
    if scores.shape != labels.shape:
        raise ConfigurationError(f"scores {scores.shape} and labels {labels.shape} differ in shape")
    report = metrics.compute_all(scores, labels)
    for name in METRIC_NAMES:
        print(f"{name}: {report.value(name):.6f}")
    for key, count in report.skipped.items():
        if count:
            print(f"skipped {key}: {count}")
    if args.out is not None:
        _write_csv(Path(args.out) / "metrics_report.csv", CSV_COLUMNS, [report.to_csv_row()])
    return 0


def cmd_eval(scores_path: str, labels_path: str, out_dir: str | None = None) -> int:
    """`ecgmatch eval --scores scores_path --labels labels_path [--out out_dir]`: its exit code."""
    return _guarded(_eval, argparse.Namespace(scores=scores_path, labels=labels_path, out=out_dir))


def _read_reports(pattern: str):
    """(model, dataset) -> list of MetricsReport across seeds; a seed reported twice is a ParseError."""
    cells, seen = {}, {}  # seen: (model, dataset, seed) -> the path:line that reported it
    paths = sorted(globmod.glob(pattern, recursive=True))
    if not paths:
        raise ConfigurationError(f"no report files match {pattern!r}")
    for path in paths:
        reader = csv.reader(line + "\n" for line in read_lines(path))  # a quoted cell keeps its line breaks
        header = next(reader, None)
        if header != REPORT_HEADER:
            raise ParseError(f"{path}: unexpected header {header}")
        for row in reader:
            here = f"{path}:{reader.line_num}"
            try:
                report = metrics.MetricsReport.from_csv_row(row[3:])
            except ValueError as exc:
                raise ParseError(f"{here}: {exc}") from None
            first = seen.setdefault(tuple(row[:3]), here)
            if first != here:
                raise ParseError(f"seed {row[2]} of model {row[0]!r} on dataset {row[1]!r} is reported twice, "
                                 f"at {first} and {here}")
            cells.setdefault((row[0], row[1]), []).append(report)
    return cells


def _compare(args, stage) -> int:
    control_name, alpha = args.control, args.alpha
    cells = _read_reports(args.reports)
    models = sorted({m for m, _ in cells})
    datasets = sorted({d for _, d in cells})
    if len(models) < 2 or len(datasets) < 2:
        raise ConfigurationError(
            f"need >= 2 models and >= 2 datasets, found {len(models)} / {len(datasets)}"
        )
    if control_name not in models:
        raise ConfigurationError(f"control {control_name!r} not among models {models}")
    missing = [(m, d) for m in models for d in datasets if (m, d) not in cells]
    if missing:
        raise ConfigurationError(f"missing (model, dataset) cells: {missing}")
    means = {cell: metrics.seed_mean_std(reports)[0] for cell, reports in cells.items()}
    k, n = len(models), len(datasets)
    cd = stats.bonferroni_dunn_cd(k, n, alpha)
    fcrit = stats.f_critical_value(k, n, alpha)
    control_idx = models.index(control_name)
    rows = []
    for metric_name in METRIC_NAMES:
        values = np.array([[means[(m, d)][metric_name] for m in models] for d in datasets])
        undefined = np.argwhere(~np.isfinite(values))
        if undefined.size:
            i, j = undefined[0]
            raise ConfigurationError(f"{metric_name} of model {models[j]!r} on dataset {datasets[i]!r} "
                                     "has no finite seed mean")
        ranks = stats.rank_models(stats.PerformanceTable(values, metrics.HIGHER_IS_BETTER[metric_name]))
        chi2, ff = stats.friedman_statistic(ranks)
        differences, significant = stats.dunn_compare(ranks, control_idx, cd)
        for j, model in enumerate(models):
            rows.append([
                metric_name, model, repr(float(ranks.mean_ranks[j])), repr(float(differences[j])),
                "control" if j == control_idx else str(significant[j]).lower(),
                repr(float(chi2)), repr(float(ff)), repr(fcrit),
                repr(stats.REFERENCE_CRITICAL_VALUE_K8_N4), repr(cd),
            ])
    print(f"critical difference (k={k}, N={n}, alpha={alpha}): {cd:.4f}")
    for row in rows:
        if row[4] == "true":
            print(f"{row[0]}: {control_name} vs {row[1]} significant (rank diff {float(row[3]):.3f})")
    if args.out is not None:
        out = Path(args.out)
        _write_csv(out / "comparison.csv", COMPARISON_HEADER, rows)
        _write_csv(out / "cd_plot.csv", [*COMPARISON_HEADER[:3], COMPARISON_HEADER[-1]],
                   [[*row[:3], row[-1]] for row in rows])
    return 0


def _annotate(args, stage) -> int:
    am = AnnotationMap.from_file(args.map) if args.map else AnnotationMap.default()
    lines = [line.strip() for line in read_lines(args.terms)]
    print("classes: " + ",".join(SUPERCLASSES))
    unmappable = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        terms = [t for t in line.split(";") if t.strip()]
        try:
            vector = map_annotations(terms, am)
        except ParseError:
            unmappable.append((lineno, line))
            continue
        print(f"{line} -> " + ",".join(str(int(v)) for v in vector))
    if unmappable:
        print("unmappable lines:", file=sys.stderr)
        for lineno, line in unmappable:
            print(f"  {lineno}: {line}", file=sys.stderr)
        return 1
    return 0


def _synth(args, stage) -> int:
    stage("load-config")
    cfg = load_experiment_config(args.config)
    if cfg.data.synth is None:
        raise ConfigurationError("config has no data.synth section")
    stage("generate")
    ds = synth_generate(cfg.data.synth)
    stage("write-dataset")
    out = Path(args.out_file)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, ds, cfg.data.format)
    from .correlation import correlation_matrix

    manifest = {
        "n_samples": len(ds),
        "num_classes": ds.num_classes,
        "empirical_marginals": [float(m) for m in ds.labels.mean(axis=0)],
        "empirical_label_correlation": [
            [float(v) for v in row] for row in correlation_matrix(ds.labels, "cosine")
        ],
    }
    stage("write-manifest")
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecgmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", default=None, help="run a single seed instead of the configured list")

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.set_defaults(body=_run)
    p_run.add_argument("--config", required=True)
    common(p_run)

    p_grid = sub.add_parser("gridsearch", help="sweep the loss-weight grid")
    p_grid.set_defaults(body=_gridsearch)
    p_grid.add_argument("--config", required=True)
    common(p_grid)
    p_grid.add_argument("--threads", type=int, default=None, help="worker processes for grid cells (default 1)")

    p_eval = sub.add_parser("eval", help="metrics for external score/label matrices")
    p_eval.set_defaults(body=_eval)
    p_eval.add_argument("--scores", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="rank-based model comparison from report CSVs")
    p_cmp.set_defaults(body=_compare)
    p_cmp.add_argument("--reports", required=True, help="glob of reports.csv files")
    p_cmp.add_argument("--control", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--alpha", type=float, default=0.05)

    p_ann = sub.add_parser("annotate", help="map diagnosis terms to superclass vectors")
    p_ann.set_defaults(body=_annotate)
    p_ann.add_argument("--terms", required=True)
    p_ann.add_argument("--map", default=None)

    p_syn = sub.add_parser("synth", help="generate a synthetic dataset plus manifest")
    p_syn.set_defaults(body=_synth)
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--out-file", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _guarded(args.body, args)


if __name__ == "__main__":
    sys.exit(main())
