"""Command-line entry points.

Verbs: run, gridsearch, eval, compare, annotate, synth. Exit codes: 0 on
success, 1 on runtime failure (message carries the failing stage), 2 on
configuration or parse problems. Flag defaults can be overridden with
environment variables prefixed ECGMATCH_ (ECGMATCH_OUT, ECGMATCH_SEED,
ECGMATCH_THREADS).
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics, stats, trainer
from .config import ExperimentConfig, load_experiment_config
from .data import (AnnotationMap, SUPERCLASSES, load_dataset, map_annotations, parse_rows, read_lines,
                   save_dataset, synth_generate)
from .errors import ConfigurationError, ParseError
from .metrics import CSV_COLUMNS, METRIC_NAMES
from .nn import save_params

REPORT_HEADER = ["model", "dataset", "seed", *CSV_COLUMNS]
SUMMARY_HEADER = ["model", "dataset", "stat", *METRIC_NAMES]
LOG_HEADER = ["step", "epoch", "lb", "lu", "lf", "lr", "val_metric"]
COMPARISON_HEADER = [
    "metric", "model", "mean_rank", "rank_diff_vs_control", "significant",
    "chi2_f", "f_f", "f_critical_0.05", "reference_critical_value", "cd",
]


def _env(name: str, default):
    return os.environ.get(f"ECGMATCH_{name}", default)


def _load_datasets(cfg: ExperimentConfig):
    if cfg.data.synth is not None:
        return [synth_generate(cfg.data.synth)]
    return [load_dataset(p, cfg.data.format) for p in cfg.data.paths]


def _dataset_label(cfg: ExperimentConfig, datasets) -> str:
    if cfg.split.protocol == "within":
        return datasets[0].dataset_id
    if cfg.split.protocol == "cross":
        return cfg.split.held_out_dataset or "cross"
    return "mix"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_run_outputs(out_dir: Path, cfg: ExperimentConfig, result, dataset_label: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
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
        if sr.final_params is not None:
            save_params(ckpt_dir / f"student_seed{sr.seed}.bin", sr.final_params)


def _int_env(name: str, default):
    """ECGMATCH_<NAME> if set, else the flag value `default`, as an integer (None stays None)."""
    value = _env(name, default)
    try:
        return None if value is None else int(value)
    except ValueError:
        raise ConfigurationError(f"{name.lower()} override must be an integer, got {value!r}") from None


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    out = _env("OUT", args.out)
    seed = _int_env("SEED", args.seed)
    if out is not None:
        cfg = replace(cfg, output_dir=str(out))
    if seed is not None:
        cfg = replace(cfg, seeds=(seed,))
    return cfg


def cmd_run(config_path: str, args=None) -> int:
    stage = "load-config"
    try:
        cfg = load_experiment_config(config_path)
        if args is not None:
            cfg = _apply_overrides(cfg, args)
        stage = "load-data"
        datasets = _load_datasets(cfg)
        stage = "train"
        result = trainer.run_experiment(datasets, cfg.split, cfg.train, cfg.seeds,
                                        metric_threshold=cfg.metrics.threshold,
                                        gbeta_beta=cfg.metrics.gbeta_beta)
        stage = "write-reports"
        _write_run_outputs(Path(cfg.output_dir), cfg, result, _dataset_label(cfg, datasets))
    except (ConfigurationError, ParseError, FileNotFoundError) as exc:
        print(f"configuration error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1
    for name in METRIC_NAMES:
        print(f"{name}: mean={result.mean[name]:.4f} std={result.std[name]:.4f}")
    return 0


def _grid_cells(cfg: ExperimentConfig):
    if cfg.grid.axis == "cartesian":
        return [(lu, lf) for lu in cfg.grid.values for lf in cfg.grid.values]
    if cfg.grid.axis == "lambda_f":
        return [(cfg.grid.fixed, lf) for lf in cfg.grid.values]
    return [(lu, cfg.grid.fixed) for lu in cfg.grid.values]


def _run_grid_cell(config_path: str, lu: float, lf: float, cell_dir: str, seeds):
    """Worker for one grid cell; re-loads everything so cells parallelize cleanly.

    `seeds` carries the --seed / ECGMATCH_SEED override, which the reloaded
    file does not have.
    """
    cfg = load_experiment_config(config_path)
    cfg = replace(cfg, output_dir=cell_dir, seeds=seeds)
    cfg = replace(cfg, train=replace(cfg.train, weights=type(cfg.train.weights)(lu, lf)))
    datasets = _load_datasets(cfg)
    result = trainer.run_experiment(datasets, cfg.split, cfg.train, cfg.seeds,
                                    metric_threshold=cfg.metrics.threshold,
                                    gbeta_beta=cfg.metrics.gbeta_beta)
    _write_run_outputs(Path(cell_dir), cfg, result, _dataset_label(cfg, datasets))
    return lu, lf, result.mean, result.std


def cmd_gridsearch(config_path: str, args=None) -> int:
    stage = "load-config"
    try:
        cfg = load_experiment_config(config_path)
        if args is not None:
            cfg = _apply_overrides(cfg, args)
        cells = _grid_cells(cfg)
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        threads = _int_env("THREADS", getattr(args, "threads", 1) or 1)
        stage = "train"
        jobs = [
            (config_path, lu, lf, str(out_dir / f"cell_lu{lu:g}_lf{lf:g}"), cfg.seeds)
            for lu, lf in cells
        ]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_run_grid_cell, *zip(*jobs)))
        else:
            results = [_run_grid_cell(*job) for job in jobs]
        stage = "write-reports"
        rows = [
            [repr(lu), repr(lf), *(repr(mean[m]) for m in METRIC_NAMES),
             *(repr(std[m]) for m in METRIC_NAMES)]
            for lu, lf, mean, std in results
        ]
        header = ["lambda_u", "lambda_f",
                  *(f"mean_{m}" for m in METRIC_NAMES),
                  *(f"std_{m}" for m in METRIC_NAMES)]
        _write_csv(out_dir / "gridsearch.csv", header, rows)
        _write_csv(out_dir / "grid_plot.csv",
                   ["lambda_u", "lambda_f", *(f"mean_{m}" for m in METRIC_NAMES)],
                   [row[: 2 + len(METRIC_NAMES)] for row in rows])
    except (ConfigurationError, ParseError, FileNotFoundError) as exc:
        print(f"configuration error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1
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


def cmd_eval(scores_path: str, labels_path: str, out_dir: str | None = None) -> int:
    try:
        scores = _load_matrix(scores_path)
        labels = _load_matrix(labels_path)
        if scores.shape != labels.shape:
            raise ConfigurationError(
                f"scores {scores.shape} and labels {labels.shape} differ in shape"
            )
        report = metrics.compute_all(scores, labels)
    except (ConfigurationError, ParseError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in METRIC_NAMES:
        print(f"{name}: {report.value(name):.6f}")
    for key, count in report.skipped.items():
        if count:
            print(f"skipped {key}: {count}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "metrics_report.csv", CSV_COLUMNS, [report.to_csv_row()])
    return 0


def _read_reports(pattern: str):
    """(model, dataset) -> list of MetricsReport across seeds."""
    cells: dict = {}
    paths = sorted(globmod.glob(pattern, recursive=True))
    if not paths:
        raise ConfigurationError(f"no report files match {pattern!r}")
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != REPORT_HEADER:
                raise ParseError(f"{path}: unexpected header {header}")
            for row in reader:
                try:
                    report = metrics.MetricsReport.from_csv_row(row[3:])
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
                cells.setdefault((row[0], row[1]), []).append(report)
    return cells


def cmd_compare(report_glob: str, control_name: str, out_dir: str | None = None,
                alpha: float = 0.05) -> int:
    try:
        cells = _read_reports(report_glob)
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
        k, n = len(models), len(datasets)
        cd = stats.bonferroni_dunn_cd(k, n, alpha)
        control_idx = models.index(control_name)
        rows, plot_rows = [], []
        for metric_name in METRIC_NAMES:
            values = np.array([
                [np.mean([r.value(metric_name) for r in cells[(m, d)]]) for m in models]
                for d in datasets
            ])
            table = stats.PerformanceTable(values, metrics.HIGHER_IS_BETTER[metric_name])
            ranks = stats.rank_models(table)
            chi2, ff = stats.friedman_statistic(ranks)
            fcrit = stats.f_critical_value(k, n, alpha)
            verdicts = {v.model_index: v for v in stats.dunn_compare(ranks, control_idx, cd)}
            for j, model in enumerate(models):
                verdict = verdicts.get(j)
                rows.append([
                    metric_name, model, repr(float(ranks.mean_ranks[j])),
                    repr(verdict.rank_difference) if verdict else "0.0",
                    str(verdict.significant).lower() if verdict else "control",
                    repr(float(chi2)), repr(float(ff)), repr(fcrit),
                    repr(stats.REFERENCE_CRITICAL_VALUE_K8_N4), repr(cd),
                ])
                plot_rows.append([metric_name, model, repr(float(ranks.mean_ranks[j])), repr(cd)])
    except (ConfigurationError, ParseError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"critical difference (k={k}, N={n}, alpha={alpha}): {cd:.4f}")
    for row in rows:
        if row[4] == "true":
            print(f"{row[0]}: {control_name} vs {row[1]} significant (rank diff {float(row[3]):.3f})")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "comparison.csv", COMPARISON_HEADER, rows)
        _write_csv(out / "cd_plot.csv", ["metric", "model", "mean_rank", "cd"], plot_rows)
    return 0


def cmd_annotate(terms_file: str, map_file: str | None = None) -> int:
    try:
        am = AnnotationMap.from_file(map_file) if map_file else AnnotationMap.default()
        with open(terms_file) as fh:
            lines = [line.strip() for line in fh]
    except (ParseError, FileNotFoundError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
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


def cmd_synth(config_path: str, out_path: str) -> int:
    stage = "load-config"
    try:
        cfg = load_experiment_config(config_path)
        if cfg.data.synth is None:
            raise ConfigurationError("config has no data.synth section")
        stage = "generate"
        ds = synth_generate(cfg.data.synth)
        stage = "write-dataset"
        out = Path(out_path)
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
        stage = "write-manifest"
        manifest_path = out.with_suffix(out.suffix + ".manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (ConfigurationError, ParseError, FileNotFoundError) as exc:
        print(f"configuration error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out} and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecgmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", default=None, help="run a single seed instead of the configured list")

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    common(p_run)

    p_grid = sub.add_parser("gridsearch", help="sweep the loss-weight grid")
    p_grid.add_argument("--config", required=True)
    common(p_grid)
    p_grid.add_argument("--threads", type=int, default=1, help="worker processes for grid cells")

    p_eval = sub.add_parser("eval", help="metrics for external score/label matrices")
    p_eval.add_argument("--scores", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="rank-based model comparison from report CSVs")
    p_cmp.add_argument("--reports", required=True, help="glob of reports.csv files")
    p_cmp.add_argument("--control", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--alpha", type=float, default=0.05)

    p_ann = sub.add_parser("annotate", help="map diagnosis terms to superclass vectors")
    p_ann.add_argument("--terms", required=True)
    p_ann.add_argument("--map", default=None)

    p_syn = sub.add_parser("synth", help="generate a synthetic dataset plus manifest")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--out-file", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args)
    if args.command == "gridsearch":
        return cmd_gridsearch(args.config, args)
    if args.command == "eval":
        return cmd_eval(args.scores, args.labels, args.out)
    if args.command == "compare":
        return cmd_compare(args.reports, args.control, args.out, args.alpha)
    if args.command == "annotate":
        return cmd_annotate(args.terms, args.map)
    if args.command == "synth":
        return cmd_synth(args.config, args.out_file)
    return 2


if __name__ == "__main__":
    sys.exit(main())
