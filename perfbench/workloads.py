"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload calls the library through module attributes
(`trainer.run_experiment`, `cli.cmd_eval`, ...), so the tracer's wrappers
see the calls. A pass returns an opaque outcome; `rows` turns it into report
rows (strings) outside the timed phase, and the checks compare those rows.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.special import expit

from ecgmatch import cli, data, metrics, nn, pseudo, trainer

import oracles


# Public functions the traced run wraps, with the work each call is handed.
TRACE_TARGETS = {
    "trainer.run_experiment": None,
    "trainer.pretrain_teacher": None,
    "trainer.init_train_state": None,
    "trainer.ssl_train": None,
    "trainer.train_step": None,
    "trainer.evaluate_model": lambda a: len(a["subset"]),
    "augment.augment_batch": lambda a: len(a["signals"]),
    "data.synth_generate": None,
    "data.split": None,
    "data.encode_subset": lambda a: len(a["signals"]),
    "nn.forward": lambda a: np.shape(a["batch"])[0],
    "nn.backward": None,
    "nn.sgd_step": None,
    "nn.ema_update": None,
    "pseudo.bank_init": None,
    "pseudo.bank_update": None,
    "pseudo.generate_pseudo_labels": lambda a: np.shape(a["query_features"])[0] * a["banks"].size,
    "correlation.correlation_matrix": None,
    "correlation.correlation_matrix_backward": None,
    "metrics.compute_all": lambda a: np.shape(a["scores"])[0],
    "metrics.ranking_loss": None,
    "metrics.coverage": None,
    "metrics.mean_average_precision": None,
    "metrics.macro_auc": None,
    "cli.cmd_eval": None,
}

_SSL_CALLED = tuple(n for n in TRACE_TARGETS
                    if n.split(".")[0] in ("trainer", "augment", "data", "nn", "pseudo", "correlation")
                    ) + ("metrics.compute_all",)
_EVAL_CALLED = ("cli.cmd_eval", "metrics.compute_all", "metrics.ranking_loss", "metrics.coverage",
                "metrics.mean_average_precision", "metrics.macro_auc")


def _finite_report(row: str) -> bool:
    cells = row.split(",")
    return len(cells) == len(metrics.CSV_COLUMNS) and all(math.isfinite(float(v)) for v in cells[:6])


class SslWorkload:
    """One `trainer.run_experiment` call for one seed on synthetic data.

    The workload seed picks the synthetic dataset (`synth_seed0 + seed`) and
    the split and training seed. Early-stopping patience sits above the
    epoch caps, so every seed trains the same number of epochs and the
    timed work does not depend on the seed.
    """

    expected_calls = _SSL_CALLED

    def __init__(self, name: str, seed: int, synth: dict, train: dict, synth_seed0: int = 0):
        self.name = name
        self.seed = seed
        self.synth = data.SynthConfig(**synth, seed=synth_seed0 + seed)
        self.spec = data.SplitSpec(protocol="within", labeled_frac=0.05, seed=seed)
        self.cfg = trainer.TrainConfig(**train, seed=seed)
        self.dataset = None

    def setup(self) -> None:
        self.dataset = None  # never hold two copies: peak_rss_mb counts set-up too
        self.dataset = data.synth_generate(self.synth)

    def run_pass(self):
        return trainer.run_experiment([self.dataset], self.spec, self.cfg, [self.seed])

    def rows(self, outcome) -> list[str]:
        return [",".join(sr.report.to_csv_row()) for sr in outcome.per_seed]

    def check_rows(self, rows) -> list[tuple[str, bool]]:
        return [("test report has finite metrics", len(rows) == 1 and _finite_report(rows[0]))]

    def final_checks(self, rows) -> list[tuple[str, bool]]:
        return []

    def eval_rows(self) -> int:
        """Distinct validation plus test rows, the base of the re-encode ratio."""
        splits = data.split([self.dataset], self.spec)
        return len(splits.val) + len(splits.test)

    def traced_extras(self) -> None:
        pass

    def close(self) -> None:
        self.dataset = None


EVAL_FILES = (
    # name, rows, classes, score quantum (None keeps full precision)
    ("continuous", 16000, 5, None),
    ("quantised", 16000, 5, 0.01),
    ("wide", 4000, 24, None),
)


class EvalWorkload:
    """`cli.cmd_eval` on generated score/label CSVs, one call per file per pass.

    The quantised file holds the continuous file's scores rounded to the
    quantum, so it differs only in how many scores tie.
    """

    expected_calls = _EVAL_CALLED
    oracle_rows = 400

    def __init__(self, name: str, seed: int, workdir: Path, files=EVAL_FILES):
        self.name = name
        self.seed = seed
        self.files = files
        self.workdir = Path(workdir)
        self.arrays: dict = {}

    def _generate(self) -> dict:
        g = np.random.default_rng(self.seed)
        arrays, base = {}, {}
        for name, n, c, quantum in self.files:
            if (n, c) not in base:
                # fixed marginals: the seed moves the draws, not the amount of work
                labels = (g.random((n, c)) < np.linspace(0.1, 0.4, c)).astype(float)
                scores = expit(g.normal(size=(n, c)) + 1.5 * (2.0 * labels - 1.0))
                base[(n, c)] = (scores, labels)
            scores, labels = base[(n, c)]
            if quantum is not None:
                scores = np.round(scores / quantum) * quantum
            arrays[name] = (scores, labels)
        return arrays

    def setup(self) -> None:
        self.arrays = self._generate()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, (scores, labels) in self.arrays.items():
            # 17 significant digits round-trip every float64 exactly
            np.savetxt(self.workdir / f"{name}_scores.csv", scores, delimiter=",", fmt="%.17g")
            np.savetxt(self.workdir / f"{name}_labels.csv", labels, delimiter=",", fmt="%d")

    def run_pass(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for name in self.arrays:
                codes.append(cli.cmd_eval(str(self.workdir / f"{name}_scores.csv"),
                                          str(self.workdir / f"{name}_labels.csv"),
                                          str(self.workdir / f"{name}_out")))
        return codes

    def rows(self, outcome) -> list[str]:
        rows = []
        for code, name in zip(outcome, self.arrays):
            report = self.workdir / f"{name}_out" / "metrics_report.csv"
            lines = report.read_text().splitlines() if code == 0 and report.exists() else []
            rows.append(lines[1] if len(lines) == 2 else f"exit {code}")
        return rows

    def check_rows(self, rows) -> list[tuple[str, bool]]:
        return [(f"{name}: cmd_eval report has finite metrics", _finite_report(row))
                for name, row in zip(self.arrays, rows)]

    def final_checks(self, rows) -> list[tuple[str, bool]]:
        """Oracles: all six metrics on a row subsample, the linear ones on every row."""
        out = []
        g = np.random.default_rng([self.seed, 1])
        for (name, (scores, labels)), row in zip(self.arrays.items(), rows):
            picks = np.sort(g.choice(scores.shape[0], size=min(self.oracle_rows, scores.shape[0]),
                                     replace=False))
            s, y = scores[picks], labels[picks]
            report = metrics.compute_all(s, y)
            ok = True
            for metric, oracle in oracles.METRIC_ORACLES.items():
                try:
                    want = oracle(s.tolist(), y.tolist())
                except ValueError:  # undefined on this sample: compute_all reports NaN
                    want = float("nan")
                got = report.value(metric)
                ok &= (math.isnan(got) and math.isnan(want)) or abs(got - want) <= 1e-9
            out.append((f"{name}: compute_all matches oracles on {len(picks)} rows", ok))
            cells = row.split(",")
            full_ok = len(cells) == len(metrics.CSV_COLUMNS) and (
                abs(float(cells[1]) - oracles.hamming_loss_oracle(scores.tolist(), labels.tolist())) <= 1e-9
                and abs(float(cells[5]) - oracles.macro_gbeta_oracle(scores.tolist(), labels.tolist())) <= 1e-9
            )
            out.append((f"{name}: cmd_eval hamming and G-beta match oracles on all rows", full_ok))
        return out

    def eval_rows(self) -> int:
        return 0

    def traced_extras(self) -> None:
        """The four quadratic metrics, called one by one on each file."""
        for scores, labels in self.arrays.values():
            sm = metrics.ScoreMatrix(scores, labels)
            for fn in (metrics.ranking_loss, metrics.coverage, metrics.mean_average_precision,
                       metrics.macro_auc):
                fn(sm)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _acceptance_latent() -> np.ndarray:
    latent = np.eye(5)
    latent[0, 1] = latent[1, 0] = 0.45
    latent[2, 3] = latent[3, 2] = 0.4
    latent[1, 4] = latent[4, 1] = -0.35
    return latent


def ssl_acceptance(seed: int, workdir: Path, small: bool = False) -> SslWorkload:
    """The `test_end_to_end_directional` configuration, one training seed.

    Its early stopping would end pretraining and SSL after a seed-dependent
    number of epochs; with patience above the caps every seed runs all 150
    and 60 epochs. At seed 0 the best checkpoint, and so the report, is the
    one the early-stopped run keeps.
    """
    synth = dict(n_samples=300 if small else 2000, noise_level=1.2, channels=2, signal_length=64,
                 target_correlation=_acceptance_latent())
    pretrain_epochs, ssl_epochs = (2, 2) if small else (150, 60)
    train = dict(
        batch_labeled=64, batch_unlabeled=256, knn=pseudo.KnnConfig(k=10),
        weights=nn.LossWeights(0.8, 0.8),
        optimizer=nn.OptimizerConfig(lr0=0.05, max_steps=1000, ema_momentum=0.99),
        max_epochs=ssl_epochs, patience=ssl_epochs + 1, hidden_dims=(64,), feature_dim=32,
        head_hidden=32, pool_len=16, pretrain_max_epochs=pretrain_epochs,
        pretrain_patience=pretrain_epochs + 1,
    )
    return SslWorkload("ssl_acceptance_small" if small else "ssl_acceptance", seed, synth, train,
                       synth_seed0=99)


def ssl_wide(seed: int, workdir: Path, small: bool = False) -> SslWorkload:
    """Paper-shaped signals and the default model; a few fixed epochs on a large bank."""
    synth = dict(n_samples=300 if small else 8000, channels=3, signal_length=256)
    train = dict(pretrain_max_epochs=2, pretrain_patience=3, max_epochs=2, patience=3)
    return SslWorkload("ssl_wide_small" if small else "ssl_wide", seed, synth, train)


def eval_large(seed: int, workdir: Path, small: bool = False) -> EvalWorkload:
    files = tuple((name, max(1, n // 40), c, q) for name, n, c, q in EVAL_FILES) if small else EVAL_FILES
    return EvalWorkload("eval_large_small" if small else "eval_large", seed, workdir, files)


WORKLOADS = {"ssl_acceptance": ssl_acceptance, "ssl_wide": ssl_wide, "eval_large": eval_large}
