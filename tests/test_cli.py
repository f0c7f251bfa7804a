import concurrent.futures
import copyreg
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgmatch import cli, data, trainer
from ecgmatch.cli import REPORT_HEADER, main


def smoke_config(tmp_path, out_name="run", **overrides):
    doc = {
        "output_dir": str(tmp_path / out_name),
        "seeds": [0],
        "data": {"synth": {"n_samples": 200, "channels": 2, "signal_length": 64,
                           "noise_level": 0.2, "seed": 0}},
        "split": {"protocol": "within", "labeled_frac": 0.2},
        "train": {
            "batch_labeled": 16, "batch_unlabeled": 32, "max_epochs": 2, "patience": 2,
            "hidden_dims": [32], "feature_dim": 16, "head_hidden": 16, "pool_len": 8,
            "pretrain_max_epochs": 3, "pretrain_patience": 2,
            "knn": {"k": 5}, "optimizer": {"max_steps": 100},
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_unknown_key_exits_2(tmp_path):
    path, doc = smoke_config(tmp_path)
    doc["trian"] = {}
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2


def test_run_smoke_writes_reports_with_finite_metrics(tmp_path, capsys):
    path, doc = smoke_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    rows = read_csv(tmp_path / "run" / "reports.csv")
    assert rows[0] == REPORT_HEADER
    assert len(rows) == 2  # header + one seed
    values = [float(v) for v in rows[1][3:9]]
    assert all(np.isfinite(values))
    log_rows = read_csv(tmp_path / "run" / "train_log_seed0.csv")
    assert log_rows[0] == ["step", "epoch", "lb", "lu", "lf", "lr", "val_metric"]
    assert (tmp_path / "run" / "checkpoints" / "student_seed0.bin").exists()


def test_run_raw_dataset_with_oversized_header_exits_2(tmp_path, capsys):
    dataset = tmp_path / "ds.bin"
    dataset.write_bytes(data._RAW_HEADER.pack(2**62, 3, 4, 5) + bytes(64))
    path, _ = smoke_config(tmp_path, data={"paths": [str(dataset)], "format": "raw_f32"})
    assert main(["run", "--config", str(path)]) == 2
    assert "truncated label block" in capsys.readouterr().err


def test_run_raw_dataset_with_zero_byte_samples_exits_2(tmp_path, capsys):
    dataset = tmp_path / "ds.bin"
    dataset.write_bytes(data._RAW_HEADER.pack(200000, 0, 5, 0))
    path, _ = smoke_config(tmp_path, data={"paths": [str(dataset)], "format": "raw_f32"})
    assert main(["run", "--config", str(path)]) == 2
    assert "zero-byte signal block" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    (bytes(31), "truncated header (offset 0)"),
    (data._RAW_HEADER.pack(2, -1, 4, 5), "negative header field"),
    (data._RAW_HEADER.pack(1, 1, 2, 2) + np.array([0.5, 1.0, 0.0, 0.0], "<f4").tobytes(), "non-binary label value"),
    (data._RAW_HEADER.pack(3, 1, 2, 1) + np.array([1, 0, 1, 0.5, 1, np.nan, 2, np.inf, 3], "<f4").tobytes(),
     "non-finite signal value in sample 1"),
], ids=["shorter than the header", "negative field", "non-binary label", "non-finite signal"])
def test_run_on_a_malformed_raw_dataset_exits_2_in_load_data(tmp_path, capsys, raw, message):
    dataset = tmp_path / "ds.bin"
    dataset.write_bytes(raw)
    path, _ = smoke_config(tmp_path, data={"paths": [str(dataset)], "format": "raw_f32"})
    assert main(["run", "--config", str(path)]) == 2
    assert f"configuration error in stage load-data: {dataset}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_run_on_a_non_finite_csv_signal_exits_2_in_load_data(tmp_path, capsys, bad):
    ds = data.synth_generate(data.SynthConfig(n_samples=120, channels=2, signal_length=32, seed=0))
    ds.signals[0, 0, 0] = float(bad)
    dataset = tmp_path / "ds.csv"
    data.save_dataset(dataset, ds)
    path, _ = smoke_config(tmp_path, data={"paths": [str(dataset)]}, split={"labeled_frac": 0.3})
    assert main(["run", "--config", str(path)]) == 2
    assert f"configuration error in stage load-data: {dataset}:3: non-finite signal cell" in capsys.readouterr().err


def _csv_datasets(tmp_path, names):
    for seed, name in enumerate(names):
        ds = data.synth_generate(data.SynthConfig(n_samples=100, channels=2, signal_length=64, seed=seed))
        data.save_dataset(tmp_path / name, ds)
    return [str(tmp_path / name) for name in names]


@pytest.mark.parametrize("protocol", ["mix", "cross"])
def test_run_on_data_paths_labels_its_reports_by_the_protocol(tmp_path, protocol):
    paths = _csv_datasets(tmp_path, ["a.csv", "b.csv"])
    split = {"protocol": protocol, "labeled_frac": 0.2, "held_out_dataset": paths[1]}
    if protocol == "mix":
        del split["held_out_dataset"]
    config, _ = smoke_config(tmp_path, data={"paths": paths}, split=split)
    assert main(["run", "--config", str(config)]) == 0
    label = "mix" if protocol == "mix" else paths[1]
    assert [row[1] for row in read_csv(tmp_path / "run" / "reports.csv")[1:]] == [label]
    assert [row[1] for row in read_csv(tmp_path / "run" / "summary.csv")[1:]] == [label, label]


@pytest.mark.parametrize("protocol", ["mix", "cross"])
def test_a_repeated_data_path_exits_2_in_train_before_training(tmp_path, monkeypatch, capsys, protocol):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    paths = _csv_datasets(tmp_path, ["a.csv", "b.csv"])
    split = {"protocol": protocol, "held_out_dataset": paths[0]}
    if protocol == "mix":
        del split["held_out_dataset"]
    config, _ = smoke_config(tmp_path, data={"paths": paths + paths[:1]}, split=split)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error in stage train: dataset ids must be distinct, {paths[0]!r} is repeated" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
@pytest.mark.parametrize("protocol", ["mix", "cross"])
def test_two_spellings_of_one_data_file_exit_2_in_load_data(tmp_path, monkeypatch, capsys, verb, protocol):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    paths = _csv_datasets(tmp_path, ["a.csv", "b.csv"])
    again = f"{tmp_path}/./a.csv"  # the file of paths[0], under an id of its own
    split = {"protocol": protocol, "held_out_dataset": paths[0]}
    if protocol == "mix":
        del split["held_out_dataset"]
    config, _ = smoke_config(tmp_path, data={"paths": paths + [again]}, split=split)
    assert main([verb, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error in stage load-data: data paths {paths[0]!r} and {again!r} name the same file" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
def test_a_pool_len_below_1_exits_2_in_load_config_naming_the_key(tmp_path, capsys, verb):
    config, doc = smoke_config(tmp_path)
    doc["train"]["pool_len"] = 0
    config.write_text(json.dumps(doc))
    assert main([verb, "--config", str(config)]) == 2
    assert "configuration error in stage load-config: pool_len must be at least 1, got 0" in capsys.readouterr().err


# a key that must not be negative, a negative value for it, and the message naming it
NEGATIVE_KEYS = {
    "seeds": (("seeds",), [-1], "seeds must be nonnegative, got [-1]"),
    "synth_seed": (("data", "synth", "seed"), -3, "data.synth.seed must be nonnegative, got -3"),
    "gbeta_beta": (("metrics", "gbeta_beta"), -0.5, "gbeta_beta must be nonnegative, got -0.5"),
}


@pytest.mark.parametrize("verb, case", [*((verb, case) for verb in ("run", "gridsearch") for case in NEGATIVE_KEYS),
                                        ("synth", "synth_seed")])
def test_a_negative_seed_or_gbeta_beta_exits_2_in_load_config_naming_the_key(tmp_path, capsys, verb, case):
    (*sections, key), value, message = NEGATIVE_KEYS[case]
    config, doc = smoke_config(tmp_path)
    where = doc
    for section in sections:
        where = where.setdefault(section, {})
    where[key] = value
    config.write_text(json.dumps(doc))
    out_file = ["--out-file", str(tmp_path / "ds.csv")] if verb == "synth" else []
    assert main([verb, "--config", str(config), *out_file]) == 2
    assert f"configuration error in stage load-config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
@pytest.mark.parametrize("how", ["flag", "env"])
def test_a_negative_seed_override_exits_2_in_load_config(tmp_path, monkeypatch, capsys, verb, how):
    config, _ = smoke_config(tmp_path)
    argv = [verb, "--config", str(config)]
    if how == "flag":
        argv += ["--seed", "-2"]
    else:
        monkeypatch.setenv("ECGMATCH_SEED", "-2")
    assert main(argv) == 2
    assert "configuration error in stage load-config: seeds must be nonnegative, got [-2]" in capsys.readouterr().err


def test_run_outputs_are_byte_identical_for_same_config(tmp_path):
    path_a, _ = smoke_config(tmp_path, out_name="a")
    assert main(["run", "--config", str(path_a)]) == 0
    path_b, doc = smoke_config(tmp_path, out_name="b")
    assert main(["run", "--config", str(path_b)]) == 0
    a = (tmp_path / "a" / "reports.csv").read_bytes()
    b = (tmp_path / "b" / "reports.csv").read_bytes()
    assert a == b


# both phases stop early for both seeds: pretraining after 12 and 6 of 60 epochs, SSL after 2 and 7 of 8
PINNED_RUN = {
    "data": {"synth": {"n_samples": 240, "channels": 2, "signal_length": 64, "noise_level": 0.6}},
    "seeds": [0, 1], "split": {"labeled_frac": 0.2},
    "train": {"batch_labeled": 16, "batch_unlabeled": 32, "knn": {"k": 5}, "max_epochs": 8, "patience": 2,
              "pretrain_max_epochs": 60, "pretrain_patience": 2, "hidden_dims": [16], "feature_dim": 8,
              "head_hidden": 8, "pool_len": 8, "optimizer": {"lr0": 0.1}},
}
PINNED_FILES = ("reports.csv", "summary.csv", "train_log_seed0.csv", "train_log_seed1.csv",
                "checkpoints/student_seed0.bin", "checkpoints/student_seed1.bin")


def test_run_output_bytes_and_early_stops_are_pinned(tmp_path, monkeypatch):
    evaluations, pretrain_epochs = [], []
    real_evaluate, real_pretrain = trainer.evaluate_model, trainer.pretrain_teacher

    def counting_pretrain(*args):
        start = len(evaluations)
        teacher = real_pretrain(*args)
        pretrain_epochs.append(len(evaluations) - start)  # one validation per epoch
        return teacher

    monkeypatch.setattr(trainer, "evaluate_model", lambda *args: evaluations.append(1) or real_evaluate(*args))
    monkeypatch.setattr(trainer, "pretrain_teacher", counting_pretrain)
    config = tmp_path / "pinned.json"
    config.write_text(json.dumps({**PINNED_RUN, "output_dir": str(tmp_path / "run")}))
    assert main(["run", "--config", str(config)]) == 0
    assert pretrain_epochs == [12, 6]
    assert [read_csv(tmp_path / "run" / f"train_log_seed{seed}.csv")[-1][1] for seed in (0, 1)] == ["2", "7"]
    blob = b"".join((tmp_path / "run" / name).read_bytes() for name in PINNED_FILES)
    assert hashlib.sha256(blob).hexdigest()[:16] == "76b5ca6183aa623a"


@pytest.mark.parametrize("train, needed", [({"lambda_u": 0.0}, "lambda_f"),
                                           ({"ablations": {"no_pseudo": True}}, "lambda_f"),
                                           ({"lambda_f": 0.0}, "lambda_u"),
                                           ({}, "lambda_u, lambda_f")])
def test_an_empty_unlabeled_set_that_a_weight_needs_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                                                           train, needed):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    config, doc = smoke_config(tmp_path)
    doc["split"]["labeled_frac"] = 1.0
    doc["train"].update(train)
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert ("configuration error in stage train: the within split leaves the unlabeled set empty, "
            f"but the unlabeled loss terms need it ({needed} > 0)") in err


@pytest.mark.parametrize("key", ["channels", "signal_length"])
def test_synth_with_zero_channels_or_length_exits_2_in_load_config(tmp_path, capsys, key):
    config, doc = smoke_config(tmp_path)
    doc["data"]["synth"][key] = 0
    config.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(config), "--out-file", str(tmp_path / "ds.csv")]) == 2
    assert "configuration error in stage load-config: need channels >= 1" in capsys.readouterr().err


def test_csv_dataset_with_zero_channels_exits_2_in_load_data(tmp_path, capsys):
    dataset = tmp_path / "ds.csv"
    dataset.write_text("2,0,4,5\n1,0,0,0,0\n0,1,0,0,0\n")
    config, _ = smoke_config(tmp_path, data={"paths": [str(dataset)]})
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error in stage load-data: {dataset}: signals need at least one channel" in err


def test_eval_known_fixture(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    scores.write_text("0.9,0.8,0.7,0.1,0.05\n")
    labels.write_text("1,0,1,0,0\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels),
                 "--out", str(tmp_path / "eval")]) == 0
    out = capsys.readouterr().out
    assert "coverage: 3.000000" in out
    assert "ranking_loss: 0.166667" in out  # one mispair of six
    rows = read_csv(tmp_path / "eval" / "metrics_report.csv")
    assert rows[0][0] == "ranking_loss"


def test_eval_shape_mismatch_exits_2(tmp_path):
    scores = tmp_path / "s.csv"
    labels = tmp_path / "l.csv"
    scores.write_text("0.9,0.1\n")
    labels.write_text("1,0,1\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 2


def test_eval_non_numeric_cell_exits_2(tmp_path):
    scores = tmp_path / "s.csv"
    labels = tmp_path / "l.csv"
    scores.write_text("0.9,oops\n")
    labels.write_text("1,0\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_eval_non_finite_score_exits_2(tmp_path, capsys, cell):
    scores = tmp_path / "s.csv"
    labels = tmp_path / "l.csv"
    scores.write_text(f"0.9,0.1\n{cell},0.4\n")
    labels.write_text("1,0\n0,1\n")
    assert main(["eval", "--scores", str(scores), "--labels", str(labels)]) == 2
    assert "finite" in capsys.readouterr().err


def _scan_matrix(path):
    """The line scan `cli._load_matrix` used before numpy's reader: one float() per cell."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            try:
                rows.append([float(v) for v in cells])
            except ValueError as exc:
                raise cli.ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            if len(rows[-1]) != len(rows[0]):
                raise cli.ParseError(f"{path}:{lineno}: ragged row")
    if not rows:
        raise cli.ParseError(f"{path}: empty matrix file")
    return np.array(rows)


def _outcome(load, path):
    """The parsed bits and shape, or the error type and text."""
    try:
        matrix = load(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    return matrix.shape, matrix.view(np.uint64).tobytes()


MATRIX_CASES = {
    "blank line": "0.5,0.25\n\n0.75,1\n",
    "whitespace-only line": "0.5,0.25\n \t \n0.75,1\n",
    "form-feed line": "0.5,0.25\n\f\n0.75,1\n",
    "crlf": "0.5,0.25\r\n0.75,1\r\n",
    "lone cr": "0.5,0.25\r0.75,1\r",
    "underscore": "1_0,0.5\n0.25,0.75\n",
    "non-ascii digit": "١,0.5\n0.25,٣.5\n",
    "hash in cell": "0.1#c,0.5\n",
    "hash line": "0.5,0.25\n# note\n",
    "quoted cell": '"0.5",0.25\n',
    "empty cell": "0.5,,0.25\n",
    "trailing comma": "0.5,0.25,\n",
    "ragged row": "0.5,0.25\n0.75\n",
    "ragged and non-numeric": "0.5,0.25\nx\n",
    "empty file": "",
    "only blank lines": "\n \n\n",
    "single row": "0.5,0.25,0.75\n",
    "single column": "0.5\n0.25\n0.75\n",
    "single cell": "0.5",
    "padded cells": " 0.5 , 0.25\t\n\t1e-3,2 \n",
    "no final newline": "0.5,0.25\n0.75,1",
    "special values": "nan,-inf\ninfinity,-0\n",
    "nul byte": "0.5,0\x00\n",
    # numpy's reader strips these from a cell; float() rejects them (str.strip takes them off a line's ends)
    **{f"{sep!r} {side}": text for sep in "\x1c\x1d\x1e\x1f"
       for side, text in [("leading", f"0.5,{sep}1\n"), ("trailing", f"0.5{sep},1\n")]},
}


@pytest.mark.parametrize("case", list(MATRIX_CASES))
def test_load_matrix_matches_the_line_scan(tmp_path, case):
    path = tmp_path / "m.csv"
    path.write_bytes(MATRIX_CASES[case].encode())
    assert _outcome(cli._load_matrix, str(path)) == _outcome(_scan_matrix, str(path))


def test_load_matrix_keeps_what_only_the_scan_accepts(tmp_path):
    # numpy's reader rejects these lines; the scan behind it still decides
    path = tmp_path / "m.csv"
    path.write_bytes("1_0,١\n \n\f\n0.5,2\n".encode())
    np.testing.assert_array_equal(cli._load_matrix(str(path)), [[10.0, 1.0], [0.5, 2.0]])
    path.write_text("0.5,0.25\n0.1#c,0.5\n")
    with pytest.raises(cli.ParseError, match=":2: non-numeric cell"):
        cli._load_matrix(str(path))


def test_load_matrix_round_trips_every_float_bit_for_bit(tmp_path):
    g = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
                         1.7976931348623157e308])
    path = tmp_path / "m.csv"
    for _ in range(20):
        shape = (int(g.integers(1, 40)), int(g.integers(1, 9)))
        x = g.standard_normal(shape) * 10.0 ** g.integers(-320, 300, shape)
        pick = g.random(shape) < 0.2
        x[pick] = g.choice(specials, size=int(pick.sum()))
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        got = cli._load_matrix(str(path))
        assert got.shape == x.shape
        assert got.view(np.uint64).tobytes() == x.view(np.uint64).tobytes()
        assert _outcome(cli._load_matrix, str(path)) == _outcome(_scan_matrix, str(path))


def _write_seed_reports(path, model, cells):
    """One reports.csv with a row per (dataset, seed): `cells[dataset]` lists each seed's six metric values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for dataset, seeds in cells.items():
            for seed, values in enumerate(seeds):
                writer.writerow([model, dataset, str(seed), *map(repr, values), "0", "0", "0", "0"])


def _write_reports(path, model, per_dataset_values):
    """One reports.csv with a fixed metric value per dataset; all six metrics and both seeds equal."""
    _write_seed_reports(path, model, {d: [[value] * 6] * 2 for d, value in per_dataset_values.items()})


def test_compare_reference_cd_and_verdicts(tmp_path, capsys):
    # 8 models over 4 datasets; model_0 best everywhere, worst models far behind
    datasets = ["d1", "d2", "d3", "d4"]
    for j in range(8):
        _write_reports(tmp_path / f"reports_m{j}.csv", f"model_{j}",
                       {d: 1.0 - 0.1 * j for d in datasets})
    code = main(["compare", "--reports", str(tmp_path / "reports_m*.csv"),
                 "--control", "model_0", "--out", str(tmp_path / "cmp")])
    assert code == 0
    out = capsys.readouterr().out
    assert "4.6592" in out
    rows = read_csv(tmp_path / "cmp" / "comparison.csv")
    assert rows[0] == cli.COMPARISON_HEADER
    by_model = {r[1]: r for r in rows[1:] if r[0] == "map"}
    # distance in mean ranks between rank 1 and rank 8 is 7 >= CD
    assert by_model["model_7"][4] == "true"
    assert by_model["model_1"][4] == "false"
    assert float(by_model["model_0"][8]) == 3.2590  # reference critical value surfaced
    assert (tmp_path / "cmp" / "cd_plot.csv").exists()


def test_compare_output_bytes_are_pinned(tmp_path):
    # 4 models x 3 datasets x 2 seeds on a coarse grid of values: many cells tie, within a seed and in the mean
    g = np.random.default_rng(22)
    for j in range(4):
        _write_seed_reports(tmp_path / f"r{j}.csv", f"m{j}",
                            {f"d{i}": (g.integers(0, 4, size=(2, 6)) / 4).tolist() for i in range(3)})
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m1",
                 "--out", str(tmp_path / "cmp")]) == 0
    blob = b"".join((tmp_path / "cmp" / name).read_bytes() for name in ("comparison.csv", "cd_plot.csv"))
    assert hashlib.sha256(blob).hexdigest()[:16] == "e097d2b60ec7bf12"


def _nan_map_reports(tmp_path, m1_d1_map):
    """Three models over two datasets; m1's map on d1 is `m1_d1_map`, one value per seed."""
    for j, model in enumerate(["m0", "m1", "m2"]):
        cells = {d: [[0.1 * (j + 1)] * 6] * 2 for d in ("d1", "d2")}
        if model == "m1":
            cells["d1"] = [[0.2, 0.2, 0.2, value, 0.2, 0.2] for value in m1_d1_map]
        _write_seed_reports(tmp_path / f"r{j}.csv", model, cells)
    return ["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0", "--out", str(tmp_path / "cmp")]


def test_compare_averages_a_cell_over_its_defined_seeds_as_the_summary_does(tmp_path, monkeypatch):
    tables = []
    real_table = cli.stats.PerformanceTable
    monkeypatch.setattr(cli.stats, "PerformanceTable", lambda values, higher: tables.append(values) or
                        real_table(values, higher))
    assert main(_nan_map_reports(tmp_path, [0.8, float("nan")])) == 0
    map_values = tables[list(cli.METRIC_NAMES).index("map")]
    assert map_values[0, 1] == 0.8  # d1, m1: the mean of its one defined seed
    by_model = {row[1]: row for row in read_csv(tmp_path / "cmp" / "comparison.csv")[1:] if row[0] == "map"}
    assert [by_model[m][2] for m in ("m0", "m1", "m2")] == ["3.0", "1.5", "1.5"]


def test_compare_a_cell_undefined_in_every_seed_exits_2_naming_it(tmp_path, capsys):
    assert main(_nan_map_reports(tmp_path, [float("nan")] * 2)) == 2
    assert "configuration error: map of model 'm1' on dataset 'd1' has no finite seed mean" in capsys.readouterr().err


def test_compare_in_a_fresh_interpreter_equals_the_in_process_run(tmp_path, capsys):
    # a fresh interpreter has no scipy loaded, so f_critical_value's own import runs
    g = np.random.default_rng(7)
    for j in range(4):
        _write_reports(tmp_path / f"r{j}.csv", f"m{j}", {f"d{i}": float(g.random()) for i in range(5)})
    argv = ["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0", "--out"]
    assert main(argv + [str(tmp_path / "here")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "ecgmatch", *argv, str(tmp_path / "fresh")],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == capsys.readouterr().out
    for name in ("comparison.csv", "cd_plot.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_compare_identical_models_nothing_significant(tmp_path, capsys):
    for j in range(3):
        _write_reports(tmp_path / f"r{j}.csv", f"m{j}", {"d1": 0.5, "d2": 0.5})
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0",
                 "--out", str(tmp_path / "cmp")]) == 0
    rows = read_csv(tmp_path / "cmp" / "comparison.csv")
    assert all(r[4] in ("false", "control") for r in rows[1:])
    assert all(float(r[6]) == 0.0 for r in rows[1:])  # F statistic 0 on identical ranks


def test_compare_missing_cells_exits_2(tmp_path, capsys):
    _write_reports(tmp_path / "r0.csv", "m0", {"d1": 0.5, "d2": 0.5})
    _write_reports(tmp_path / "r1.csv", "m1", {"d1": 0.5})
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0"]) == 2
    err = capsys.readouterr().err
    assert "m1" in err and "d2" in err


def test_compare_needs_two_models_and_datasets(tmp_path):
    _write_reports(tmp_path / "r0.csv", "m0", {"d1": 0.5, "d2": 0.5})
    assert main(["compare", "--reports", str(tmp_path / "r0.csv"), "--control", "m0"]) == 2


@pytest.mark.parametrize("bad_row", [
    ["m1", "d2", "1", "0.5", "0.5", "0.5"],  # truncated
    ["m1", "d2", "1", "0.5", "oops", "0.5", "0.5", "0.5", "0.5", "0", "0", "0", "0"],  # non-numeric
    ["m1", "d2", "1", "0.5", "0.5", "0.5", "0.5", "0.5", "0.5", "0", "0"],  # 11 cells
], ids=["truncated", "non_numeric", "eleven_cells"])
def test_compare_malformed_report_row_exits_2_naming_the_line(tmp_path, capsys, bad_row):
    _write_reports(tmp_path / "r0.csv", "m0", {"d1": 0.5, "d2": 0.5})
    _write_reports(tmp_path / "r1.csv", "m1", {"d1": 0.5, "d2": 0.5})
    with open(tmp_path / "r1.csv", "a", newline="") as fh:
        csv.writer(fh).writerow(bad_row)  # line 6: header + 2 datasets x 2 seeds before it
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0"]) == 2
    assert "r1.csv:6:" in capsys.readouterr().err


def test_compare_a_seed_reported_twice_exits_2_naming_both_lines(tmp_path, capsys):
    """Two files holding one seed of a cell (a glob over a copied run directory) would be averaged."""
    for j, model in enumerate(["ecgmatch", "other"]):
        _write_reports(tmp_path / f"r{j}.csv", model, {"a": 0.5 - 0.1 * j, "b": 0.5 - 0.1 * j})
    (tmp_path / "copy").mkdir()
    _write_seed_reports(tmp_path / "copy" / "r0.csv", "ecgmatch", {"a": [[0.1] * 6]})  # seed 0 of (ecgmatch, a)
    assert main(["compare", "--reports", str(tmp_path / "**" / "r*.csv"), "--control", "ecgmatch"]) == 2
    assert (f"seed 0 of model 'ecgmatch' on dataset 'a' is reported twice, at {tmp_path / 'copy' / 'r0.csv'}:2 "
            f"and {tmp_path / 'r0.csv'}:2") in capsys.readouterr().err


def test_compare_on_undecodable_reports_exits_2_naming_the_path(tmp_path, capsys):
    _write_reports(tmp_path / "r0.csv", "m0", {"d1": 0.5, "d2": 0.5})
    bad = tmp_path / "r1.csv"
    _write_reports(bad, "m\xb5", {"d1": 0.4, "d2": 0.4})
    bad.write_bytes(bad.read_text(encoding="utf-8").encode("latin-1"))  # µ is no UTF-8 byte
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0"]) == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


def test_compare_keeps_a_line_break_inside_a_quoted_model_name(tmp_path):
    for j, name in enumerate(["m0", "m\n1"]):
        _write_reports(tmp_path / f"r{j}.csv", name, {"d1": 0.5 - 0.1 * j, "d2": 0.5 - 0.1 * j})
    assert main(["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert {row[1] for row in read_csv(tmp_path / "cmp" / "comparison.csv")[1:]} == {"m0", "m\n1"}


def _exit_2_path(tmp_path, case):
    """The argv of a CLI path that must exit 2, and what its message says after "configuration error"."""
    dataset = tmp_path / "ds.csv"
    dataset.write_text("2,3x,4,5\n")  # a non-integer header field
    folder = tmp_path / "folder"
    folder.mkdir()
    _, smoke = smoke_config(tmp_path)
    train, synth = smoke["train"], smoke["data"]["synth"]
    epochs_message = " in stage load-config: max_epochs and pretrain_max_epochs must be nonnegative"
    config_changes = {
        "synth_and_paths": ({"data": {"synth": {}, "paths": [str(dataset)]}},
                            " in stage load-config: data section needs exactly one of 'synth' or 'paths'"),
        "path_not_a_string": ({"data": {"paths": [1]}},
                              " in stage load-config: invalid value in data: paths must be strings, got [1]"),
        "unknown_format": ({"data": {"synth": {}, "format": "xml"}},
                           " in stage load-config: unknown data format 'xml'"),
        "no_seeds": ({"seeds": []}, " in stage load-config: seeds must be a nonempty list of integers"),
        "csv_header_not_an_integer": ({"data": {"paths": [str(dataset)]}},
                                      f" in stage load-data: {dataset}:1: non-integer header field"),
        "synth_on_data_paths": ({"data": {"paths": [str(dataset)]}},
                                " in stage load-config: config has no data.synth section"),
        "data_path_is_a_directory": ({"data": {"paths": [str(folder)]}},
                                     f" in stage load-data: {folder}: Is a directory"),
        "raw_data_path_is_a_directory": ({"data": {"paths": [str(folder)], "format": "raw_f32"}},
                                         f" in stage load-data: {folder}: Is a directory"),
        "batch_zero": ({"train": {**train, "batch_unlabeled": 0}},
                       " in stage load-config: batch sizes must be positive"),
        "knn_k_zero": ({"train": {**train, "knn": {"k": 0}}}, " in stage load-config: k must be positive, got 0"),
        "lr0_zero": ({"train": {**train, "optimizer": {"lr0": 0}}}, " in stage load-config: lr0 must be positive"),
        "gamma_zero": ({"train": {**train, "optimizer": {"gamma": 0}}},
                       " in stage load-config: gamma, power and max_steps must be positive"),
        "lambda_u_negative": ({"train": {**train, "lambda_u": -0.5}},
                              " in stage load-config: loss weights must be nonnegative"),
        "max_epochs_negative": ({"train": {**train, "max_epochs": -3}}, epochs_message),
        "pretrain_max_epochs_negative": ({"train": {**train, "pretrain_max_epochs": -1}}, epochs_message),
        "tau_above_1": ({"train": {**train, "fixed_threshold_tau": 7}},
                        " in stage load-config: fixed_threshold_tau must be in [0, 1], got 7.0"),
        "feature_dim_zero": ({"train": {**train, "feature_dim": 0}},
                             " in stage load-config: layer widths must be positive"),
        "head_hidden_zero": ({"train": {**train, "head_hidden": 0}},
                             " in stage load-config: layer widths must be positive"),
        "activation_unknown": ({"train": {**train, "activation": "gelu"}},
                               " in stage load-config: activation must be relu or tanh, got 'gelu'"),
        "hidden_dims_zero": ({"train": {**train, "hidden_dims": [32, 0]}},
                             " in stage load-config: hidden_dims entries must be positive"),
        "synth_marginal_1": ({"data": {"synth": {**synth, "target_marginals": [0.5, 1.0]}}},
                             " in stage load-config: target marginals must lie in (0, 1)"),
        "synth_noise_negative": ({"data": {"synth": {**synth, "noise_level": -0.1}}},
                                 " in stage load-config: noise_level must be nonnegative"),
        "synth_correlation_asymmetric": (
            {"data": {"synth": {**synth, "target_marginals": [0.3, 0.4],
                                "target_correlation": [[1.0, 0.5], [0.2, 1.0]]}}},
            " in stage load-data: target_correlation must be symmetric with unit diagonal"),
        "cross_without_held_out": ({"split": {"protocol": "cross"}},
                                   " in stage load-config: cross protocol needs held_out_dataset"),
        "grid_fixed": ({"grid": {"axis": "lambda_f", "values": [0.8], "fixed": 0.8}},
                       " in stage load-config: unknown keys in grid: ['fixed']"),
        "held_out_under_within": ({"split": {"protocol": "within", "held_out_dataset": "nope"}},
                                  " in stage load-config: held_out_dataset is only for the cross protocol, "
                                  "not within (got 'nope')"),
        "held_out_under_mix": ({"split": {"protocol": "mix", "held_out_dataset": "nope"}},
                               " in stage load-config: held_out_dataset is only for the cross protocol, "
                               "not mix (got 'nope')"),
    }
    if case in config_changes:
        changes, message = config_changes[case]
        config, _ = smoke_config(tmp_path, **changes)
        if case == "synth_on_data_paths":
            return ["synth", "--config", str(config), "--out-file", str(tmp_path / "out.csv")], message
        return ["run", "--config", str(config)], message
    if case == "config_not_an_object":
        config = tmp_path / "config.json"
        config.write_text("[]")
        return ["run", "--config", str(config)], f" in stage load-config: {config}: top level must be an object"
    terms, mapping = tmp_path / "terms.txt", tmp_path / "map.txt"
    terms.write_text("myocardial infarction\n")
    mapping.write_text({"map_unknown_superclass": "myocardial infarction\tHEART\n"}.get(case, "# no entries\n\n"))
    input_paths = {
        "config_is_a_directory": (["run", "--config", str(folder)],
                                  f" in stage load-config: {folder}: Is a directory"),
        "config_below_a_file": (["run", "--config", f"{dataset}/c.json"],
                                f" in stage load-config: {dataset}/c.json: Not a directory"),
        "synth_config_is_a_directory": (["synth", "--config", str(folder), "--out-file", str(tmp_path / "out.csv")],
                                        f" in stage load-config: {folder}: Is a directory"),
        "scores_are_a_directory": (["eval", "--scores", str(folder), "--labels", str(dataset)],
                                   f": {folder}: Is a directory"),
        "reports_are_a_directory": (["compare", "--reports", str(folder), "--control", "m0"],
                                    f": {folder}: Is a directory"),
        "terms_are_a_directory": (["annotate", "--terms", str(folder)], f": {folder}: Is a directory"),
        "map_is_a_directory": (["annotate", "--terms", str(terms), "--map", str(folder)], f": {folder}: Is a directory"),
        "map_unknown_superclass": (["annotate", "--terms", str(terms), "--map", str(mapping)],
                                   f": {mapping}:1: unknown superclass 'HEART'"),
        "map_without_entries": (["annotate", "--terms", str(terms), "--map", str(mapping)],
                                f": {mapping}: mapping file has no entries"),
    }
    if case in input_paths:
        return input_paths[case]
    for j in range(2):
        _write_reports(tmp_path / f"r{j}.csv", f"m{j}", {"d1": 0.5, "d2": 0.4})
    compare = ["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0"]
    if case == "control_not_a_model":
        return [*compare[:-1], "m9"], ": control 'm9' not among models ['m0', 'm1']"
    if case == "no_report_matches":
        pattern = str(tmp_path / "none*.csv")
        return ["compare", "--reports", pattern, "--control", "m0"], f": no report files match {pattern!r}"
    (tmp_path / "r1.csv").write_text("model,dataset\n")  # case "other_report_header"
    return compare, f": {tmp_path / 'r1.csv'}: unexpected header ['model', 'dataset']"


@pytest.mark.parametrize("case", [
    "synth_and_paths", "path_not_a_string", "unknown_format", "no_seeds", "csv_header_not_an_integer",
    "synth_on_data_paths", "config_not_an_object", "control_not_a_model", "no_report_matches",
    "other_report_header",
    # a directory, or a file on the way to one, where an input file belongs
    "data_path_is_a_directory", "raw_data_path_is_a_directory", "config_is_a_directory", "config_below_a_file",
    "synth_config_is_a_directory", "scores_are_a_directory", "reports_are_a_directory", "terms_are_a_directory",
    "map_is_a_directory",
    # each config rule where it is checked, and the annotation map's
    "batch_zero", "knn_k_zero", "lr0_zero", "gamma_zero", "lambda_u_negative", "max_epochs_negative",
    "pretrain_max_epochs_negative", "tau_above_1", "feature_dim_zero", "hidden_dims_zero", "head_hidden_zero",
    "activation_unknown", "synth_marginal_1", "synth_noise_negative", "synth_correlation_asymmetric",
    "cross_without_held_out", "held_out_under_within", "held_out_under_mix", "grid_fixed",
    "map_unknown_superclass", "map_without_entries",
])
def test_cli_paths_exit_2_with_their_message(tmp_path, capsys, case):
    argv, message = _exit_2_path(tmp_path, case)
    assert main(argv) == 2
    assert f"configuration error{message}" in capsys.readouterr().err


def test_annotate_known_lines(tmp_path, capsys):
    terms = tmp_path / "terms.txt"
    terms.write_text(
        "atrial fibrillation;right bundle branch block\n"
        "sinus rhythm\n"
        "sinus rhythm;st depression\n"
    )
    assert main(["annotate", "--terms", str(terms)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("-> 1,0,1,0,0")
    assert out[2].endswith("-> 0,0,0,0,1")
    assert out[3].endswith("-> 0,1,0,0,0")


def test_annotate_unknown_term_exits_1(tmp_path, capsys):
    terms = tmp_path / "terms.txt"
    terms.write_text("totally unknown condition\n")
    with pytest.warns(UserWarning):
        code = main(["annotate", "--terms", str(terms)])
    assert code == 1
    assert "unmappable" in capsys.readouterr().err


def test_synth_writes_dataset_and_manifest(tmp_path, capsys):
    config, doc = smoke_config(tmp_path)
    doc["data"]["synth"]["n_samples"] = 5000
    config.write_text(json.dumps(doc))
    out_file = tmp_path / "ds.csv"
    assert main(["synth", "--config", str(config), "--out-file", str(out_file)]) == 0
    manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
    marginals = np.array(manifest["empirical_marginals"])
    np.testing.assert_allclose(marginals, [0.35, 0.3, 0.25, 0.3, 0.2], atol=0.02)
    corr = np.array(manifest["empirical_label_correlation"])
    np.testing.assert_allclose(corr, corr.T)
    np.testing.assert_allclose(np.diag(corr), 1.0)


def test_synth_byte_identical_given_seed(tmp_path):
    config, _ = smoke_config(tmp_path)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--config", str(config), "--out-file", str(out_a)]) == 0
    assert main(["synth", "--config", str(config), "--out-file", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_gridsearch_sweep_writes_one_row_per_cell(tmp_path):
    config, doc = smoke_config(tmp_path, out_name="grid")
    doc["grid"] = {"axis": "lambda_f", "values": [0.0, 0.8]}
    doc["data"]["synth"]["n_samples"] = 120
    doc["train"]["max_epochs"] = 1
    doc["train"]["pretrain_max_epochs"] = 1
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config)]) == 0
    rows = read_csv(tmp_path / "grid" / "gridsearch.csv")
    assert len(rows) == 3  # header + 2 cells
    assert rows[1][0] == "0.8" and rows[1][1] == "0.0"
    assert (tmp_path / "grid" / "grid_plot.csv").exists()
    assert (tmp_path / "grid" / "cell_lu0.8_lf0" / "reports.csv").exists()


@pytest.mark.parametrize("how", ["flag", "env"])
def test_gridsearch_seed_override_reaches_every_cell(tmp_path, monkeypatch, how):
    config, doc = smoke_config(tmp_path, out_name="grid")
    doc["seeds"] = [0, 1]
    doc["grid"] = {"axis": "lambda_f", "values": [0.8]}
    doc["data"]["synth"]["n_samples"] = 120
    doc["train"]["max_epochs"] = 1
    doc["train"]["pretrain_max_epochs"] = 1
    config.write_text(json.dumps(doc))
    argv = ["gridsearch", "--config", str(config)]
    if how == "flag":
        argv += ["--seed", "7"]
    else:
        monkeypatch.setenv("ECGMATCH_SEED", "7")
    assert main(argv) == 0
    rows = read_csv(tmp_path / "grid" / "cell_lu0.8_lf0.8" / "reports.csv")
    assert [row[2] for row in rows[1:]] == ["7"]


# each case sets the key at a path of the config to a value
CONFIG_VALUE_ERRORS = {
    "noise_sigma_zero": (("augment", "noise_sigma"), 0),
    "seeds_not_a_list": (("seeds",), "ab"),
    "seeds_not_integers": (("seeds",), [1.7, True]),
    "output_dir_null": (("output_dir",), None),
    "dropout_all_channels_string": (("augment", "dropout_all_channels"), "false"),
    "train_frac_nan": (("split", "train_frac"), float("nan")),
    "lr0_nan": (("train", "optimizer", "lr0"), float("nan")),
    "lr0_beyond_double": (("train", "optimizer", "lr0"), 10**400),
    "train_seed": (("train", "seed"), 5),
    "split_seed": (("split", "seed"), 5),
    "patience_zero": (("train", "patience"), 0),
    "pretrain_patience_zero": (("train", "pretrain_patience"), 0),
    "seeds_repeated": (("seeds",), [0, 0]),
    "grid_values_empty": (("grid", "values"), []),
    "grid_fixed": (("grid", "fixed"), 0.8),  # the unswept weight is train's
    "synth_channels_zero": (("data", "synth", "channels"), 0),
    "synth_signal_length_zero": (("data", "synth", "signal_length"), 0),
}


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
@pytest.mark.parametrize("case", [*CONFIG_VALUE_ERRORS, "env_seed_not_an_int"])
def test_config_value_errors_exit_2(tmp_path, monkeypatch, capsys, verb, case):
    monkeypatch.chdir(tmp_path)  # a relative output directory lands here
    config, doc = smoke_config(tmp_path)
    if case in CONFIG_VALUE_ERRORS:
        (*sections, key), value = CONFIG_VALUE_ERRORS[case]
        where = doc
        for section in sections:
            where = where.setdefault(section, {})
        where[key] = value
    else:
        monkeypatch.setenv("ECGMATCH_SEED", "x")
    config.write_text(json.dumps(doc))  # NaN is written as the non-standard constant NaN
    assert main([verb, "--config", str(config)]) == 2
    assert "configuration error in stage load-config" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
@pytest.mark.parametrize("key,value", [("batch_labeled", "x"), ("hidden_dims", 5), ("knn", 3),
                                       ("hidden_dims", "128"), ("pretrain_augment", "false"),
                                       ("batch_labeled", 64.9)])
def test_wrongly_typed_train_values_exit_2_naming_the_section(tmp_path, capsys, verb, key, value):
    config, doc = smoke_config(tmp_path)
    doc["train"][key] = value
    config.write_text(json.dumps(doc))
    assert main([verb, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error in stage load-config: invalid value in train" in err


def test_threads_env_not_an_int_exits_2(tmp_path, monkeypatch, capsys):
    config, _ = smoke_config(tmp_path)
    monkeypatch.setenv("ECGMATCH_THREADS", "x")
    assert main(["gridsearch", "--config", str(config)]) == 2
    assert "threads override must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("how, value", [("flag", "0"), ("env", "0"), ("flag", "-2"), ("env", "-1")])
def test_threads_below_1_exits_2_in_load_config(tmp_path, monkeypatch, capsys, how, value):
    config, _ = smoke_config(tmp_path)
    argv = ["gridsearch", "--config", str(config)]
    if how == "flag":
        argv += ["--threads", value]
    else:
        monkeypatch.setenv("ECGMATCH_THREADS", value)
    assert main(argv) == 2
    assert f"configuration error in stage load-config: threads must be at least 1, got {value}" in \
        capsys.readouterr().err


def test_zero_training_epochs_stay_legal(tmp_path):
    config, doc = smoke_config(tmp_path)
    doc["train"].update(max_epochs=0, pretrain_max_epochs=0)
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 0
    assert len(read_csv(tmp_path / "run" / "train_log_seed0.csv")) == 2  # the header and epoch 0's score


# flag, its value, the value it loads as, an ECGMATCH_ value, the value that loads as
FLAG_AND_ENV = {
    "out": ("flag_dir", "flag_dir", "env_dir", "env_dir"),
    "seed": ("3", (3,), "9", (9,)),
    "threads": ("2", 2, "1", 1),
}


@pytest.mark.parametrize("flag", FLAG_AND_ENV)
def test_an_explicit_flag_beats_its_environment_variable(tmp_path, monkeypatch, flag):
    config, _ = smoke_config(tmp_path)
    flag_value, flag_loaded, env_value, env_loaded = FLAG_AND_ENV[flag]
    monkeypatch.setenv(f"ECGMATCH_{flag.upper()}", env_value)

    def loaded(*extra):
        args = cli.build_parser().parse_args(["gridsearch", "--config", str(config), *extra])
        cfg, _ = cli._load(args, lambda name: None)
        return {"out": cfg.output_dir, "seed": cfg.seeds, "threads": args.threads}[flag]

    assert loaded(f"--{flag}", flag_value) == flag_loaded
    assert loaded() == env_loaded


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and runs the cells in this process."""

    made: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("values, workers", [([0.8], []), ([0.0, 0.8], [2]), ([0.0, 0.4, 0.8], [3])])
def test_gridsearch_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch, values, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)  # _gridsearch imports it here
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(cli, "_worker_datasets", [])  # the stand-in's initializer sets it in this process
    config = _grid_config(tmp_path, "grid")
    doc = json.loads(config.read_text())
    doc["seeds"] = [0]
    doc["grid"]["values"] = values
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config), "--threads", "8"]) == 0
    assert _RecordingPool.made == workers
    assert len(read_csv(tmp_path / "grid" / "gridsearch.csv")) == 1 + len(values)


@pytest.mark.parametrize("verb", ["run", "gridsearch"])
@pytest.mark.parametrize("fracs, empty", [((0.8, 0.0), "val"), ((0.7, 0.3), "test")])
def test_an_empty_split_exits_2_naming_it_before_training(tmp_path, monkeypatch, capsys, verb, fracs, empty):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    config, doc = smoke_config(tmp_path)
    doc["split"].update(train_frac=fracs[0], val_frac=fracs[1])
    doc["grid"] = {"axis": "lambda_u", "values": [0.8]}
    config.write_text(json.dumps(doc))
    assert main([verb, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error in stage train: the within split leaves the {empty} set empty" in err


def test_threads_flag_belongs_to_gridsearch_only(tmp_path):
    assert cli.build_parser().parse_args(["gridsearch", "--config", "c.json", "--threads", "2"]).threads == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "c.json", "--threads", "2"])
    assert exc.value.code == 2


def test_synth_write_failure_exits_1_with_stage(tmp_path, capsys):
    config, _ = smoke_config(tmp_path)
    out_dir = tmp_path / "taken"
    out_dir.mkdir()  # a directory where the dataset file should go
    assert main(["synth", "--config", str(config), "--out-file", str(out_dir)]) == 1
    assert "error in stage write-dataset" in capsys.readouterr().err


def _grid_config(tmp_path, out_name):
    config, doc = smoke_config(tmp_path, out_name=out_name)
    doc["seeds"] = [0, 1]
    doc["grid"] = {"axis": "lambda_u", "values": [0.0, 0.8]}
    doc["data"]["synth"]["n_samples"] = 120
    doc["train"]["max_epochs"] = 1
    doc["train"]["pretrain_max_epochs"] = 1
    config = tmp_path / f"{out_name}.json"
    config.write_text(json.dumps(doc))
    return config


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_gridsearch_worker_processes_write_the_same_files_as_one_process(tmp_path):
    for threads in ("1", "2"):
        config = _grid_config(tmp_path, f"grid{threads}")
        assert main(["gridsearch", "--config", str(config), "--threads", threads]) == 0
    one, two = _tree_bytes(tmp_path / "grid1"), _tree_bytes(tmp_path / "grid2")
    assert len(one) == 2 + 2 * (2 + 2 + 2)  # grid CSVs; per cell reports, summary, 2 logs, 2 checkpoints
    assert one == two


def test_gridsearch_workers_receive_the_datasets_once_each(tmp_path, monkeypatch):
    pickled = []

    def reduce_dataset(ds):
        pickled.append(ds.dataset_id)
        return data.Dataset, (ds.signals, ds.labels, ds.dataset_id, ds.class_names)

    monkeypatch.setitem(copyreg.dispatch_table, data.Dataset, reduce_dataset)
    config = _grid_config(tmp_path, "grid")
    doc = json.loads(config.read_text())
    doc["seeds"] = [0]
    doc["grid"] = {"axis": "cartesian", "values": [0.0, 0.8]}
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config), "--threads", "2"]) == 0
    assert len(read_csv(tmp_path / "grid" / "gridsearch.csv")) == 1 + 4
    assert len(pickled) <= 2  # at most once per worker, not once per cell


@pytest.mark.parametrize("axis", ["lambda_u", "lambda_f"])
def test_the_grid_cell_at_the_train_weights_writes_the_files_of_run(tmp_path, axis):
    config = _grid_config(tmp_path, "grid")
    doc = json.loads(config.read_text())
    doc["grid"] = {"axis": axis, "values": [0.8]}  # train's own weights are the defaults, 0.8 and 0.8
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    run = _tree_bytes(tmp_path / "run")
    assert sorted(run) == ["checkpoints/student_seed0.bin", "checkpoints/student_seed1.bin", "reports.csv",
                           "summary.csv", "train_log_seed0.csv", "train_log_seed1.csv"]
    assert _tree_bytes(tmp_path / "grid" / "cell_lu0.8_lf0.8") == run


def test_the_unswept_weight_is_the_train_weight(tmp_path):
    config = _grid_config(tmp_path, "grid")
    doc = json.loads(config.read_text())
    doc["seeds"] = [0]
    doc["train"]["lambda_u"] = 0.3
    doc["grid"] = {"axis": "lambda_f", "values": [0.0, 0.8]}
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config)]) == 0
    rows = read_csv(tmp_path / "grid" / "gridsearch.csv")
    assert [row[:2] for row in rows[1:]] == [["0.3", "0.0"], ["0.3", "0.8"]]
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert _tree_bytes(tmp_path / "grid" / "cell_lu0.3_lf0.8") == _tree_bytes(tmp_path / "run")


# the train keys that hold a loss weight at 0, and the weight each grid axis then sweeps in vain
ZEROING_SETTINGS = {
    "ablations.no_pseudo": ({"ablations": {"no_pseudo": True}}, {"lambda_u": "lambda_u", "cartesian": "lambda_u"}),
    "ablations.no_align": ({"ablations": {"no_align": True}}, {"lambda_f": "lambda_f", "cartesian": "lambda_f"}),
    "baseline supervised_only": ({"baseline": "supervised_only"},
                                 {"lambda_u": "lambda_u", "lambda_f": "lambda_f", "cartesian": "lambda_u"}),
}


@pytest.mark.parametrize("name, axis", [(name, axis) for name, (_, axes) in ZEROING_SETTINGS.items() for axis in axes])
def test_a_grid_sweeping_a_zeroed_weight_exits_2_before_any_cell_trains(tmp_path, monkeypatch, capsys, name, axis):
    def no_training(*args):
        raise AssertionError("training started")

    setting, axes = ZEROING_SETTINGS[name]
    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    config, doc = smoke_config(tmp_path, out_name="grid")
    doc["train"].update(setting)
    doc["grid"] = {"axis": axis, "values": [0.0, 0.8]}
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config)]) == 2
    assert (f"configuration error in stage train: grid axis {axis} sweeps {axes[axis]}, which {name} holds at 0, "
            "so its cells would train the same model") in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_a_grid_sweeping_the_weight_an_ablation_keeps_runs(tmp_path):
    config = _grid_config(tmp_path, "grid")
    doc = json.loads(config.read_text())
    doc["seeds"] = [0]
    doc["train"]["ablations"] = {"no_align": True}
    doc["grid"] = {"axis": "lambda_u", "values": [0.0, 0.8]}
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config)]) == 0
    assert len(read_csv(tmp_path / "grid" / "gridsearch.csv")) == 1 + 2


@pytest.mark.parametrize("axis", ["lambda_f", "cartesian"])
def test_grid_cells_sharing_a_directory_exit_2_before_any_cell_trains(tmp_path, monkeypatch, capsys, axis):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainer, "pretrain_teacher", no_training)
    config, doc = smoke_config(tmp_path, out_name="grid")
    doc["grid"] = {"axis": axis, "values": [0.1, 0.10000001]}
    config.write_text(json.dumps(doc))
    assert main(["gridsearch", "--config", str(config), "--threads", "2"]) == 2
    shared = tmp_path / "grid" / ("cell_lu0.8_lf0.1" if axis == "lambda_f" else "cell_lu0.1_lf0.1")
    assert f"configuration error in stage train: two grid cells would write to {shared}" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_gridsearch_missing_data_path_exits_2_in_load_data(tmp_path, capsys):
    config, _ = smoke_config(tmp_path, data={"paths": [str(tmp_path / "absent.csv")]})
    assert main(["gridsearch", "--config", str(config)]) == 2
    assert "configuration error in stage load-data" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "gridsearch", "eval", "annotate"])
def test_undecodable_text_input_exits_2_naming_the_path(tmp_path, capsys, verb):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("1,1,2,2\n1,0\n0.5,\xb51\n".encode("latin-1"))  # µ is no UTF-8 byte
    if verb in ("run", "gridsearch"):
        config, _ = smoke_config(tmp_path, data={"paths": [str(bad)]})
        argv = [verb, "--config", str(config)]
    elif verb == "eval":
        argv = ["eval", "--scores", str(bad), "--labels", str(bad)]
    else:
        argv = ["annotate", "--terms", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    if verb in ("run", "gridsearch"):
        assert "configuration error in stage load-data" in err


@pytest.mark.parametrize("verb", ["run", "gridsearch", "eval", "compare", "annotate", "synth"])
def test_a_directory_for_an_input_file_is_an_exit_code_not_a_traceback(tmp_path, verb):
    folder = str(tmp_path)
    argv = {
        "run": ["run", "--config", folder],
        "gridsearch": ["gridsearch", "--config", folder],
        "eval": ["eval", "--scores", folder, "--labels", folder],
        "compare": ["compare", "--reports", folder, "--control", "m0"],
        "annotate": ["annotate", "--terms", folder],
        "synth": ["synth", "--config", folder, "--out-file", str(tmp_path / "ds.csv")],
    }[verb]
    assert main(argv) in (1, 2)
