import copyreg
import csv
import json

import numpy as np
import pytest

from ecgmatch import cli, data
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


def test_run_outputs_are_byte_identical_for_same_config(tmp_path):
    path_a, _ = smoke_config(tmp_path, out_name="a")
    assert main(["run", "--config", str(path_a)]) == 0
    path_b, doc = smoke_config(tmp_path, out_name="b")
    assert main(["run", "--config", str(path_b)]) == 0
    a = (tmp_path / "a" / "reports.csv").read_bytes()
    b = (tmp_path / "b" / "reports.csv").read_bytes()
    assert a == b


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


def _write_reports(path, model, per_dataset_values):
    """One reports.csv with a fixed metric value per dataset; all six metrics equal."""
    rows = []
    for dataset, value in per_dataset_values.items():
        for seed in (0, 1):
            rows.append([model, dataset, str(seed)] + [repr(value)] * 6 + ["0"] * 4)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(rows)


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
    doc["grid"] = {"axis": "lambda_f", "values": [0.0, 0.8], "fixed": 0.8}
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
    doc["grid"] = {"axis": "lambda_f", "values": [0.8], "fixed": 0.8}
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
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
    doc["grid"] = {"axis": "lambda_u", "values": [0.8], "fixed": 0.8}
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
    doc["grid"] = {"axis": "lambda_u", "values": [0.0, 0.8], "fixed": 0.8}
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
