"""Seeded byte mutations of every file the package parses.

Each input is truncated, has a bit flipped, or has a short run of bytes
inserted or deleted, one mutation per case. A loader either returns or
raises the package's typed error; a CLI verb exits 0 or 2, never 1.
"""

import csv

import numpy as np
import pytest

from ecgmatch import data, nn
from ecgmatch.cli import REPORT_HEADER, cmd_eval, main
from ecgmatch.errors import ConfigurationError, ParseError

CASES = 400  # mutants per input
# inserted bytes: number syntax, separators, line breaks, and bytes that are no UTF-8 or no number
_ALPHABET = b"0123456789.,-+eE \t\r\nnaif\x00\x1c\x80\xff"


def _mutants(blob: bytes, seed: int):
    g = np.random.default_rng(seed)
    for _ in range(CASES):
        at, kind, width = int(g.integers(0, len(blob) + 1)), int(g.integers(4)), int(g.integers(1, 9))
        if kind == 0:
            yield blob[:at]
        elif kind == 1 and at < len(blob):
            yield blob[:at] + bytes([blob[at] ^ (1 << int(g.integers(8)))]) + blob[at + 1:]
        elif kind == 2:
            yield blob[:at] + bytes(g.choice(list(_ALPHABET), size=width).tolist()) + blob[at:]
        else:
            yield blob[:at] + blob[at + width:]


def _tiny_dataset():
    g = np.random.default_rng(0)
    return data.Dataset(g.normal(size=(4, 2, 8)), (g.random((4, 5)) < 0.5).astype(float))


def _loads(load, path, mutants) -> set:
    """Write each mutant to `path` and load it: the outcomes seen, "ok" or the typed error's name."""
    outcomes = set()
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            load(path)
            outcomes.add("ok")
        except (ParseError, ConfigurationError) as exc:
            outcomes.add(type(exc).__name__)
    return outcomes


@pytest.mark.parametrize("fmt", ["raw_f32", "csv"])
def test_mutated_datasets_load_or_raise_a_parse_error(tmp_path, fmt):
    path = tmp_path / "ds"
    data.save_dataset(path, _tiny_dataset(), fmt)
    outcomes = _loads(lambda p: data.load_dataset(p, fmt), path, _mutants(path.read_bytes(), 1))
    assert "ParseError" in outcomes and outcomes <= {"ok", "ParseError", "ConfigurationError"}


def test_mutated_checkpoints_load_or_raise_a_configuration_error(tmp_path):
    path = tmp_path / "student.bin"
    cfg = nn.ModelConfig(input_dim=3, num_classes=2, hidden_dims=(2,), feature_dim=2, head_hidden=2)
    nn.save_params(path, nn.init_params(cfg, np.random.default_rng(2)))
    outcomes = _loads(nn.load_params, path, _mutants(path.read_bytes(), 3))
    assert {"ok", "ConfigurationError"} == outcomes


@pytest.mark.parametrize("mutated", ["scores", "labels"])
def test_mutated_eval_matrices_exit_0_or_2(tmp_path, capsys, mutated):
    g = np.random.default_rng(4)
    matrices = {"scores": g.random((6, 4)).round(3), "labels": (g.random((6, 4)) < 0.5).astype(int)}
    paths = {name: tmp_path / f"{name}.csv" for name in matrices}
    for name, matrix in matrices.items():
        np.savetxt(paths[name], matrix, delimiter=",", fmt="%g")
    exits = set()
    for mutant in _mutants(paths[mutated].read_bytes(), 5 + (mutated == "labels")):
        paths[mutated].write_bytes(mutant)
        exits.add(cmd_eval(str(paths["scores"]), str(paths["labels"])))
        assert exits <= {0, 2}, (mutant, capsys.readouterr().err)
    assert exits == {0, 2}


def test_mutated_reports_exit_0_or_2_through_compare(tmp_path, capsys):
    g = np.random.default_rng(7)
    for j in range(3):
        with open(tmp_path / f"r{j}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_HEADER)
            for dataset in ("d0", "d1"):
                writer.writerow([f"m{j}", dataset, "0", *map(repr, g.random(6).round(2).tolist()), "0", "0", "0", "0"])
    path = tmp_path / "r1.csv"
    argv = ["compare", "--reports", str(tmp_path / "r*.csv"), "--control", "m0"]
    exits = set()
    for mutant in _mutants(path.read_bytes(), 8):
        path.write_bytes(mutant)
        exits.add(main(argv))
        assert exits <= {0, 2}, (mutant, capsys.readouterr().err)
    assert exits == {0, 2}
