"""Seeded byte mutations of every file the package parses, and size-field mutations of its headers.

Each input is truncated, has a bit flipped, or has a short run of bytes
inserted or deleted, one mutation per case. A loader either returns or
raises the package's typed error; a CLI verb exits 0 or 2, never 1. A
header mutant sets one size field of a dataset or checkpoint header to an
edge value, or one checkpoint shape to 0 beside an edge value; its load also
stays within memory that the file's bytes bound.
"""

import csv
import tracemalloc

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


def _field_mutants(fields: list, size: int):
    """`fields` with one entry set to 0, 1, -1, 2^31, 2^62 or a value derived from the file's `size`, per mutant."""
    for i in range(len(fields)):
        for value in (0, 1, -1, 2**31, 2**62, size, size // 4, size // 8 + 1):
            yield fields[:i] + [value] + fields[i + 1:]


def _shape_pair_mutants(fields: list, size: int):
    """A checkpoint's `fields` with one (rows, cols) entry set to 0 beside 2^31, 2^62 or a value derived from the
    file's `size`, in both orders: 8 * rows * cols is 0, so no payload byte bounds the other side."""
    for i in range(1, len(fields), 2):
        for value in (2**31, 2**62, size, size // 4, size // 8 + 1):
            for pair in ([0, value], [value, 0]):
                yield fields[:i] + pair + fields[i + 2:]


def _load_bounded(load, path, blob: bytes) -> str:
    """Write `blob` to `path` and load it: "ok" or the typed error's name. The load's traced peak stays
    under 16 times the file's bytes plus 1 MiB."""
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            load(path)
            outcome = "ok"
        except (ParseError, ConfigurationError) as exc:
            outcome = type(exc).__name__
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(blob) + 2**20, (blob[:40], peak)
    return outcome


def _header_fields(blob: bytes, kind: str):
    """(fields, body, pack) of a file of `kind`: its header's size fields, the bytes after the header, and
    the function that writes given fields as such a header."""
    if kind == "csv":
        first, body = blob.split(b"\n", 1)
        return [int(v) for v in first.split(b",")], body, lambda f: ",".join(map(str, f)).encode() + b"\n"
    if kind == "raw_f32":
        end = data._RAW_HEADER.size
        return list(data._RAW_HEADER.unpack_from(blob)), blob[end:], lambda f: data._RAW_HEADER.pack(*f)
    (count,) = nn._HDR.unpack_from(blob)  # a checkpoint: the matrix count, then (rows, cols) per matrix
    end = nn._HDR.size + count * nn._SHAPE.size
    table = np.frombuffer(blob[nn._HDR.size:end], dtype="<i8").tolist()
    return [count, *table], blob[end:], lambda f: nn._HDR.pack(f[0]) + np.array(f[1:], dtype="<i8").tobytes()


@pytest.mark.parametrize("fmt", ["raw_f32", "csv"])
def test_dataset_header_fields_load_or_raise_within_the_memory_their_file_bounds(tmp_path, fmt):
    path = tmp_path / "ds"
    data.save_dataset(path, _tiny_dataset(), fmt)
    fields, body, pack = _header_fields(path.read_bytes(), fmt)
    blobs = [pack(f) + body for f in _field_mutants(fields, path.stat().st_size)]
    blobs.append(pack([0, *fields[1:3], 2**40]))  # a file of no samples and 2^40 classes
    outcomes = {_load_bounded(lambda p: data.load_dataset(p, fmt), path, blob) for blob in blobs}
    assert "ParseError" in outcomes and outcomes <= {"ok", "ParseError", "ConfigurationError"}


def test_checkpoint_count_and_shape_fields_load_or_raise_within_the_memory_their_file_bounds(tmp_path):
    path = tmp_path / "student.bin"
    cfg = nn.ModelConfig(input_dim=3, num_classes=2, hidden_dims=(2,), feature_dim=2, head_hidden=2)
    nn.save_params(path, nn.init_params(cfg, np.random.default_rng(2)))
    fields, body, pack = _header_fields(path.read_bytes(), "checkpoint")
    blobs = [pack(f) + body for f in _field_mutants(fields, path.stat().st_size)]
    assert {_load_bounded(nn.load_params, path, blob) for blob in blobs} == {"ok", "ConfigurationError"}
    pairs = [pack(f) + body for f in _shape_pair_mutants(fields, path.stat().st_size)]
    assert {_load_bounded(nn.load_params, path, blob) for blob in pairs} == {"ConfigurationError"}


@pytest.mark.parametrize("mutated", ["scores", "labels"])
def test_mutated_eval_matrices_exit_0_or_2(tmp_path, capsys, monkeypatch, mutated):
    """Each mutant also exits alike, with the same stderr, when the matrix is read 7 characters a block."""
    g = np.random.default_rng(4)
    matrices = {"scores": g.random((6, 4)).round(3), "labels": (g.random((6, 4)) < 0.5).astype(int)}
    paths = {name: tmp_path / f"{name}.csv" for name in matrices}
    for name, matrix in matrices.items():
        np.savetxt(paths[name], matrix, delimiter=",", fmt="%g")
    args, exits = (str(paths["scores"]), str(paths["labels"])), set()
    for mutant in _mutants(paths[mutated].read_bytes(), 5 + (mutated == "labels")):
        paths[mutated].write_bytes(mutant)
        code, err = cmd_eval(*args), capsys.readouterr().err
        with monkeypatch.context() as m:
            m.setattr(data, "_BLOCK_ELEMENTS", 7)
            assert (cmd_eval(*args), capsys.readouterr().err) == (code, err), mutant
        exits.add(code)
        assert exits <= {0, 2}, (mutant, err)
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
