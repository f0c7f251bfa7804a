import hashlib
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from ecgmatch import cli, data
from ecgmatch.data import (
    AnnotationMap,
    Dataset,
    SplitSpec,
    SynthConfig,
    SUPERCLASSES,
    Subset,
    encode_subset,
    load_dataset,
    map_annotations,
    save_dataset,
    split,
    split_cross,
    split_mix,
    split_within,
    synth_generate,
)
from ecgmatch.errors import ConfigurationError, ParseError
from ecgmatch.rng import RandomStream


def tiny_dataset(n=10, channels=2, length=8, c=5, seed=0, dataset_id="tiny"):
    g = np.random.default_rng(seed)
    signals = [g.normal(size=(channels, length)).astype(np.float32).astype(float) for _ in range(n)]
    labels = (g.random((n, c)) > 0.5).astype(float)
    labels[0, 0] = 1.0  # at least one positive somewhere
    return Dataset(signals, labels, dataset_id)


# --- file formats ---------------------------------------------------------


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_dataset(path, "csv")


@pytest.mark.parametrize("fmt", ["csv", "raw_f32"])
def test_roundtrip_is_bit_exact(tmp_path, fmt):
    ds = tiny_dataset()
    path = tmp_path / f"ds.{fmt}"
    save_dataset(path, ds, fmt)
    back = load_dataset(path, fmt)
    assert len(back) == len(ds)
    np.testing.assert_array_equal(back.labels, ds.labels)
    for a, b in zip(ds.signals, back.signals):
        np.testing.assert_array_equal(a, b)


def test_csv_fixture_single_sample(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(
        "1,2,4,5\n"
        "1,0,1,0,0\n"
        "0.5,1.5,-2.0,3.25\n"
        "1.0,2.0,3.0,4.0\n"
    )
    ds = load_dataset(path, "csv")
    assert len(ds) == 1
    np.testing.assert_array_equal(ds.labels[0], [1, 0, 1, 0, 0])
    np.testing.assert_array_equal(ds.signals[0], [[0.5, 1.5, -2.0, 3.25], [1.0, 2.0, 3.0, 4.0]])


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,4,5\n1,0,1,0,2\nx\n")
    with pytest.raises(ParseError):
        load_dataset(path, "csv")
    path.write_text("1,2,4,5\n1,0,1,0,0\n0.5,oops,1,1\n1,2,3,4\n")
    with pytest.raises(ParseError, match=":3"):
        load_dataset(path, "csv")


def test_raw_truncation_is_a_parse_error(tmp_path):
    ds = tiny_dataset(n=3)
    path = tmp_path / "ds.bin"
    save_dataset(path, ds, "raw_f32")
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ParseError):
        load_dataset(path, "raw_f32")


def test_raw_truncation_names_the_first_incomplete_sample(tmp_path):
    ds = tiny_dataset(n=4)
    path = tmp_path / "ds.bin"
    save_dataset(path, ds, "raw_f32")
    sample = 4 * 2 * 8
    path.write_bytes(path.read_bytes()[:data._RAW_HEADER.size + 4 * 4 * 5 + 2 * sample + 10])
    with pytest.raises(ParseError, match="truncated signal block for sample 2$"):
        load_dataset(path, "raw_f32")


@pytest.mark.parametrize("header", [(2**62, 3, 4, 5), (1, 2**62, 4, 0), (1, 3, 2**62, 0)],
                         ids=["labels", "channels", "length"])
def test_raw_header_larger_than_the_file_is_a_parse_error(tmp_path, header):
    # each claimed block overflows a read's size argument; it must be caught against the file size
    path = tmp_path / "ds.bin"
    path.write_bytes(data._RAW_HEADER.pack(*header) + bytes(64))
    with pytest.raises(ParseError, match="truncated"):
        load_dataset(path, "raw_f32")


@pytest.mark.parametrize("header", [(200000, 0, 5, 0), (200000, 3, 0, 0), (7, 0, 0, 2)],
                         ids=["no-channels", "no-length", "no-signal"])
def test_raw_header_with_zero_byte_samples_is_a_parse_error(tmp_path, header):
    # a zero-byte sample is not bounded by the file: n could be anything
    path = tmp_path / "ds.bin"
    path.write_bytes(data._RAW_HEADER.pack(*header) + bytes(4 * header[0] * header[3]))
    with pytest.raises(ParseError, match="zero-byte signal block"):
        load_dataset(path, "raw_f32")


def test_raw_empty_dataset_still_loads(tmp_path):
    path = tmp_path / "ds.bin"
    path.write_bytes(data._RAW_HEADER.pack(0, 0, 0, 5))
    assert len(load_dataset(path, "raw_f32")) == 0


def _header_file(path, fmt, header, body=b""):
    """Write a dataset file of `fmt`: the header (n, channels, length, C), then the bytes of `body`."""
    head = data._RAW_HEADER.pack(*header) if fmt == "raw_f32" else (",".join(map(str, header)) + "\n").encode()
    path.write_bytes(head + body)
    return path


@pytest.mark.parametrize("fmt", ["raw_f32", "csv"])
def test_an_empty_dataset_loads_in_memory_that_its_class_count_does_not_set(tmp_path, fmt):
    # no sample bytes bound C when n = 0: the load must not cost what C does
    path = _header_file(tmp_path / "ds", fmt, (0, 1, 1, 10**6))
    tracemalloc.start()
    try:
        ds = load_dataset(path, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(ds), ds.num_classes) == (0, 10**6)
    assert peak < 2**20


@pytest.mark.parametrize("fmt, header, body", [
    ("raw_f32", (0, 2**31, 2**31, 5), b""),
    ("csv", (0, 2**31, 2**31, 5), b""),
    ("csv", (1, 1, 2**62, 2), b"1,0\n0.5,0.25\n"),  # a well-formed sample under a header claiming its length
    ("csv", (1, 1, 2, 2**62), b"1,0\n0.5,0.25\n"),
], ids=["raw", "csv", "csv-length", "csv-classes"])
def test_a_header_numpy_cannot_shape_is_a_parse_error_naming_the_file(tmp_path, fmt, header, body):
    path = _header_file(tmp_path / "ds", fmt, header, body)
    where = f"{path}:1" if fmt == "csv" else str(path)
    with pytest.raises(ParseError) as exc:
        load_dataset(path, fmt)
    _, channels, length, c = header
    assert str(exc.value) == f"{where}: header too large to shape (channels {channels}, length {length}, C {c})"


@pytest.mark.parametrize("fmt, n", [("raw_f32", 2), ("raw_f32", 0), ("csv", 0)])
def test_a_file_with_no_class_is_a_configuration_error_naming_it(tmp_path, fmt, n):
    # a CSV label row of no cells is an empty line, which reads as one cell, so only n = 0 reaches C = 0
    path = _header_file(tmp_path / "ds", fmt, (n, 1, 2, 0), bytes(4 * 2 * n))
    with pytest.raises(ConfigurationError) as exc:
        load_dataset(path, fmt)
    assert str(exc.value) == f"{path}: labels need at least one class"


def _scan_csv(path):
    """The CSV loader before numpy's reader: one float() per cell, file order.

    Returns (labels, signals) instead of a Dataset.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")  # universal newlines: also \r\n and \r
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) != 4:
        raise ParseError(f"{path}:1: header must be n,channels,length,C")
    try:
        n, channels, length, c = (int(v) for v in header)
    except ValueError as exc:
        raise ParseError(f"{path}:1: non-integer header field ({exc})") from None
    expected = 1 + n * (1 + channels)
    if len(lines) != expected:
        raise ParseError(f"{path}: expected {expected} lines for n={n}, found {len(lines)}")
    signals, labels = [], []
    lineno = 1
    for _ in range(n):
        lineno += 1
        cells = lines[lineno - 1].split(",")
        if len(cells) != c:
            raise ParseError(f"{path}:{lineno}: label row needs {c} cells, found {len(cells)}")
        try:
            row = [float(v) for v in cells]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric label cell") from None
        if any(v not in (0.0, 1.0) for v in row):
            raise ParseError(f"{path}:{lineno}: labels must be 0 or 1")
        labels.append(row)
        sig = np.empty((channels, length))
        for ch in range(channels):
            lineno += 1
            cells = lines[lineno - 1].split(",")
            if len(cells) != length:
                raise ParseError(f"{path}:{lineno}: signal row needs {length} cells, found {len(cells)}")
            try:
                sig[ch] = [float(v) for v in cells]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric signal cell") from None
            if not np.isfinite(sig[ch]).all():
                raise ParseError(f"{path}:{lineno}: non-finite signal cell")
        signals.append(sig)
    if n and not channels * length:
        raise ConfigurationError(f"{path}: signals need at least one channel and sample, "
                                 f"got shape {(n, channels, length)}")
    return np.array(labels).reshape(n, c), signals


def _csv_outcome(load, path):
    """The parsed bits and shapes, or the error type and text."""
    try:
        labels, signals = load(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    return [(a.shape, a.view(np.uint64).tobytes()) for a in (labels, *signals)]


def _load_csv_arrays(path):
    ds = load_dataset(path, "csv")
    return ds.labels, ds.signals


CSV_BASE = ["3,2,3,2",
            "1,0", "0.5,1.5,-2.0", "1e-3,2,3",
            "0,1", "4,5,6", "-0.0,0.25,1e300",
            "1,1", "5e-324,-1e300,2", "7,8,9"]
# one line replaced: (line index, text)
CSV_EDITS = {
    "blank signal line": (2, ""),
    "whitespace-only signal line": (2, "  "),
    "blank label line": (4, ""),
    "underscore": (3, "1_0,2,3"),
    "non-ascii digit": (3, "١,2,3"),
    "hash in cell": (3, "0.1#c,2,3"),
    "quoted cell": (3, '"0.5",2,3'),
    "empty cell": (3, "0.5,,3"),
    "trailing comma": (3, "0.5,2,3,"),
    "ragged signal row": (6, "0.5,2"),
    "non-numeric label": (4, "x,1"),
    "label row width": (4, "0,1,1"),
    "non-binary label": (7, "1,2"),
    "nan label": (7, "nan,1"),
    "nan signal": (6, "-0.0,nan,1e300"),
    "inf signal": (3, "1e-3,2,inf"),
    "-inf signal": (9, "-inf,8,9"),
    "overflowing signal": (5, "4,1e400,6"),
    "padded cells": (5, " 4 ,\t5,6 "),
}
CSV_TEXTS = {
    "clean": "\n".join(CSV_BASE) + "\n",
    **{name: "\n".join(CSV_BASE[:k] + [text] + CSV_BASE[k + 1:]) + "\n"
       for name, (k, text) in CSV_EDITS.items()},
    "form-feed line": "\n".join(CSV_BASE[:3] + ["\f"] + CSV_BASE[3:]) + "\n",
    # str.splitlines breaks at these; a line does not
    **{f"{name} in cell": "\n".join(CSV_BASE[:3] + [f"1e-3,{sep}2,3"] + CSV_BASE[4:]) + "\n"
       for name, sep in [("form feed", "\f"), ("next line", "\x85"), ("line separator", "\u2028")]},
    # numpy's reader strips these from a cell; float() rejects them
    **{f"{sep!r} {side}": "\n".join(CSV_BASE[:3] + [cell] + CSV_BASE[4:]) + "\n"
       for sep in "\x1c\x1d\x1e\x1f"
       for side, cell in [("leading", f"1e-3,{sep}2,3"), ("trailing", f"1e-3,2{sep},3")]},
    "crlf": "\r\n".join(CSV_BASE) + "\r\n",
    "lone cr": "\r".join(CSV_BASE) + "\r",
    "empty file": "",
    "only blank lines": "\n\n\n",
    "no samples": "0,2,3,2\n",
    "single label row": "1,0,3,2\n1,0\n",
    "single column": "2,1,1,1\n1\n0.5\n0\n-0.5\n",
    "single column whitespace label": "2,1,1,1\n1\n0.5\n \n-0.5\n",
    # two bad lines: the first one in the file is named
    "signal before label": "\n".join(CSV_BASE[:3] + ["x,1,2", "0,7"] + CSV_BASE[5:]) + "\n",
    "label before signal": "\n".join(CSV_BASE[:4] + ["0,2"] + CSV_BASE[5:8] + ["1,2"] + CSV_BASE[9:]) + "\n",
    "binary before width": "\n".join(CSV_BASE[:4] + ["2,0"] + CSV_BASE[5:7] + ["1"] + CSV_BASE[8:]) + "\n",
    "width before binary": "\n".join(CSV_BASE[:4] + ["0,0,0"] + CSV_BASE[5:7] + ["3,1"] + CSV_BASE[8:]) + "\n",
}


@pytest.mark.parametrize("case", list(CSV_TEXTS))
def test_csv_loader_matches_the_line_scan(tmp_path, case):
    path = tmp_path / "ds.csv"
    path.write_bytes(CSV_TEXTS[case].encode())
    assert _csv_outcome(_load_csv_arrays, path) == _csv_outcome(_scan_csv, path)


def test_csv_loader_matches_the_line_scan_on_random_edits(tmp_path):
    g = np.random.default_rng(3)
    replacements = ["", " ", "x", "1_0", "nan", "2", "0.5,", ",1", "1,0", "0,1,1", "1,2,3", "4,5",
                    "1e400,0,-0.0", "١,0,1", "0.1#c,1,1"]
    path = tmp_path / "ds.csv"
    outcomes = set()
    for _ in range(300):
        lines = list(CSV_BASE)
        for k in g.choice(np.arange(1, len(lines)), size=int(g.integers(1, 4)), replace=False):
            lines[k] = replacements[g.integers(len(replacements))]
        path.write_text("\n".join(lines) + "\n")
        want = _csv_outcome(_scan_csv, path)
        assert _csv_outcome(_load_csv_arrays, path) == want
        outcomes.add(want[0] if isinstance(want, tuple) else "parsed")
    assert outcomes == {"ParseError", "parsed"}


def _rows_or_error(load):
    try:
        return np.asarray(load()).tolist()
    except ParseError:
        return "ParseError"


@pytest.mark.parametrize("sep", ["\f", "\x1c", "\x85", "\u2028"])
def test_csv_signal_cell_with_a_splitlines_break_reads_like_eval(tmp_path, sep):
    # `ecgmatch eval` and the dataset loader break lines at the same characters
    # and accept the same cells (both reject `\x1c1`, as float() does)
    path = tmp_path / "ds.csv"
    path.write_text(f"1,1,2,2\n1,0\n0.5,{sep}1\n")
    matrix = tmp_path / "row.csv"
    matrix.write_text(f"0.5,{sep}1\n")
    assert (_rows_or_error(lambda: load_dataset(path, "csv").signals[0])
            == _rows_or_error(lambda: cli._load_matrix(str(matrix))))


def test_csv_round_trips_every_float_bit_for_bit(tmp_path):
    g = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300]
    x = g.standard_normal((6, 3, 40)) * 10.0 ** g.integers(-320, 300, (6, 3, 40))
    pick = g.random(x.shape) < 0.2
    x[pick] = g.choice(specials, size=int(pick.sum()))
    labels = (g.random((6, 5)) < 0.5).astype(float)
    path = tmp_path / "ds.csv"
    rows = ["6,3,40,5"]
    for sig, lab in zip(x, labels):
        rows.append(",".join("%d" % v for v in lab))
        rows += [",".join("%.17g" % v for v in row) for row in sig]
    path.write_text("\n".join(rows) + "\n")
    ds = load_dataset(path, "csv")
    assert np.stack(ds.signals).view(np.uint64).tobytes() == x.view(np.uint64).tobytes()
    np.testing.assert_array_equal(ds.labels, labels)


@pytest.mark.parametrize("header", ["3,-1,4,5", "-2,-2,4,5", "1,2,-4,5", "1,0,4,-5"])
def test_csv_negative_header_field_is_a_parse_error(tmp_path, header):
    path = tmp_path / "ds.csv"
    path.write_text(header + "\n")
    with pytest.raises(ParseError, match=":1: negative header field"):
        load_dataset(path, "csv")


# --- annotation mapping ----------------------------------------------------


def test_default_map_loads_and_covers_all_superclasses():
    am = AnnotationMap.default()
    covered = set()
    for targets in am.entries.values():
        covered |= targets
    assert covered == set(SUPERCLASSES)


def test_map_annotations_single_term():
    am = AnnotationMap.default()
    vec = map_annotations({"atrial fibrillation"}, am)
    np.testing.assert_array_equal(vec, [1, 0, 0, 0, 0])


def test_map_annotations_union_of_terms():
    am = AnnotationMap.default()
    vec = map_annotations({"1st degree av block", "prolonged pr interval"}, am)
    np.testing.assert_array_equal(vec, [0, 0, 1, 1, 0])
    vec = map_annotations({"atrial fibrillation", "right bundle branch block"}, am)
    np.testing.assert_array_equal(vec, [1, 0, 1, 0, 0])


def test_map_annotations_normal_exclusivity():
    am = AnnotationMap.default()
    vec = map_annotations({"sinus rhythm", "st depression"}, am)
    np.testing.assert_array_equal(vec, [0, 1, 0, 0, 0])
    alone = map_annotations({"sinus rhythm"}, am)
    np.testing.assert_array_equal(alone, [0, 0, 0, 0, 1])


def test_map_annotations_unknown_terms():
    am = AnnotationMap.default()
    with pytest.warns(UserWarning):
        vec = map_annotations({"atrial fibrillation", "made-up term"}, am)
    np.testing.assert_array_equal(vec, [1, 0, 0, 0, 0])
    with pytest.raises(ParseError), pytest.warns(UserWarning):
        map_annotations({"completely unknown"}, am)


def test_map_annotations_case_and_whitespace_insensitive():
    am = AnnotationMap.default()
    vec = map_annotations({"  Atrial   Fibrillation "}, am)
    np.testing.assert_array_equal(vec, [1, 0, 0, 0, 0])


def test_map_file_parse_error(tmp_path):
    bad = tmp_path / "map.txt"
    bad.write_text("term without tab\n")
    with pytest.raises(ParseError):
        AnnotationMap.from_file(bad)


# --- splits ----------------------------------------------------------------


def test_within_split_reference_ratios():
    ds = tiny_dataset(n=1000, seed=1)
    res = split_within(ds, SplitSpec(protocol="within", labeled_frac=0.05, seed=0))
    assert len(res.labeled) == 40
    assert len(res.unlabeled) == 760
    assert len(res.val) == 100
    assert len(res.test) == 100


def test_within_split_partitions_and_determinism():
    ds = tiny_dataset(n=200, seed=2)
    spec = SplitSpec(protocol="within", labeled_frac=0.1, seed=7)
    res = split_within(ds, spec)
    sizes = sum(len(s) for s in (res.labeled, res.unlabeled, res.val, res.test))
    assert sizes == 200
    # disjoint cover: every sample appears exactly once
    seen = [(d, i) for s in (res.labeled, res.unlabeled, res.val, res.test)
            for d, i in zip(s.sources.tolist(), s.rows.tolist())]
    assert len(set(seen)) == 200
    again = split_within(ds, spec)
    np.testing.assert_array_equal(res.labeled.labels, again.labeled.labels)
    np.testing.assert_array_equal(res.test.rows, again.test.rows)


def test_mix_split_reference_ratios_and_provenance():
    a = tiny_dataset(n=500, seed=3, dataset_id="a")
    b = tiny_dataset(n=500, seed=4, dataset_id="b")
    res = split_mix([a, b], SplitSpec(protocol="mix", labeled_frac=0.01, seed=0))
    n_train = len(res.labeled) + len(res.unlabeled)
    assert n_train == 800
    assert len(res.labeled) == 8
    assert set(res.test.provenance) <= {"a", "b"}
    sizes = sum(len(s) for s in (res.labeled, res.unlabeled, res.val, res.test))
    assert sizes == 1000


def test_cross_split_holds_out_whole_dataset():
    datasets = [tiny_dataset(n=80, seed=s, dataset_id=name)
                for s, name in enumerate("abcd")]
    spec = SplitSpec(protocol="cross", labeled_frac=0.01, seed=5, held_out_dataset="a")
    res = split_cross(datasets, spec)
    assert len(res.test) == 80
    assert set(res.test.provenance) == {"a"}
    train_val_prov = set(res.labeled.provenance) | set(res.unlabeled.provenance) | set(res.val.provenance)
    assert "a" not in train_val_prov  # leakage check
    n_pool = 240
    assert len(res.labeled) + len(res.unlabeled) == int(round(0.9 * n_pool))
    assert len(res.val) == n_pool - int(round(0.9 * n_pool))


def test_cross_split_rotation_gives_distinct_configurations():
    datasets = [tiny_dataset(n=40, seed=s, dataset_id=name) for s, name in enumerate("abcd")]
    held_ids = []
    for name in "abcd":
        spec = SplitSpec(protocol="cross", labeled_frac=0.05, seed=5, held_out_dataset=name)
        res = split_cross(datasets, spec)
        held_ids.append(tuple(sorted(set(res.test.provenance))))
    assert len(set(held_ids)) == 4


def test_cross_split_unknown_id():
    datasets = [tiny_dataset(dataset_id="a"), tiny_dataset(dataset_id="b")]
    with pytest.raises(ConfigurationError):
        split_cross(datasets, SplitSpec(protocol="cross", held_out_dataset="zz"))


@pytest.mark.parametrize("protocol", ["mix", "cross"])
def test_repeated_dataset_ids_are_rejected_naming_the_id(protocol):
    datasets = [tiny_dataset(n=40, seed=s, dataset_id=name) for s, name in enumerate("aba")]
    spec = SplitSpec(protocol=protocol, held_out_dataset="a" if protocol == "cross" else None)
    with pytest.raises(ConfigurationError, match="dataset ids must be distinct, 'a' is repeated"):
        split(datasets, spec)


def test_split_dispatch_guards():
    with pytest.raises(ConfigurationError):
        split([tiny_dataset(), tiny_dataset()], SplitSpec(protocol="within"))
    with pytest.raises(ConfigurationError):
        split_mix([tiny_dataset()], SplitSpec(protocol="mix"))


def test_split_spec_validation():
    with pytest.raises(ConfigurationError):
        SplitSpec(train_frac=0.9, val_frac=0.2)
    with pytest.raises(ConfigurationError):
        SplitSpec(labeled_frac=0.0)


@pytest.mark.parametrize("train,val", [(0.9, 0.2), (0.0, 0.5), (-0.1, 0.5), (0.8, -0.1), (1.0, 0.1),
                                       (float("nan"), 0.1), (0.8, float("nan"))])
def test_split_spec_needs_positive_train_nonnegative_val_and_a_sum_of_at_most_one(train, val):
    with pytest.raises(ConfigurationError, match="train_frac > 0, val_frac >= 0"):
        SplitSpec(train_frac=train, val_frac=val)


@pytest.mark.parametrize("train,val", [(0.8, 0.1), (0.7, 0.2), (0.6, 0.3), (0.5, 0.25)])
def test_split_spec_test_share_is_the_rest(train, val):
    ds = tiny_dataset(n=100)
    result = split_within(ds, SplitSpec(train_frac=train, val_frac=val, labeled_frac=1.0))
    assert len(result.val) == round(val * 100)
    assert len(result.test) == 100 - round(train * 100) - round(val * 100)


@pytest.mark.filterwarnings("ignore:labeled split has no positives")
def test_split_rows_are_pinned():
    # every protocol on uneven datasets, each held-out id in turn, seeds 0-4: one digest of the sets' rows
    datasets = [tiny_dataset(n=n, seed=s, dataset_id=name)
                for s, (n, name) in enumerate(zip((23, 61, 40, 97), "abcd"))]
    cases = [([ds], dict(protocol="within")) for ds in datasets] + [(datasets, dict(protocol="mix"))]
    cases += [(datasets, dict(protocol="cross", held_out_dataset=name)) for name in "abcd"]
    h = hashlib.sha256()
    for seed in range(5):
        for sets, kw in cases:
            result = split(sets, SplitSpec(labeled_frac=0.2, seed=seed, **kw))
            for part in (result.labeled, result.unlabeled, result.val, result.test):
                h.update(part.sources.astype("<i8").tobytes())
                h.update(part.rows.astype("<i8").tobytes())
    assert h.hexdigest()[:16] == "47df7228dfacb000"


@pytest.mark.filterwarnings("ignore:labeled split has no positives")
@pytest.mark.parametrize("protocol, sizes, kw, empty", [
    ("within", (120,), dict(val_frac=0.0), "val"),
    ("within", (120,), dict(train_frac=0.9, val_frac=0.1), "test"),
    ("within", (120,), dict(val_frac=0.004), "val"),  # 0.48 rows round to none
    ("within", (4,), dict(train_frac=0.1, val_frac=0.4), "labeled"),  # no train rows to label
    ("mix", (2, 1), dict(train_frac=0.5, val_frac=0.2), "test"),  # 1.5 rows round to 2, 0.6 to 1
    ("cross", (4, 50), dict(held_out_dataset="d1"), "val"),  # 0.9 of a pool of 4 rounds to all four
    ("cross", (50, 0), dict(held_out_dataset="d1"), "test"),
])
def test_split_rejects_an_empty_labeled_val_or_test_set_naming_it(protocol, sizes, kw, empty):
    no_rows = Dataset(np.zeros((0, 2, 8)), np.zeros((0, 5)), "d1")
    datasets = [tiny_dataset(n=n, dataset_id=f"d{i}") if n else no_rows for i, n in enumerate(sizes)]
    with pytest.raises(ConfigurationError, match=f"the {protocol} split leaves the {empty} set empty"):
        split(datasets, SplitSpec(protocol=protocol, labeled_frac=0.5, **kw))


def test_split_names_an_empty_set_before_it_counts_positives_per_class():
    # a per-class sum over 2^40 classes would ask for 8 TiB; the empty labeled set is the error
    ds = Dataset(np.zeros((0, 1, 1)), np.zeros((0, 2**40)), "d")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="the within split leaves the labeled set empty"):
            split([ds], SplitSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- synthesis ---------------------------------------------------------------


def test_synth_marginals_near_targets():
    cfg = SynthConfig(n_samples=5000, seed=11, noise_level=0.1)
    ds = synth_generate(cfg)
    emp = ds.labels.mean(axis=0)
    np.testing.assert_allclose(emp, cfg.target_marginals, atol=0.02)


def test_synth_identity_correlation_gives_independent_indicators():
    cfg = SynthConfig(n_samples=10000, seed=12, target_correlation=np.eye(5))
    ds = synth_generate(cfg)
    y = ds.labels
    yc = y - y.mean(axis=0)
    denom = np.sqrt((yc**2).sum(axis=0))
    pearson = (yc.T @ yc) / np.outer(denom, denom)
    off = pearson[~np.eye(5, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_synth_class_count_is_the_number_of_target_marginals():
    cfg = SynthConfig(n_samples=40, seed=1, target_marginals=(0.3, 0.4, 0.5))
    ds = synth_generate(cfg)
    assert cfg.num_classes == ds.num_classes == 3
    # split names the classes it warns about from the label width: by index, or the superclasses for five
    with pytest.warns(UserWarning) as record:
        split_within(ds, SplitSpec(labeled_frac=0.01, seed=1))
        split_within(synth_generate(SynthConfig(n_samples=40, seed=1)), SplitSpec(labeled_frac=0.01, seed=4))
    assert [str(w.message) for w in record] == [
        "labeled split has no positives for classes ['class_0', 'class_2']",
        "labeled split has no positives for classes "
        "['Abnormal Rhythms', 'ST/T Abnormalities', 'Conduction Disturbance']",
    ]
    with pytest.raises(ConfigurationError, match="at least two target_marginals"):
        SynthConfig(target_marginals=(0.3,))


def test_synth_zero_noise_single_class_equals_prototype():
    cfg = SynthConfig(n_samples=300, seed=13, noise_level=0.0)
    ds = synth_generate(cfg)
    protos = data.default_prototypes(cfg)
    singles = [i for i in range(len(ds)) if ds.labels[i].sum() == 1]
    assert singles
    i = singles[0]
    c = int(np.argmax(ds.labels[i]))
    np.testing.assert_array_equal(ds.signals[i], protos[c])


def test_synth_seed_determinism():
    a = synth_generate(SynthConfig(n_samples=50, seed=14))
    b = synth_generate(SynthConfig(n_samples=50, seed=14))
    np.testing.assert_array_equal(a.labels, b.labels)
    for sa, sb in zip(a.signals, b.signals):
        np.testing.assert_array_equal(sa, sb)


@pytest.mark.parametrize("kw, digest", [
    (dict(n_samples=300, channels=3, signal_length=256, seed=5), "16a8c8b76d25bd6f"),
    (dict(n_samples=40, channels=2, signal_length=64, noise_level=1.2, seed=99), "cb74ab720abd3184"),
])
def test_synth_dataset_bytes_are_pinned(kw, digest):
    ds = synth_generate(SynthConfig(**kw))
    h = hashlib.sha256(ds.labels.tobytes())
    for x in ds.signals:
        h.update(np.ascontiguousarray(x).tobytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("c, channels, length", [(5, 3, 256), (7, 2, 100), (24, 12, 500), (2, 1, 1)])
def test_synth_base_signals_equal_the_per_row_tensordot(c, channels, length):
    # one plain GEMM over all rows sums in another order at C=7 and C=24
    cfg = SynthConfig(n_samples=200, target_marginals=tuple(np.linspace(0.2, 0.5, c)), channels=channels,
                      signal_length=length, noise_level=0.0, seed=c)
    ds = synth_generate(cfg)
    protos = data.default_prototypes(cfg)
    reference = np.stack([np.tensordot(y, protos, axes=1) for y in ds.labels])
    assert ds.signals.tobytes() == reference.tobytes()


def test_synth_thresholds_draw_the_labels_of_the_ndtri_thresholds():
    # statistics.NormalDist and scipy's ndtri differ by at most 2 ulp at the
    # marginals in use; no z draw falls between the two thresholds
    for marginals in (SynthConfig().target_marginals, (0.3, 0.4, 0.5)):
        ours = np.array([-NormalDist().inv_cdf(p) for p in marginals])
        scipy_thresholds = -ndtri(np.array(marginals))
        gap = np.abs(ours.view(np.int64) - scipy_thresholds.view(np.int64))
        assert gap.max() <= 2
    n, c = 8000, 5
    for seed in range(12):
        ds = synth_generate(SynthConfig(n_samples=n, channels=1, signal_length=1, seed=seed))
        z = RandomStream(seed).substream(0).generator().standard_normal((n, c)) @ np.linalg.cholesky(np.eye(c)).T
        expected = (z > -ndtri(np.array(SynthConfig().target_marginals))).astype(float)
        assert ds.labels.tobytes() == expected.tobytes()


def test_synth_correlated_classes_cooccur_more():
    corr = np.eye(5)
    corr[0, 1] = corr[1, 0] = 0.9
    ds = synth_generate(SynthConfig(n_samples=8000, seed=15, target_correlation=corr))
    y = ds.labels
    joint = (y[:, 0] * y[:, 1]).mean()
    indep = y[:, 0].mean() * y[:, 1].mean()
    assert joint > indep * 1.5


def test_synth_non_positive_definite_rejected():
    corr = np.full((5, 5), 1.0)
    corr[0, 1] = corr[1, 0] = -1.0  # impossible with all other pairs fully correlated
    np.fill_diagonal(corr, 1.0)
    with pytest.raises(ConfigurationError, match="nearest"):
        synth_generate(SynthConfig(n_samples=10, target_correlation=corr))


# --- preprocessing -------------------------------------------------------------


def test_preprocess_constant_channel_is_zero():
    x = np.vstack([np.full(16, 3.0), np.arange(16.0)])
    out = encode_subset([x], 4)[0].reshape(2, 4)
    assert np.all(out[0] == 0.0)


def test_preprocess_zscore_mean_zero():
    g = np.random.default_rng(16)
    x = g.normal(loc=5.0, scale=2.0, size=(3, 64))
    out = encode_subset([x], 64)[0].reshape(3, 64)
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)


def test_preprocess_two_sample_channel():
    out = encode_subset([np.array([[1.0, 3.0]])], 1)[0]
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_preprocess_output_length_independent_of_input_length():
    for length in (50, 128, 999):
        x = np.random.default_rng(length).normal(size=(4, length))
        assert encode_subset([x], 24)[0].shape == (96,)


def _preprocess_reference(x, pool_len):
    """Per-signal z-score and pool, written out one channel matrix at a time."""
    x = np.asarray(x, dtype=float)
    channels, length = x.shape
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    z = np.where(std > 0.0, (x - mean) / np.where(std > 0.0, std, 1.0), 0.0)
    edges = np.linspace(0, length, pool_len + 1).astype(int)
    pooled = np.empty((channels, pool_len))
    for b in range(pool_len):
        lo, hi = edges[b], max(edges[b + 1], edges[b] + 1)
        pooled[:, b] = z[:, lo:hi].mean(axis=1)
    return pooled.reshape(-1)


@pytest.mark.parametrize("channels,length,pool_len", [
    (3, 256, 32),   # pool_len divides the length
    (2, 64, 16),
    (3, 250, 32),   # it does not
    (1, 10, 32),    # shorter than pool_len
    (12, 1000, 32),
    (2, 1000, 1),   # one bin longer than numpy's 128-element pairwise-sum block
    (3, 33, 32),    # bins of two widths
    (1, 5, 7),      # shorter than pool_len: left edges repeat
])
def test_encode_subset_equals_per_signal_reference(channels, length, pool_len):
    g = np.random.default_rng(length)
    signals = [g.normal(loc=g.normal(), scale=5.0 * g.random() + 0.1, size=(channels, length))
               for _ in range(7)]
    for constant in (False, True):  # every channel varies (the in-place divide), then one does not
        if constant:
            signals[2][0] = 4.0
        want = np.vstack([_preprocess_reference(x, pool_len) for x in signals])
        assert np.array_equal(encode_subset(signals, pool_len), want)
        assert np.array_equal(encode_subset([signals[4]], pool_len)[0], want[4])
        reversed_view = np.stack(signals)[:, :, ::-1]  # a negative time stride
        want = np.vstack([_preprocess_reference(x[:, ::-1].copy(), pool_len) for x in signals])
        assert np.array_equal(encode_subset(reversed_view, pool_len), want)


@pytest.mark.parametrize("length,pool_len", [(256, 32), (250, 32), (5, 7)])  # equal bins tile the row, or not
def test_encode_subset_encodes_a_nan_channel_as_zeros(length, pool_len):
    signals = np.random.default_rng(length).normal(size=(4, 3, length))
    signals[1, 2, length // 2] = np.nan
    out = encode_subset(signals, pool_len).reshape(4, 3, pool_len)
    assert np.array_equal(out[1, 2], np.zeros(pool_len))
    want = np.vstack([_preprocess_reference(x, pool_len) for x in signals]).reshape(4, 3, pool_len)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("n,channels,length,pool_len", [(3, 3, 256, 32), (4, 2, 300, 32), (3, 2, 1000, 1)])
def test_encode_subset_of_a_fortran_ordered_array_equals_per_signal_reference(n, channels, length, pool_len):
    signals = np.random.default_rng(length).normal(loc=2.0, scale=3.0, size=(n, channels, length))
    want = np.vstack([_preprocess_reference(x, pool_len) for x in signals])
    assert np.array_equal(encode_subset(np.asfortranarray(signals), pool_len), want)


@pytest.mark.parametrize("pool_len", [0, -1])
def test_encode_subset_rejects_pool_len_below_1(pool_len):
    with pytest.raises(ConfigurationError, match=f"pool_len must be at least 1, got {pool_len}"):
        encode_subset(np.zeros((2, 3, 16)), pool_len)


def test_encode_subset_ragged_list_longer_than_one_block_keeps_row_order():
    """Shuffled rows of three lengths, encoded block by block of `Subset.blocks` and put back in order."""
    g = np.random.default_rng(21)
    sizes, lengths = (360, 100, 52), (256, 300, 17)  # the 256-sample rows span three blocks
    datasets = [Dataset(g.normal(size=(n, 3, length)), np.zeros((n, 5))) for n, length in zip(sizes, lengths)]
    subset = Subset(datasets, np.repeat([0, 1, 2], sizes), np.concatenate([np.arange(n) for n in sizes]))
    picks = g.permutation(len(subset))
    got = np.full((len(picks), 96), np.nan)
    blocks = list(subset.blocks(picks))
    assert max(len(p) for p, _ in blocks) == data._BLOCK_ELEMENTS // (5 * 3 * 256) and len(blocks) == 5
    for positions, signals in blocks:
        got[positions] = encode_subset(signals, 32)
    want = np.vstack([_preprocess_reference(datasets[d].signals[i], 32)
                      for d, i in zip(subset.sources[picks], subset.rows[picks])])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("row_elements", [1, data._BLOCK_ELEMENTS // 3, data._BLOCK_ELEMENTS,
                                          10 * data._BLOCK_ELEMENTS])  # a row wider than the budget
def test_row_blocks_cover_the_rows_in_order_within_the_budget(row_elements):
    step = max(1, data._BLOCK_ELEMENTS // row_elements)
    for n in range(12):
        blocks = data.row_blocks(n, row_elements)
        bounds = [0] + [b.stop for b in blocks]
        assert [b.start for b in blocks] == bounds[:-1] and bounds[-1] == n
        sizes = [b.stop - b.start for b in blocks]
        assert all(size == step for size in sizes[:-1]) and all(1 <= size <= step for size in sizes)
        assert all(size == 1 or size * row_elements <= data._BLOCK_ELEMENTS for size in sizes)
        assert data.row_blocks(n, 0) == []  # a row of no element: nothing to walk


def test_shapeable_is_numpys_own_size_rule():
    """numpy skips a zero dim and shapes the rest only when their float64 bytes fit in np.intp,
    so an empty array checks the rule without allocating."""
    def numpy_shapes(*dims):
        try:
            np.empty((0, *dims))
        except ValueError:
            return False
        return True

    top = np.iinfo(np.intp).max // 8
    for dims in [(top,), (top + 1,), (top // 3, 3), (top // 3 + 1, 3), (2**31, 2**29), (2**31, 2**29 + 1),
                 (10**300,), (2, 3, 5), (0,), (0, 10**300), (top + 1, 0), (0, 2**31, 2**29 + 1)]:
        assert data.shapeable(*dims) == numpy_shapes(*dims), dims


def test_subset_rejects_pooled_channel_counts_and_ragged_datasets():
    two, three = tiny_dataset(channels=2, dataset_id="two"), tiny_dataset(channels=3, dataset_id="three")
    with pytest.raises(ConfigurationError, match="one channel and class count"):
        Subset([two, three], [0, 1], [0, 0])
    with pytest.raises(ConfigurationError, match="one channel and class count"):
        split_mix([two, three], SplitSpec(protocol="mix"))
    with pytest.raises(ConfigurationError, match=r"\(n, channels, length\) array"):
        Dataset([np.zeros((2, 8)), np.zeros((2, 9))], np.zeros((2, 5)))
    with pytest.raises(ConfigurationError, match=r"\(n, channels, length\) array"):
        Dataset(np.zeros((2, 8)), np.zeros((2, 5)))
    assert encode_subset(np.zeros((0, 2, 8)), pool_len=4).shape == (0, 8)


@pytest.mark.parametrize("shape", [(2, 0, 8), (2, 3, 0), (1, 0, 0)])
def test_dataset_rejects_samples_with_no_channel_or_no_length(shape):
    with pytest.raises(ConfigurationError, match="at least one channel and sample"):
        Dataset(np.zeros(shape), np.zeros((shape[0], 5)))
    assert len(Dataset(np.zeros((0,) + shape[1:]), np.zeros((0, 5)))) == 0  # an empty dataset still loads


@pytest.mark.parametrize("labels, message", [
    (np.zeros((2, 5)), "signal count and label rows must match"),
    (np.zeros(3), "signal count and label rows must match"),
    (np.full((3, 5), 0.5), "labels must be binary"),
    (np.zeros((3, 0)), "dataset: labels need at least one class"),
], ids=["rows", "one-axis-labels", "non-binary", "no-class"])
def test_labels_that_do_not_fit_the_signals_raise_naming_the_rule(labels, message):
    with pytest.raises(ConfigurationError) as exc:
        Dataset(np.zeros((3, 2, 4)), labels)
    assert str(exc.value) == message


@pytest.mark.parametrize("io", ["save", "load"])
def test_unknown_file_format_raises_naming_it(tmp_path, io):
    path = tmp_path / "ds.xml"
    with pytest.raises(ConfigurationError) as exc:
        save_dataset(path, tiny_dataset(), "xml") if io == "save" else load_dataset(path, "xml")
    assert str(exc.value) == "unknown format 'xml'"
