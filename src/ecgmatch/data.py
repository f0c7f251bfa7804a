"""Datasets, file formats, annotation mapping, split protocols and synthesis.

A dataset is an (n, channels, length) signal array plus an n x C binary
label matrix. A subset indexes the rows of one or more datasets and walks
them in same-shape blocks, cut by `row_blocks`, which cuts every bounded
walk of the package against one budget. One `split` serves the three protocols:
single-dataset (`within`), multi-center pooled (`mix`) and held-out-dataset
(`cross`) evaluation, and `split_within`, `split_mix` and `split_cross` are
its views by name. The synthetic generator draws correlated multi-label
annotations from a Gaussian copula and renders signals as label-weighted
sums of per-class prototype waveforms plus noise, so class structure and
co-occurrence are both controllable.
"""

from __future__ import annotations

import math
import os
import reprlib
import struct
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import chain
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError, ParseError
from .rng import RandomStream

SUPERCLASSES = (
    "Abnormal Rhythms",
    "ST/T Abnormalities",
    "Conduction Disturbance",
    "Other Abnormalities",
    "Normal Signals",
)
NORMAL_CLASS = "Normal Signals"


@dataclass
class Dataset:
    signals: np.ndarray  # (n, channels, length) float
    labels: np.ndarray  # (n, C) binary
    dataset_id: str = "dataset"

    def __post_init__(self):
        try:
            self.signals = np.asarray(self.signals, dtype=float)
        except ValueError as exc:  # a ragged list of matrices
            raise ConfigurationError(f"signals must be one (n, channels, length) array: {exc}") from None
        if self.signals.ndim != 3:
            raise ConfigurationError(f"signals must be one (n, channels, length) array, got {self.signals.shape}")
        if len(self.signals) and 0 in self.signals.shape[1:]:
            raise ConfigurationError(f"{self.dataset_id}: signals need at least one channel and sample, "
                                     f"got shape {self.signals.shape}")
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.ndim != 2 or len(self.signals) != self.labels.shape[0]:
            raise ConfigurationError("signal count and label rows must match")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ConfigurationError("labels must be binary")
        if not self.labels.shape[1]:
            raise ConfigurationError(f"{self.dataset_id}: labels need at least one class")

    def __len__(self):
        return len(self.signals)

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]


# The block budget of every bounded walk: elements of temporaries per `row_blocks` block (about 4 MB of
# float64 each) and characters of text per `read_line_blocks` block.
_BLOCK_ELEMENTS = 1 << 19


def row_blocks(n: int, row_elements: int) -> list[slice]:
    """Consecutive slices over n rows, each of about _BLOCK_ELEMENTS elements at `row_elements`
    per row and one row at least; none when a row holds no element."""
    step = max(1, _BLOCK_ELEMENTS // max(1, row_elements))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n if row_elements else 0, step)]


def shapeable(*dims: int) -> bool:
    """Whether numpy can shape a float64 array of these nonnegative dims: it skips a zero dim,
    and the bytes of the others must fit in np.intp."""
    return math.prod(d for d in dims if d) * 8 <= np.iinfo(np.intp).max


@dataclass
class Subset:
    """Rows of one or more datasets as indices: row r is sample `rows[r]` of `datasets[sources[r]]`.
    Labels and provenance are gathered once; signals are never copied, only read through `blocks`."""

    datasets: list
    sources: np.ndarray  # (n,) int, dataset index per row
    rows: np.ndarray  # (n,) int, sample index within that dataset
    labels: np.ndarray = field(init=False)
    provenance: list = field(init=False)  # dataset_id per row
    # (pool_len, model inputs) of the clean signals, filled on first
    # evaluation so that every later one scores the same matrix
    encoded: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = sorted({(ds.signals.shape[1], ds.num_classes) for ds in self.datasets})
        if len(shapes) != 1:
            raise ConfigurationError(f"pooled datasets need one channel and class count, found {shapes} "
                                     "(channels, classes)")
        self.sources, self.rows = np.asarray(self.sources, dtype=int), np.asarray(self.rows, dtype=int)
        offset = np.cumsum([0] + [len(ds) for ds in self.datasets])[self.sources]
        self.labels = np.concatenate([ds.labels for ds in self.datasets])[offset + self.rows]
        self.provenance = [self.datasets[d].dataset_id for d in self.sources.tolist()]

    def __len__(self):
        return len(self.rows)

    @property
    def channels(self) -> int:
        return self.datasets[0].signals.shape[1]

    def blocks(self, picks):
        """(positions, signals) blocks covering subset rows `picks`: `signals[j]` is row `picks[positions[j]]`.
        A block stacks rows of one source dataset, so its signals share one shape, and is cut by
        `row_blocks` at five times a row's signal elements: augment and encode hold a few copies of it."""
        picks = np.asarray(picks, dtype=int)
        for d, ds in enumerate(self.datasets):
            positions = np.flatnonzero(self.sources[picks] == d)
            _, channels, length = ds.signals.shape
            for block in row_blocks(len(positions), 5 * channels * length):
                yield positions[block], ds.signals[self.rows[picks[positions[block]]]]


@dataclass(frozen=True)
class SplitSpec:
    protocol: str = "within"  # within | cross | mix
    train_frac: float = 0.8
    val_frac: float = 0.1  # the test split is the rest
    labeled_frac: float = 0.05
    seed: int = 0
    held_out_dataset: str | None = None

    def __post_init__(self):
        if self.protocol not in ("within", "cross", "mix"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if not (self.train_frac > 0.0 and self.val_frac >= 0.0 and self.train_frac + self.val_frac <= 1.0):
            raise ConfigurationError("need train_frac > 0, val_frac >= 0 and train_frac + val_frac <= 1")
        if not 0.0 < self.labeled_frac <= 1.0:
            raise ConfigurationError("labeled fraction must be in (0, 1]")
        if self.protocol == "cross" and self.held_out_dataset is None:
            raise ConfigurationError("cross protocol needs held_out_dataset")
        if self.protocol != "cross" and self.held_out_dataset is not None:
            raise ConfigurationError(f"held_out_dataset is only for the cross protocol, not {self.protocol} "
                                     f"(got {self.held_out_dataset!r})")


# --- file formats -------------------------------------------------------------
#
# CSV: header "n,channels,length,C"; then per sample one label row (C cells)
# followed by `channels` signal rows of `length` cells each.
#
# raw_f32: little-endian header of four int64 (n, channels, length, C),
# then labels as n*C float32, then signals as n*channels*length float32,
# all contiguous row-major.

_RAW_HEADER = struct.Struct("<qqqq")


def save_dataset(path, ds: Dataset, format: str = "csv") -> None:
    n, channels, length = ds.signals.shape
    c = ds.num_classes
    if format == "csv":
        with open(path, "w") as fh:
            fh.write(f"{n},{channels},{length},{c}\n")
            for sig, lab in zip(ds.signals, ds.labels):
                fh.write(",".join(str(int(v)) for v in lab) + "\n")
                for row in sig:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
    elif format == "raw_f32":
        with open(path, "wb") as fh:
            fh.write(_RAW_HEADER.pack(n, channels, length, c))
            fh.write(ds.labels.astype("<f4").tobytes())
            fh.write(ds.signals.astype("<f4").tobytes())
    else:
        raise ConfigurationError(f"unknown format {format!r}")


def load_dataset(path, format: str = "csv") -> Dataset:
    """Parse a dataset file, with the path as its id; raises ParseError with the offending location."""
    if format == "csv":
        return _load_csv(path)
    if format == "raw_f32":
        return _load_raw(path)
    raise ConfigurationError(f"unknown format {format!r}")


def _binary_rows(text: str, n: int, width):
    """The (n, w) float matrix of `text`, n lines joined by `\n`, when every one of its cells is
    one `0` or `1` byte and each line has w cells (`width`, when given); else None. Such a text
    is 2nw - 1 ASCII characters: a digit at each even offset, a `\n` at each line end but the
    last, and commas at the n(w - 1) odd offsets left, so a count checks those. Only the digits
    are copied, as bytes, before the matrix is formed."""
    w = (len(text) + 1) // 2 // max(n, 1)
    if not (text.isascii() and len(text) == 2 * n * w - 1 and width in (None, w)):
        return None
    digits = np.frombuffer(text[::2].encode(), dtype=np.uint8).reshape(n, w)
    if (digits.min() >= ord("0") and digits.max() <= ord("1") and text.count(",") == n * (w - 1)
            and text[2 * w - 1::2 * w].count("\n") == n - 1):
        rows = digits.astype(float)
        rows -= ord("0")
        return rows
    return None


def parse_rows(lines, width=None, skip_blank=False):
    """Rows of comma-separated floats: (rows before the first bad line, bad).

    `bad` is None when every line parsed. Otherwise it is (index into `lines`,
    cell count, float()'s ValueError or None) of the first line with a cell
    that float() rejects or with other than `width` cells (the first row's
    count when `width` is None). Under `skip_blank`, whitespace-only lines are
    skipped.

    A block whose every cell is a single `0` or `1` byte, w to a line, is read
    as bytes (`_binary_rows`), with the values float() gives; anything else in
    it (a blank line, a space, `-0`, `1.0`, a ragged row) leaves it to the
    readers below, as if there were no byte read. numpy's C reader parses a
    well-formed block. When it fails or warns, or the block holds a character
    it strips from a cell and float() does not (`\x1c`-`\x1f`), a scan with
    one float() per cell decides, so the accepted lines and their values are
    the scan's: float() also takes whitespace-only lines, `1_0` and non-ASCII
    digits, which the reader rejects. `comments=None` keeps the reader from
    taking `0.1#c` as 0.1.
    """
    text = "\n".join(lines)
    binary = _binary_rows(text, len(lines), width)
    if binary is not None:
        return binary, None
    if not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns on a block with no data
                rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
            # the reader skips empty lines, which only `skip_blank` allows
            if (skip_blank or len(rows) == len(lines)) and (width is None or width == rows.shape[1]):
                return rows, None
        except (ValueError, UserWarning):
            pass
    parsed = []
    for index, line in enumerate(lines):
        if skip_blank and not line.strip():
            continue
        cells = line.strip().split(",")
        width = len(cells) if width is None else width
        try:
            row, error = [float(v) for v in cells], None
        except ValueError as exc:
            row, error = None, exc
        if error is not None or len(cells) != width:
            return np.array(parsed).reshape(len(parsed), width), (index, len(cells), error)
        parsed.append(row)
    return np.array(parsed).reshape(len(parsed), width or 0), None


def open_input(path, mode="r", **kwargs):
    """`open` for an input file; a directory in its place (or a file on its path) is a ParseError."""
    try:
        return open(path, mode, **kwargs)
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None


def read_line_blocks(path):
    """Lines of a UTF-8 text file as `read_lines` splits them, in lists of whole lines of about
    _BLOCK_ELEMENTS characters; universal newlines split `\r\n` and `\r` even across a block edge.
    Undecodable bytes are a ParseError naming the path and their offset in the file, raised when the
    reader reaches them, so a bad row in an earlier block is met first."""
    try:
        with open_input(path, encoding="utf-8") as fh:
            while block := fh.read(_BLOCK_ELEMENTS) + fh.readline():
                yield block.removesuffix("\n").split("\n")
    except UnicodeDecodeError as exc:
        with open_input(path, "rb") as fh:  # the wrapper counts offsets from its chunk, a whole decode from the file
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def read_lines(path) -> list:
    """A UTF-8 text file split at `\n`, `\r\n` and `\r` only, less one trailing empty line (`read_line_blocks`, joined).

    `str.splitlines` would also split at `\f`, `\v`, `\x1c`-`\x1e`, `\x85`, `\u2028` and `\u2029`.
    """
    return list(chain.from_iterable(read_line_blocks(path)))


def _load_csv(path) -> Dataset:
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) != 4:
        raise ParseError(f"{path}:1: header must be n,channels,length,C")
    try:
        n, channels, length, c = (int(v) for v in header)
    except ValueError as exc:
        raise ParseError(f"{path}:1: non-integer header field ({exc})") from None
    _check_header(f"{path}:1", n, channels, length, c, bounded=False)  # a bad first row shapes an empty block
    expected = 1 + n * (1 + channels)
    if len(lines) != expected:
        raise ParseError(f"{path}: expected {expected} lines for n={n}, found {len(lines)}")
    # sample i is a label row on line 2 + i * stride, then its signal rows
    stride = 1 + channels
    body = lines[1:]
    labels, bad_label = parse_rows(body[::stride], c)
    signals, bad_signal = parse_rows([line for k, line in enumerate(body) if k % stride], length)
    errors = []  # (line number, message): the first failure of each kind, in file order
    non_binary = np.flatnonzero(~((labels == 0.0) | (labels == 1.0)).all(axis=1))
    if non_binary.size:
        errors.append((2 + non_binary[0] * stride, "labels must be 0 or 1"))
    if bad_label is not None:
        i, found, _ = bad_label
        errors.append((2 + i * stride, f"label row needs {c} cells, found {found}"
                       if found != c else "non-numeric label cell"))
    non_finite = np.flatnonzero(~np.isfinite(signals).all(axis=1))
    if non_finite.size:
        j = non_finite[0]
        errors.append((3 + j // channels * stride + j % channels, "non-finite signal cell"))
    if bad_signal is not None:
        j, found, _ = bad_signal
        errors.append((3 + j // channels * stride + j % channels,
                       f"signal row needs {length} cells, found {found}"
                       if found != length else "non-numeric signal cell"))
    if errors:
        lineno, message = min(errors)
        raise ParseError(f"{path}:{lineno}: {message}")
    return Dataset(signals.reshape(n, channels, length), labels, str(path))


def _load_raw(path) -> Dataset:
    with open_input(path, "rb") as fh:
        head = fh.read(_RAW_HEADER.size)
        if len(head) < _RAW_HEADER.size:
            raise ParseError(f"{path}: truncated header (offset 0)")
        n, channels, length, c = _RAW_HEADER.unpack(head)
        _check_header(path, n, channels, length, c, bounded=n > 0)
        if n and not channels * length:  # zero-byte samples: the file would not bound n
            raise ParseError(f"{path}: zero-byte signal block (channels {channels}, length {length})")
        size = os.fstat(fh.fileno()).st_size  # a block larger than the file is truncated
        labels_raw = fh.read(4 * n * c) if 4 * n * c <= size else b""
        if len(labels_raw) != 4 * n * c:
            raise ParseError(f"{path}: truncated label block (offset {_RAW_HEADER.size})")
        labels = np.frombuffer(labels_raw, dtype="<f4").reshape(n, c).astype(float)
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ParseError(f"{path}: non-binary label value")
        sample_bytes = 4 * channels * length
        block = fh.read(min(n * sample_bytes, size))
        if len(block) != n * sample_bytes:
            raise ParseError(f"{path}: truncated signal block for sample {len(block) // sample_bytes}")
    signals = np.frombuffer(block, dtype="<f4").reshape(n, channels, length)
    non_finite = np.flatnonzero(~np.isfinite(signals).all(axis=(1, 2)))
    if non_finite.size:
        raise ParseError(f"{path}: non-finite signal value in sample {non_finite[0]}")
    return Dataset(signals.astype(float), labels, str(path))


def _check_header(where, n, channels, length, c, bounded) -> None:
    """No header field is negative, and unless sample bytes bound them (`bounded`), numpy can shape an empty
    label block by C and an empty signal block by channels and length; else a ParseError at `where`."""
    if min(n, channels, length, c) < 0:
        raise ParseError(f"{where}: negative header field")
    if not (bounded or shapeable(0, c) and shapeable(0, channels, length)):
        raise ParseError(f"{where}: header too large to shape (channels {channels}, length {length}, C {c})")


# --- annotation mapping -------------------------------------------------------


@dataclass
class AnnotationMap:
    entries: dict  # normalized term -> set of superclass names

    @staticmethod
    def _normalize(term: str) -> str:
        return " ".join(term.strip().lower().split())

    @classmethod
    def from_file(cls, path) -> "AnnotationMap":
        entries: dict[str, set] = {}
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'term<TAB>superclass'")
            term, superclass = cls._normalize(parts[0]), parts[1].strip()
            if superclass not in SUPERCLASSES:
                raise ParseError(f"{path}:{lineno}: unknown superclass {superclass!r}")
            entries.setdefault(term, set()).add(superclass)
        if not entries:
            raise ParseError(f"{path}: mapping file has no entries")
        return cls(entries)

    @classmethod
    def default(cls) -> "AnnotationMap":
        ref = resources.files("ecgmatch").joinpath("annotation_map.txt")
        with resources.as_file(ref) as path:
            return cls.from_file(path)


def map_annotations(original_terms, am: AnnotationMap) -> np.ndarray:
    """Union of mapped superclasses as a binary vector over SUPERCLASSES.

    The normal-signal class is exclusive: it is dropped whenever any
    abnormality is present. Unknown terms are skipped with a warning; if
    nothing maps, the sample is unmappable and a ParseError is raised.
    """
    mapped: set = set()
    for term in original_terms:
        key = AnnotationMap._normalize(str(term))
        if key in am.entries:
            mapped |= am.entries[key]
        else:
            warnings.warn(f"unknown diagnosis term {term!r} skipped")
    if not mapped:
        raise ParseError(f"unmappable sample: none of {sorted(original_terms)!r} is known")
    if NORMAL_CLASS in mapped and len(mapped) > 1:
        mapped.discard(NORMAL_CLASS)
    return np.array([1.0 if name in mapped else 0.0 for name in SUPERCLASSES])


# --- split protocols ----------------------------------------------------------


@dataclass
class SplitResult:
    labeled: Subset
    unlabeled: Subset
    val: Subset
    test: Subset


def _picks(datasets, which) -> np.ndarray:
    """(2, n) int array: the dataset index and sample index of every sample of datasets[d], d in `which`."""
    return np.concatenate([np.zeros((2, 0), dtype=int)] + [
        np.stack([np.full(len(datasets[d]), d), np.arange(len(datasets[d]))]) for d in which], axis=1)


def _count(frac: float, n: int) -> int:
    return int(round(frac * n))


# the split seed's substream of each protocol
_SPLIT_SUBSTREAM = {"within": 0, "mix": 1, "cross": 2}


def split(datasets, spec: SplitSpec) -> SplitResult:
    """The split of `spec.protocol`: pool every dataset but the held-out one, shuffle the pool with the
    protocol's substream of the split seed, cut train/val/test, then labeled/unlabeled inside train.

    `within` splits one dataset and `mix` pools two or more, both by the spec's fractions; `cross` trains
    on 0.9 of the pool, validates on the rest and tests on the whole held-out dataset. Training needs every
    set but the unlabeled one, so a labeled, val or test set that the fractions (or rounding on few
    samples) leave empty is a ConfigurationError.
    """
    if spec.protocol == "within" and len(datasets) != 1:
        raise ConfigurationError("within protocol takes exactly one dataset")
    if spec.protocol == "mix" and len(datasets) < 2:
        raise ConfigurationError("mix protocol needs at least two datasets")
    ids = [ds.dataset_id for ds in datasets]
    repeated = [i for i in ids if ids.count(i) > 1]
    if repeated:  # the same samples would land in two sets
        raise ConfigurationError(f"dataset ids must be distinct, {repeated[0]!r} is repeated")
    cross = spec.protocol == "cross"
    if cross and spec.held_out_dataset not in ids:
        raise ConfigurationError(f"held-out id {spec.held_out_dataset!r} not among {ids}")
    held = ids.index(spec.held_out_dataset) if cross else None
    pool = _picks(datasets, [d for d in range(len(datasets)) if d != held])
    n = pool.shape[1]
    pool = pool[:, RandomStream(spec.seed).substream(_SPLIT_SUBSTREAM[spec.protocol]).generator().permutation(n)]
    n_train = _count(0.9 if cross else spec.train_frac, n)
    n_val = n - n_train if cross else _count(spec.val_frac, n)
    train, val = pool[:, :n_train], pool[:, n_train : n_train + n_val]
    test = _picks(datasets, [held]) if cross else pool[:, n_train + n_val :]
    n_lab = max(1, _count(spec.labeled_frac, n_train))
    result = SplitResult(*(Subset(datasets, *p) for p in (train[:, :n_lab], train[:, n_lab:], val, test)))
    for name in ("labeled", "val", "test"):
        if not len(getattr(result, name)):
            raise ConfigurationError(f"the {spec.protocol} split leaves the {name} set empty; "
                                     "change the split fractions or add samples")
    empty = np.flatnonzero(result.labeled.labels.sum(axis=0) == 0)
    if empty.size:
        five = datasets[0].num_classes == len(SUPERCLASSES)  # five classes are the superclasses by name
        names = [SUPERCLASSES[c] if five else f"class_{c}" for c in empty]
        warnings.warn(f"labeled split has no positives for classes {names}")
    return result


# the protocols by name: views of `split`
def split_within(ds: Dataset, spec: SplitSpec) -> SplitResult:
    return split([ds], replace(spec, protocol="within"))


def split_mix(datasets, spec: SplitSpec) -> SplitResult:
    return split(datasets, replace(spec, protocol="mix"))


def split_cross(datasets, spec: SplitSpec) -> SplitResult:
    return split(datasets, replace(spec, protocol="cross"))


# --- synthetic generation -----------------------------------------------------


@dataclass
class SynthConfig:
    n_samples: int = 2000
    target_marginals: tuple = (0.35, 0.3, 0.25, 0.3, 0.2)
    target_correlation: np.ndarray | None = None  # latent C x C, unit diagonal
    signal_length: int = 256
    channels: int = 3
    noise_level: float = 0.25
    seed: int = 0
    dataset_id: str = "synthetic"

    def __post_init__(self):
        if self.n_samples < 1 or self.num_classes < 2:
            raise ConfigurationError("need n_samples >= 1 and at least two target_marginals")
        if any(not 0.0 < m < 1.0 for m in self.target_marginals):
            raise ConfigurationError("target marginals must lie in (0, 1)")
        if self.noise_level < 0.0:
            raise ConfigurationError("noise_level must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError(f"data.synth.seed must be nonnegative, got {self.seed}")
        if self.channels < 1 or self.signal_length < 1:
            raise ConfigurationError("need channels >= 1 and signal_length >= 1")
        n, c, block = self.n_samples, self.num_classes, (self.channels, self.signal_length)
        # synth_generate shapes (n, C) labels and (n or C, channels, length) signals and prototypes
        if not (shapeable(n, c) and shapeable(max(n, c), *block)):
            raise ConfigurationError("data.synth: n_samples, channels and signal_length "
                                     f"{reprlib.repr((n, *block))} shape a block too large for numpy")

    @property
    def num_classes(self) -> int:
        return len(self.target_marginals)


def nearest_positive_definite(matrix: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Eigenvalue-clipped approximation with the diagonal rescaled to one."""
    sym = (matrix + matrix.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    fixed = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def default_prototypes(cfg: SynthConfig) -> np.ndarray:
    """Deterministic per-class waveforms: distinct frequencies, phase-shifted per channel."""
    t = np.linspace(0.0, 1.0, cfg.signal_length, endpoint=False)
    protos = np.empty((cfg.num_classes, cfg.channels, cfg.signal_length))
    for c in range(cfg.num_classes):
        for ch in range(cfg.channels):
            phase = 2.0 * np.pi * ch / max(cfg.channels, 1)
            protos[c, ch] = np.sin(2.0 * np.pi * (c + 2.0) * t + phase) + 0.3 * np.sin(
                2.0 * np.pi * (2 * c + 5.0) * t
            )
    return protos


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Correlated multi-label dataset with prototype-mixture signals.

    Labels: z ~ N(0, target_correlation); y_c = 1 iff z_c exceeds the
    quantile threshold that gives the target marginal exactly. Signals:
    sum of active-class prototypes plus i.i.d. Gaussian noise.
    """
    c = cfg.num_classes
    corr = np.eye(c) if cfg.target_correlation is None else np.asarray(cfg.target_correlation, dtype=float)
    if corr.shape != (c, c) or not np.allclose(corr, corr.T) or not np.allclose(np.diag(corr), 1.0):
        raise ConfigurationError("target_correlation must be symmetric with unit diagonal")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        suggestion = nearest_positive_definite(corr)
        raise ConfigurationError(
            "target_correlation is not positive definite; nearest usable matrix:\n"
            f"{np.array_str(suggestion, precision=4)}"
        ) from None

    # the upper-tail normal quantile
    thresholds = np.array([-NormalDist().inv_cdf(p) for p in cfg.target_marginals])
    stream = RandomStream(cfg.seed)
    g_labels = stream.substream(0).generator()
    z = g_labels.standard_normal((cfg.n_samples, c)) @ chol.T
    labels = (z > thresholds[None, :]).astype(float)

    protos = default_prototypes(cfg)
    n = cfg.n_samples
    signals = np.empty((n, *protos.shape[1:]))
    # one (1, c) @ (c, channels*length) product per row: the gemv that
    # tensordot(labels[i], protos, 1) runs, so the sums keep their order
    np.matmul(labels[:, None, :], protos.reshape(c, -1), out=signals.reshape(n, 1, -1))
    for i, g in enumerate(stream.substream(1).children(np.arange(n))):
        signals[i] += cfg.noise_level * g.standard_normal(signals.shape[1:])
    return Dataset(signals, labels, cfg.dataset_id)


# --- preprocessing ------------------------------------------------------------


def encode_subset(signals, pool_len: int = 32) -> np.ndarray:
    """Encode an (n, channels, length) signal array as an (n, channels*pool_len) model input matrix.

    Each channel is z-scored (constant channels become zeros) and averaged
    into pool_len >= 1 bins with edges linspace(0, length, pool_len+1); a
    bin narrower than one sample takes the sample at its left edge. The
    output width is independent of the input length, so recordings of
    different durations map to a fixed model input size. The input is read
    as a C-ordered array (a copy only if it is not one already), so every
    reduction runs along the contiguous time axis of one row and the output
    equals per-signal encoding bit for bit, whatever the input's layout.
    The channels are centred into one array and divided by their std in
    place (into a zero-filled copy only when a channel is constant or NaN).
    When pool_len equal bins tile the row, each bin is a contiguous run of
    the z-scored row, so a reshape pools them without a copy. Otherwise
    bins are pooled one width at a time: `np.take` gathers the bins of one
    width as a contiguous (n, channels, bins, width) array. Either way each
    bin's mean sums it in the order a slice of it would.
    """
    if pool_len < 1:
        raise ConfigurationError(f"pool_len must be at least 1, got {pool_len}")
    x = np.ascontiguousarray(signals, dtype=float)
    n, channels, length = x.shape
    edges = np.linspace(0, length, pool_len + 1).astype(int)
    lo = edges[:-1]
    width = np.maximum(edges[1:] - lo, 1)
    z = x - x.mean(axis=2, keepdims=True)
    std = np.sqrt(np.multiply(z, z).sum(axis=2, keepdims=True) / length)  # x.std's own steps
    if (std > 0.0).all():
        z /= std
    else:  # constant and NaN channels become zeros
        z = np.divide(z, std, out=np.zeros_like(z), where=std > 0.0)
    if length == pool_len * width[0]:  # equal bins tile the row: the gather's layout, as a view
        return z.reshape(n, channels * pool_len, width[0]).mean(axis=2)
    pooled = np.empty((n, channels, pool_len))
    for w in np.unique(width):
        bins = np.flatnonzero(width == w)
        pooled[:, :, bins] = np.take(z, lo[bins, None] + np.arange(w), axis=2).mean(axis=3)
    return pooled.reshape(n, channels * pool_len)
