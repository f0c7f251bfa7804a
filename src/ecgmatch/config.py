"""Experiment configuration: a strict JSON document.

Each section is a dataclass whose fields are its keys. A field's default is
the key's default, and the default's type is the key's JSON type (`_convert`
states the rule), so this module declares no default of its own. Sections
live with what they configure: `trainer.TrainConfig` with its `knn`,
`optimizer` and `ablations`, `augment.AugmentConfig`, `metrics.MetricsConfig`
(the root `metrics` section, held by TrainConfig), `data.SplitSpec` and
`data.SynthConfig`; the rest are below. `parse_experiment_config` sets the
few fields that other keys feed, and `seed` is no key. Unknown keys are
rejected everywhere, so a typo fails loudly instead of running defaults.
Every failure is a ConfigurationError. See README.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import augment, metrics, nn, trainer
from .data import SplitSpec, SynthConfig, open_input
from .errors import ConfigurationError

_ROOT = "config root"


@dataclass
class DataSource:
    synth: SynthConfig | None = None
    paths: tuple = ()
    format: str = "csv"

    def __post_init__(self):
        if (self.synth is None) == (not self.paths):
            raise ConfigurationError("data section needs exactly one of 'synth' or 'paths'")
        if not all(isinstance(p, str) for p in self.paths):
            raise ConfigurationError(f"invalid value in data: paths must be strings, got {list(self.paths)!r}")
        if self.format not in ("csv", "raw_f32"):
            raise ConfigurationError(f"unknown data format {self.format!r}")


@dataclass(frozen=True)
class GridConfig:
    axis: str = "lambda_f"
    values: tuple = (0.0, 0.4, 0.8, 1.2, 1.6)  # the unswept weight is train's

    def __post_init__(self):
        if self.axis not in ("lambda_u", "lambda_f", "cartesian"):
            raise ConfigurationError(f"grid axis must be lambda_u, lambda_f or cartesian, got {self.axis!r}")
        if not self.values:
            raise ConfigurationError("grid values must be a nonempty list")


@dataclass
class ExperimentConfig:
    data: DataSource
    train: trainer.TrainConfig
    model_name: str  # train.baseline unless the config names it
    output_dir: str = "runs"
    seeds: tuple = (0, 1, 2)
    split: SplitSpec = field(default_factory=SplitSpec)
    grid: GridConfig = field(default_factory=GridConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigurationError("seeds must be a nonempty list of integers")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")


def _convert(default, value, where: str, name: str):
    """The JSON `value` of key `name` in section `where`, as the type of `default`.

    bool: true/false. int: a number with no fractional part. float: a number
    that is finite as a double. str: a string. tuple: a list of the default's
    element type. None: null or a string. dataclass: an object, built in turn.
    """
    if is_dataclass(default):
        return _build(type(default), value, name if where == _ROOT else f"{where}.{name}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, tuple):
        if isinstance(value, list):
            if not default:  # no element type to hold the items to
                return tuple(value)
            return tuple(_convert(default[0], v, where, f"{name}[{i}]") for i, v in enumerate(value))
        expected = "a list"
    elif default is None:
        if value is None or isinstance(value, str):
            return value
        expected = "null or a string"
    elif isinstance(default, (bool, str)):
        if type(value) is type(default):
            return value
        expected = "true or false" if isinstance(default, bool) else "a string"
    elif isinstance(default, int):
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        expected = "an integer"
    else:
        try:
            if number and math.isfinite(float(value)):
                return float(value)
        except OverflowError:  # an integer beyond the double range
            pass
        expected = "a finite number"
    raise ConfigurationError(f"invalid value in {where}: {name} must be {expected}, got {reprlib.repr(value)}")


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"invalid value in {where}: expected an object, got {reprlib.repr(doc)}")
    return dict(doc)


def _take(cls, doc: dict, where: str, names) -> dict:
    """Pop each of `names` that `doc` holds, converted by the type of cls's default for that field."""
    return {f.name: _convert(f.default_factory() if f.default is MISSING else f.default,
                             doc.pop(f.name), where, f.name)
            for f in fields(cls) if f.name in names and f.name in doc}


def _build(cls, doc, where: str, skip=(), **given):
    """A `cls` from the JSON object `doc`, section `where`.

    Every field outside `given` and `skip` is read from its key when present
    and keeps its dataclass default when absent. The caller sets the fields
    in `given`; those in `skip` keep their default. Any other key is unknown.
    """
    doc = _object(doc, where)
    values = _take(cls, doc, where, [f.name for f in fields(cls) if f.name not in (*given, *skip)])
    if doc:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(doc)}")
    return cls(**values, **given)


def _synth(doc) -> SynthConfig:
    doc = _object(doc, "data.synth")
    corr = doc.pop("target_correlation", None)
    if corr is not None:  # a list of equally long lists of numbers
        corr = _convert(((0.0,),), corr, "data.synth", "target_correlation")
        if len({len(row) for row in corr}) > 1:
            raise ConfigurationError("invalid value in data.synth: target_correlation rows differ in length")
        corr = np.array(corr, dtype=float)
    return _build(SynthConfig, doc, "data.synth", target_correlation=corr)


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    root = _object(doc, _ROOT)
    train = _object(root.pop("train", {}), "train")
    weights = nn.LossWeights(**_take(nn.LossWeights, train, "train", ("lambda_u", "lambda_f")))
    # run_experiment sets both seeds from each entry of `seeds`
    train = _build(trainer.TrainConfig, train, "train", skip=("seed", "similarity"), weights=weights,
                   augment_cfg=_build(augment.AugmentConfig, root.pop("augment", {}), "augment"),
                   metrics=_build(metrics.MetricsConfig, root.pop("metrics", {}), "metrics"),
                   **_take(trainer.TrainConfig, root, _ROOT, ("similarity",)))
    split = _build(SplitSpec, root.pop("split", {}), "split", skip=("seed",))
    data = _object(root.pop("data", {}), "data")
    synth = data.pop("synth", None)
    data = _build(DataSource, data, "data", synth=None if synth is None else _synth(synth))
    model_name = _convert(train.baseline, root.pop("model_name", train.baseline), _ROOT, "model_name")
    return _build(ExperimentConfig, root, _ROOT, data=data, train=train, model_name=model_name, split=split)


def _reject_constant(name):
    raise ConfigurationError(f"{name} is not a JSON number")


def load_experiment_config(path) -> ExperimentConfig:
    with open_input(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:  # malformed, NaN, undecodable or too deeply nested
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return parse_experiment_config(doc)
