"""The config schema against the README's JSON example, and the JSON load.

Every leaf value of the example is swapped for each of a set of wrongly (or
oddly) typed JSON values, one key at a time and then a few at a time: the
parser must accept the result or raise ConfigurationError, never anything
else. A file that is no standard JSON is a ConfigurationError too.
"""

import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecgmatch.config import load_experiment_config, parse_experiment_config
from ecgmatch.data import SynthConfig, synth_generate
from ecgmatch.errors import ConfigurationError

README = Path(__file__).resolve().parents[1] / "README.md"
SWAPS = ["x", True, 1.5, 10**400, [1], [[1], [1, 2]], {}, None]


def readme_example() -> dict:
    block = re.search(r"### Config file\n.*?```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(block.group(1))


def leaf_paths(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    where = doc
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = value
    return doc


def outcome(doc):
    try:
        parse_experiment_config(doc)
    except ConfigurationError:
        return "rejected"
    return "parsed"


def test_readme_example_is_the_all_defaults_config():
    example = parse_experiment_config(readme_example())
    defaults = parse_experiment_config({"data": {"synth": {}}})
    assert replace(example, output_dir=defaults.output_dir) == defaults


def test_every_readme_leaf_swapped_for_a_wrong_type_parses_or_is_a_configuration_error():
    example = readme_example()
    paths = list(leaf_paths(example))
    assert len(paths) > 50  # the walk found the example
    seen = set()
    for path in paths:
        for value in SWAPS:
            seen.add(outcome(with_value(example, path, value)))
    assert seen == {"parsed", "rejected"}


def test_random_multi_key_swaps_parse_or_are_a_configuration_error():
    example = readme_example()
    paths = list(leaf_paths(example))
    g = np.random.default_rng(8)
    for _ in range(200):
        doc = example
        for k in g.choice(len(paths), size=int(g.integers(2, 5)), replace=False):
            doc = with_value(doc, paths[k], SWAPS[g.integers(len(SWAPS))])
        outcome(doc)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_json_constants_are_rejected(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text('{"data": {"synth": {}}, "metrics": {"threshold": %s}}' % text)
    with pytest.raises(ConfigurationError, match=f"{text} is not a JSON number"):
        load_experiment_config(path)


@pytest.mark.parametrize("text", [b'{"seeds": ' + b"[" * 100000 + b"1" + b"]" * 100000 + b"}",
                                  b'{"output_dir": "\xff"}'], ids=["too deeply nested", "not utf-8"])
def test_unreadable_json_is_a_configuration_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_experiment_config(path)


def test_the_increasing_schedule_knob_is_gone():
    doc = {"data": {"synth": {}}, "train": {"optimizer": {"increasing_schedule": False}}}
    with pytest.raises(ConfigurationError, match=r"unknown keys in train.optimizer: \['increasing_schedule'\]"):
        parse_experiment_config(doc)


@pytest.mark.parametrize("section,key,value", [
    (("split",), "test_frac", 0.1),  # the test split is what train_frac and val_frac leave
    (("data", "synth"), "num_classes", 5),  # the length of target_marginals
])
def test_derived_keys_are_unknown(section, key, value):
    doc = readme_example()
    where = doc
    for name in section:
        where = where[name]
    where[key] = value
    with pytest.raises(ConfigurationError, match=rf"unknown keys in {'.'.join(section)}: \['{key}'\]"):
        parse_experiment_config(doc)


def test_the_metrics_section_configures_training():
    doc = {"data": {"synth": {}}, "metrics": {"threshold": 0.3, "gbeta_beta": 1.5}}
    cfg = parse_experiment_config(doc)
    assert (cfg.train.metrics.threshold, cfg.train.metrics.gbeta_beta) == (0.3, 1.5)
    assert not hasattr(cfg, "metrics")
    with pytest.raises(ConfigurationError, match=r"unknown keys in train: \['metrics'\]"):
        parse_experiment_config({"data": {"synth": {}}, "train": {"metrics": {}}})


def test_seeds_and_gbeta_beta_are_legal_down_to_zero():
    doc = {"data": {"synth": {"seed": 0}}, "seeds": [0], "metrics": {"gbeta_beta": 0.0}}  # beta 0 is recall
    cfg = parse_experiment_config(doc)
    assert (cfg.seeds, cfg.data.synth.seed, cfg.train.metrics.gbeta_beta) == ((0,), 0, 0.0)
    for path, value, message in [(("seeds",), [0, -1], r"seeds must be nonnegative, got \[0, -1\]"),
                                 (("data", "synth", "seed"), -1, "data.synth.seed must be nonnegative, got -1"),
                                 (("metrics", "gbeta_beta"), -1e-300, "gbeta_beta must be nonnegative")]:
        with pytest.raises(ConfigurationError, match=message):
            parse_experiment_config(with_value(doc, path, value))
    with pytest.raises(ConfigurationError, match="seeds must be nonnegative"):
        replace(cfg, seeds=(-2,))  # as the --seed override does


def test_a_json_target_correlation_parses_to_the_array_of_a_python_synth_config():
    corr = [[1, 0.25, 0], [0.25, 1, -0.5], [0, -0.5, 1]]
    synth = {"n_samples": 50, "target_marginals": [0.3, 0.2, 0.4], "target_correlation": corr}
    got = parse_experiment_config({"data": {"synth": synth}}).data.synth
    want = SynthConfig(n_samples=50, target_marginals=(0.3, 0.2, 0.4), target_correlation=np.array(corr, dtype=float))
    assert got.target_correlation.dtype == np.float64
    np.testing.assert_array_equal(got.target_correlation, want.target_correlation)
    assert replace(got, target_correlation=None) == replace(want, target_correlation=None)
    np.testing.assert_array_equal(synth_generate(got).labels, synth_generate(want).labels)
