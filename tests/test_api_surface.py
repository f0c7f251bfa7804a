"""Every public function, class and method of the package has a caller.

The source of `ecgmatch` and of the benchmark harness is parsed, and every
`Name`, `Attribute` and import alias in it counts as a reference. A public
top-level function or class, or a public method, that no reference names is
API that only tests call, and it fails this test. Names that only the test
suite or an outside reader calls on purpose are listed in ALLOWED.

Every field of a dataclass of the package is read somewhere outside the
tests too, so no state is written and never used; FIELDS_READ_ELSEWHERE
lists the few that are read by name or only by a test on purpose.

Likewise every `TrainConfig` field but `seed`, which `seeds` sets, is set
from the JSON config, so no training knob is reachable only from Python.
No module of the package reads a private name of another one, and every
module-level private function, class and assigned name is loaded somewhere
in the package, so no private helper outlives its last caller.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from ecgmatch.config import parse_experiment_config
from ecgmatch.errors import ConfigurationError
from ecgmatch.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ecgmatch").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "knn_query": "the acceptance suite checks the neighbour ranking one query at a time through it",
    "neighbor_agreement": "the acceptance suite checks the agreement formula on one neighbourhood through it",
    "pearson_correlation": "the acceptance suite's class-distribution witness calls it",
    "load_params": "the one reader of the checkpoints that `ecgmatch run` writes",
    # one-row views of augment_batch's block code
    "signal_dropout": "the acceptance suite calls it",
    "temporal_flip": "the acceptance suite calls it",
    "channel_reorganization": "the acceptance suite calls it",
    "random_noise": "the acceptance suite calls it",
    "weak_augment": "the acceptance suite calls it",
    "strong_augment": "the acceptance suite calls it",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def test_every_public_name_has_a_caller_outside_tests():
    defined, referenced = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent.name == "ecgmatch":
            defined += [(path.name, name) for name in _public_definitions(tree)]
        referenced.update(_references(tree))
    assert len(defined) > 50  # the scan found the package
    assert set(ALLOWED) <= {name for _, name in defined}, "an allowlisted name is gone; drop it"
    unused = [f"{module}:{name}" for module, name in defined
              if name.rsplit(".", 1)[-1] not in referenced and name not in ALLOWED]
    assert unused == [], f"public names with no caller outside the tests: {unused}"


FIELDS_READ_ELSEWHERE = {
    "Subset.provenance": "the acceptance suite reads it to check where split rows came from",
    "LossBreakdown.total": "the acceptance suite checks the loss identity through it",
    "MetricsReport.hamming_loss": "MetricsReport.value reads it through getattr",
    "MetricsReport.macro_gbeta": "MetricsReport.value reads it through getattr",
}


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}"


def test_every_dataclass_field_is_read_outside_tests():
    """A field that no code reads is state written for nothing; tests alone do not count as readers."""
    fields_, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent.name == "ecgmatch":
            fields_ += [(path.name, name) for name in _dataclass_fields(tree)]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert len(fields_) > 50  # the scan found the package's dataclasses
    assert set(FIELDS_READ_ELSEWHERE) <= {name for _, name in fields_}, "an allowlisted field is gone; drop it"
    unread = [f"{module}:{name}" for module, name in fields_
              if name.split(".")[1] not in read and name not in FIELDS_READ_ELSEWHERE]
    assert unread == [], f"dataclass fields that nothing outside the tests reads: {unread}"


# a non-default value for every TrainConfig field but `seed`, at its JSON key
EVERY_TRAIN_KNOB = {
    "similarity": "pearson",
    "augment": {"noise_sigma": 0.2},
    "metrics": {"threshold": 0.3},
    "train": {
        "batch_labeled": 3, "batch_unlabeled": 5, "lambda_u": 0.1, "lambda_f": 0.2,
        "knn": {"k": 3}, "optimizer": {"lr0": 0.1}, "max_epochs": 2, "patience": 3,
        "eval_metric": "macro_auc", "ablations": {"no_nam": True}, "baseline": "fixed_threshold",
        "fixed_threshold_tau": 0.5, "hidden_dims": [4], "feature_dim": 4, "head_hidden": 4,
        "activation": "tanh", "pool_len": 4, "pretrain_max_epochs": 2, "pretrain_patience": 2,
        "pretrain_augment": False,
    },
}


def test_every_train_config_field_is_set_from_the_json_config():
    """A TrainConfig field no config key sets is a knob no config can turn; `seed` comes from `seeds`."""
    doc = {"data": {"synth": {}}, **EVERY_TRAIN_KNOB}
    train = parse_experiment_config(doc).train
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    changed = {name for name in names if getattr(train, name) != getattr(TrainConfig(), name)}
    assert changed == names - {"seed"}, f"TrainConfig fields no config can set: {names - {'seed'} - changed}"
    with pytest.raises(ConfigurationError, match=r"unknown keys in train: \['seed'\]"):
        parse_experiment_config({**doc, "train": {**doc["train"], "seed": 5}})


def _broad_handlers(tree):
    """(function, line) of each handler that catches Exception or more."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                owner.setdefault(sub, node.name)  # ast.walk is breadth-first: the outermost function wins
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"))
                   for t in caught):
                yield owner.get(node), node.lineno


def test_the_cli_boundary_is_the_one_broad_exception_handler():
    """Only `cli._guarded` turns an arbitrary failure into an exit code; nothing else swallows one."""
    found = [(path.name, function) for path in sorted((ROOT / "src" / "ecgmatch").glob("*.py"))
             for function, _ in _broad_handlers(ast.parse(path.read_text(), filename=str(path)))]
    assert found == [("cli.py", "_guarded")]


def _private_reads(tree):
    """Each `from .x import _name`, and each `name._attr` where `name` was imported from the package."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ecgmatch")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"line {node.lineno}: imports {alias.name}"
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            yield f"line {node.lineno}: reads {node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_name():
    probe = "from .data import _BLOCK, Subset\nfrom . import nn\nnn._step(Subset._walk, self._own)"
    assert len(list(_private_reads(ast.parse(probe)))) == 3
    found = [f"{path.name} {hit}" for path in sorted((ROOT / "src" / "ecgmatch").glob("*.py"))
             for hit in _private_reads(ast.parse(path.read_text(), filename=str(path)))]
    assert found == [], f"private names read across modules: {found}"


def _private_definitions(tree):
    """Each module-level private function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_name_is_loaded_in_the_package():
    """A private helper, class or constant that nothing in the package reads is dead; tests alone do not count."""
    defined, loaded = [], set()
    for path in sorted((ROOT / "src" / "ecgmatch").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, name) for name in _private_definitions(tree)]
        loaded.update(_loads(tree))
    assert len(defined) > 50  # the scan found the package's private names
    unused = [f"{module}:{name}" for module, name in defined if name not in loaded]
    assert unused == [], f"private names nothing in the package loads: {unused}"
