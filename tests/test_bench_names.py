"""The igei names the benchmark under ``bench/`` reaches for, read without running it.

``bench/probe.py`` wraps functions by (module, attribute) and
``bench/test_bench.py`` calls others by name; a name deleted or renamed
here would break ``bench/run.py --trace 1`` and ``pytest bench`` alone.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parsed(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def assigned(module, name):
    """The literal value of ``module``'s top-level assignment to ``name``."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def probed():
    """(module, attribute) of every function that the probe spans or counts."""
    probe = parsed("probe.py")
    return [(module, attr) for layers in ("SPANNED", "COUNTED")
            for _, module, attr in assigned(probe, layers)]


def called():
    """(module, attribute) of every igei name that bench/test_bench.py calls:
    an imported name, or an attribute of one."""
    tree = parsed("test_bench.py")
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "igei"
        for alias in node.names
    }
    calls = set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id in imported:
            calls.add(imported[func.id])
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            module, name = imported[func.value.id]
            calls.add((module, f"{name}.{func.attr}"))
    return sorted(calls)


def resolve(module, attr):
    """``module``'s dotted ``attr``, importing a submodule where a part names one."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(owner, part):
            owner = importlib.import_module(f"{owner.__name__}.{part}")
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", probed())
def test_probed_name_resolves(module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize("module, attr", called())
def test_called_name_resolves(module, attr):
    assert callable(resolve(module, attr))


def test_the_lists_are_read():
    assert ("igei.pipeline", "score_territory") in probed()
    assert ("igei.model", "Dataset.get") in probed()
    assert {("igei", "cli.main"), ("igei", "pipeline.score_territory"),
            ("igei.model", "Dataset")} <= set(called())
