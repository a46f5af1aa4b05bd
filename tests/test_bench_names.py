"""The benchmark under `perfbench/` reaches the package by name: its tracer
wraps `sqwa.<module>.<attribute>` callables, its workloads call
`sqwa.<name>` on the package root and open a run's artifacts by their keys
in `pipeline._paths`. A rename in `src/` would otherwise break only
benchmark runs, so the names are resolved here, reading those files without
importing them."""

import ast
import importlib
from pathlib import Path

import pytest

import sqwa
from sqwa import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                 for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED list")


def _root_names():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "sqwa"})


def _artifact_keys():
    # the constant keys read from a `paths` mapping, the run paths that
    # `pipeline.run_stages` returns
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({node.slice.value for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                   and getattr(node.value, "id", None) == "paths"
                   and isinstance(node.slice, ast.Constant)})


def test_the_benchmark_names_something():
    assert len(_traced()) >= 10 and len(_root_names()) >= 10 and len(_artifact_keys()) >= 3


@pytest.mark.parametrize("module,attribute", _traced())
def test_every_traced_callable_is_defined_on_its_module(module, attribute):
    # the tracer looks the callable up in the defining module's (or class's) own
    # namespace, not through inheritance or re-exports
    owner = importlib.import_module(f"sqwa.{module}")
    for part in attribute.split("."):
        assert part in vars(owner), f"sqwa.{module} has no {attribute}"
        owner = vars(owner)[part]
    assert callable(owner)


@pytest.mark.parametrize("name", _root_names())
def test_every_workload_name_resolves_on_the_package_root(name):
    assert hasattr(sqwa, name), f"sqwa.{name} is used by perfbench/workloads.py"


@pytest.mark.parametrize("key", _artifact_keys())
def test_every_artifact_the_workloads_open_is_a_run_path(tmp_path, key):
    assert key in pipeline._paths(pipeline.default_config(tmp_path)), \
        f"perfbench/workloads.py opens paths[{key!r}]"
