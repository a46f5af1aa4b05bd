"""The benchmark under `perfbench/` reaches the package by name: its tracer
wraps `sqwa.<module>.<attribute>` callables, its workloads call
`sqwa.<name>` on the package root and open a run's artifacts by their keys
in `pipeline._paths`. A rename in `src/`, of a name or of a parameter, would
otherwise break only benchmark runs, so the names are resolved and the
workloads' calls bound to the live signatures here, reading those files
without importing them."""

import ast
import importlib
import inspect
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


def _calls():
    # (module, name, positional count, keyword names, starred) of every
    # `sqwa.<name>(...)` and `pipeline.<name>(...)` call; starred arguments
    # are not counted, and a call that has any is only partly bound
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("sqwa", "pipeline")):
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            starred = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            yield pytest.param(func.value.id, func.attr, len(positional), keywords, starred,
                               id=f"{func.value.id}.{func.attr}:{node.lineno}")


def test_the_benchmark_names_something():
    assert len(_traced()) >= 10 and len(_root_names()) >= 10 and len(_artifact_keys()) >= 3
    assert len(list(_calls())) >= 10


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


@pytest.mark.parametrize("module,name,positional,keywords,starred", _calls())
def test_every_workload_call_binds_to_the_live_signature(module, name, positional, keywords,
                                                         starred):
    target = getattr({"sqwa": sqwa, "pipeline": pipeline}[module], name)
    bind = inspect.signature(target).bind_partial if starred else inspect.signature(target).bind
    try:
        bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        raise AssertionError(f"perfbench/workloads.py calls {module}.{name} with "
                             f"{positional} positional and keywords {keywords}: {exc}") from None


def test_the_tracer_finds_its_arguments_where_it_reads_them(monkeypatch):
    # perfbench/tracer.py reads forward's args[0] and args[1] as the network
    # and the batch, and loss_and_backward's args[0] and args[2] as the
    # network and the logits, whose len() it counts as the batch size
    import numpy as np
    from sqwa import nn, qat
    assert list(inspect.signature(nn.forward).parameters)[:2] == ["net", "batch"]
    assert list(inspect.signature(nn.loss_and_backward).parameters)[:3] == \
        ["net", "cache", "logits"]
    seen = []

    def spy(*args, **kwargs):
        seen.append((args, nn.forward(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(qat, "forward", spy)
    net = nn.init_weights([nn.dense(8, 24), nn.relu(), nn.dense(24, 10)], (8,), seed=1)
    batch = np.zeros((32, 8))
    qat.qat_train_step(net, nn.OptimizerState.for_network(net, 0.9), batch,
                       np.eye(10)[np.arange(32) % 10], 0.1)
    [(args, (logits, _))] = seen
    assert args[0] is net and args[1] is batch
    assert logits.shape == (32, 10) and len(logits) == len(batch)


def test_the_artifact_attributes_the_workloads_read_exist(tmp_path):
    # perfbench/workloads.py also reads attributes of the objects it loads
    # from a finished run: the capture bank's entries, bits and steps, each
    # entry's shadow network and quantized model, the final model's network,
    # bits and steps, and the averaged model's count, network and base steps.
    # A seconds-scale run's artifacts hold every one of them.
    cfg = pipeline.RunConfig.from_dict({
        "seed": 7, "output_dir": str(tmp_path), "bits": 2, "average_last_n": 2,
        "dataset": {"num_classes": 3, "samples_per_class": 20, "test_samples_per_class": 20,
                    "dims": 4, "spread": 0.45},
        "pretrain": {"epochs": 6, "milestones": [2, 4], "batch_size": 16},
        "cyclical": {"epochs": 8, "period": 4},
        "finetune": {"epochs": 2},
    })
    paths = pipeline.run_stages(cfg, pipeline.STAGES[-1])["paths"]
    bank = sqwa.load(paths["capture_bank"])
    assert len(bank.entries) == 2 and bank.bits == 2 and len(bank.steps) == 2
    for entry in bank.entries:
        layers = entry.shadow.param_layers()
        assert [entry.shadow.weights[i].shape for i in layers] == \
            [entry.model.net.weights[i].shape for i in layers]
        assert sqwa.params_to_vector(entry.shadow).shape == entry.model.net.flat.shape
    final = sqwa.load(paths["final_quantized"])
    assert final.bits == 2 and len(final.steps) == len(final.net.param_layers())
    avg = sqwa.load(paths["averaged"])
    assert avg.count == 2 and len(avg.base_steps) == len(avg.net.param_layers())
