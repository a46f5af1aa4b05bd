"""Every public callable of sqwa takes public types: no parameter of a
name in a module's `__all__`, or of a public method of such a class, is
annotated with a `_`-prefixed name. The library's constructors refuse a
non-finite or boolean value where they are built."""

import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import sqwa
from sqwa import build_plane, evaluate_surface, levels_count, synthetic_blobs
from sqwa.nn import dense, init_weights
from sqwa.schedule import CyclicalSchedule, StepDecaySchedule

MODULES = ["sqwa", *(f"sqwa.{m.name}" for m in pkgutil.iter_modules(sqwa.__path__))]


def _public_callables():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield f"{module_name}.{name}", obj
                for attr in dir(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and (inspect.isfunction(member)
                                                     or inspect.ismethod(member)):
                        yield f"{module_name}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module_name}.{name}", obj


def _private_annotations(fn) -> list[str]:
    try:
        params = inspect.signature(fn).parameters
    except ValueError:      # a builtin constructor (an exception's) is unannotated
        return []
    found = []
    for param in params.values():
        if param.annotation is inspect.Parameter.empty:
            continue
        text = (param.annotation if isinstance(param.annotation, str)
                else inspect.formatannotation(param.annotation))
        if any(name.startswith("_") for name in re.findall(r"[A-Za-z_]\w*", text)):
            found.append(f"{param.name}: {text}")
    return found


def test_public_callables_take_public_types():
    checked = dict(_public_callables())
    assert "sqwa.qat.qat_train_step" in checked and "sqwa.nn.OptimizerState.for_network" in checked
    offenders = {name: found for name, fn in checked.items()
                 if (found := _private_annotations(fn))}
    assert offenders == {}


def _surface_at(resolution):
    net = init_weights([dense(2, 2)], (2,), seed=5)
    plane = build_plane(net.flat, net.flat + 1.0, net.flat + np.arange(net.flat.size))
    return evaluate_surface(plane, net, synthetic_blobs(2, 3, 2, 0.5, seed=5),
                            resolution=resolution)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: synthetic_blobs(2, 3, 2, math.nan, seed=0), "spread > 0 and finite",
                 id="blobs-spread-nan"),
    pytest.param(lambda: synthetic_blobs(2, 3, 2, math.inf, seed=0), "spread > 0 and finite",
                 id="blobs-spread-inf"),
    pytest.param(lambda: StepDecaySchedule(math.nan, 0.1, (2,), 4),
                 "initial_lr must be positive and finite, got nan", id="step-decay-nan"),
    pytest.param(lambda: StepDecaySchedule(math.inf, 0.1, (2,), 4),
                 "initial_lr must be positive and finite, got inf", id="step-decay-inf"),
    pytest.param(lambda: CyclicalSchedule(math.inf, 0.1, 3, 1, 6),
                 "need finite max_lr > min_lr > 0, got inf, 0.1", id="cyclical-max-inf"),
    pytest.param(lambda: levels_count(True), "bit width must be an integer >= 1, got True",
                 id="levels-count-bool"),
    pytest.param(lambda: _surface_at(2.5),
                 "resolution must be an integer >= 2 per axis, got 2.5", id="surface-resolution"),
])
def test_a_constructor_refuses_a_non_finite_or_boolean_value(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
