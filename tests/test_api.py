"""Every public callable of sqwa takes public types: no parameter of a
name in a module's `__all__`, or of a public method of such a class, is
annotated with a `_`-prefixed name."""

import importlib
import inspect
import pkgutil
import re

import sqwa

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
