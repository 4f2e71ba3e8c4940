"""The package's export list and its dataclasses' docstrings."""

import dataclasses
import importlib
import inspect
import pkgutil

import moransar


def test_every_exported_name_resolves():
    missing = [name for name in moransar.__all__ if not hasattr(moransar, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(moransar.__all__) == len(set(moransar.__all__))


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclass builds __doc__ from inspect.signature at
    # import, as "Name(field: type, ...)"
    undocumented = []
    for info in pkgutil.iter_modules(moransar.__path__):
        module = importlib.import_module(f"moransar.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and cls.__doc__.startswith(f"{name}(")):
                undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []
