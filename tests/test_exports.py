"""The package's export list and its dataclasses' docstrings."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import moransar


def test_every_exported_name_resolves():
    missing = [name for name in moransar.__all__ if not hasattr(moransar, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(moransar.__all__) == len(set(moransar.__all__))


def test_each_export_is_its_defining_modules_attribute(monkeypatch):
    # a class or function names the module that defines it; a lookup reads
    # that module's attribute as it is now, so rebinding it shows through
    for name in (n for n in moransar.__all__ if n != "__version__"):
        module = importlib.import_module(f"moransar.{moransar._MODULE_OF[name]}")
        value = getattr(moransar, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    stand_in = object()
    monkeypatch.setattr("moransar.eigen.symmetric_eigenvalues", stand_in)
    assert moransar.symmetric_eigenvalues is stand_in


def test_dir_lists_every_export():
    assert set(moransar.__all__) <= set(dir(moransar))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(moransar, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from moransar import *", namespace)
    assert set(moransar.__all__) <= set(namespace)


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
