"""A pytest plugin that records which public members of the package run.

    MEMBER_CALLS=calls.json python -m pytest -p member_calls tests/test_cli.py

Before any test is collected, every public method, property, cached
property, class method and static method of every public top-level class
of ``systolic`` is wrapped so that its first call records
``"module.Class.member"``.  The wrapper is keyed by the class that defines
the member, so a read of a same-named attribute of another class does not
count.  At the end of the session the sorted names go to the JSON file that
``MEMBER_CALLS`` names.  Only calls made in this process count, not those of
CLI subprocesses the tests start.
"""
import functools
import importlib
import json
import os
import pkgutil
from functools import cached_property

import systolic

CALLED: set[str] = set()


def public_members():
    """(module name, class, member name) of each public member, defined in
    the class body, of each public class defined in its module."""
    for info in pkgutil.iter_modules(systolic.__path__):
        module = importlib.import_module(f"systolic.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__ or cls.__name__.startswith("_"):
                continue
            for name, raw in vars(cls).items():
                if not name.startswith("_") and (
                    callable(raw) or isinstance(raw, (property, cached_property, classmethod, staticmethod))
                ):
                    yield info.name, cls, name


def _recording(function, key):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        CALLED.add(key)
        return function(*args, **kwargs)

    return wrapper


def _wrap(cls, name, key):
    raw = vars(cls)[name]
    if isinstance(raw, property):
        new = property(_recording(raw.fget, key), raw.fset, raw.fdel, raw.__doc__)
    elif isinstance(raw, cached_property):
        new = cached_property(_recording(raw.func, key))
        new.__set_name__(cls, name)
    elif isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(_recording(raw.__func__, key))
    else:
        new = _recording(raw, key)
    type.__setattr__(cls, name, new)


def pytest_configure(config):
    for module, cls, name in list(public_members()):
        _wrap(cls, name, f"{module}.{cls.__qualname__}.{name}")


def pytest_unconfigure(config):
    with open(os.environ["MEMBER_CALLS"], "w") as handle:
        json.dump(sorted(CALLED), handle)
