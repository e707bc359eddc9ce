"""Frozen records: the part of a frozen dataclass that this package uses.

The standard dataclass module imports ``inspect`` (and with it ``ast``,
``dis`` and ``tokenize``) and generates several functions per class, which
every command paid at start-up.  ``@record`` reads a class's fields from its
own annotations, in declaration order; a class attribute of the same name
is the field's default.  It adds

- an ``__init__`` that takes the fields by position or keyword, with the
  same ``TypeError`` text as a dataclass's, and then calls the class's
  ``__post_init__`` if it has one;
- field-wise ``__eq__``, ``__hash__`` and ``__repr__``;
- a ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

A ``__post_init__`` that normalises a field sets it with
``object.__setattr__``; ``functools.cached_property`` writes to the instance
``__dict__`` directly, so it works as on a frozen dataclass.
"""


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    source = f"def __init__(self, {', '.join(names)}):\n"
    source += f"    self.__dict__.update({', '.join(f'{name}={name}' for name in names)})\n"
    if hasattr(cls, "__post_init__"):
        source += "    self.__post_init__()\n"
    namespace = {}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = names
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return cls


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__record_fields__)


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    shown = ", ".join(f"{name}={value!r}" for name, value in asdict(self).items())
    return f"{self.__class__.__qualname__}({shown})"


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class, in declaration order."""
    return obj.__record_fields__


def asdict(obj) -> dict:
    """Field name -> value, one level deep: a field holding a record keeps it."""
    return {name: getattr(obj, name) for name in fields(obj)}


def trusted(cls, *values):
    """A ``cls`` record of ``values``, one per field in order, made without
    ``__init__`` or ``__post_init__``: for a builder that proves its output."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__record_fields__, values))
    return obj

