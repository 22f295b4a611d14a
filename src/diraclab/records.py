"""Immutable value records built on collections.namedtuple.

`record` turns a class whose body declares annotated fields into a subclass
of a namedtuple of those fields, in declaration order.  The class body keeps
its docstring, methods, properties and cached_propertys.  A record keeps the
contract of a frozen dataclass that the relation memo, the golden files and
the tests rely on:

- Equality: a record equals only a record of the same class with equal
  fields.  Against any other object, a plain tuple of the same fields
  included, == is False and != is True.
- Hash: tuple.__hash__, which equals hash((f1, f2, ...)), the hash of the
  frozen dataclass; so memo keys and set and dict orders do not change.
- Immutability: assigning or deleting any attribute raises AttributeError.
  A cached_property writes its value to the instance __dict__ directly, so
  it still works; for that the class declares no __slots__.
- Validation: the class's __post_init__, looked up on the instance, runs on
  every construction, and replace builds its result through the class, so
  it runs there too.  namedtuple's own _replace and _make skip __new__ and
  with it __post_init__: use replace and the class instead.
- Default factories: a field declared `= field(default_factory=f)` gets a
  fresh f() on each construction that does not pass it.

A record is also a tuple: it has a length, iterates over its fields and
orders like a tuple.  Nothing in diraclab relies on that.

namedtuple builds each class with one small eval, where a frozen dataclass
generates and execs several methods and imports inspect; record definition
is part of every command's start-up.
"""

from collections import namedtuple


class field:
    """A field default made afresh for each instance: field(default_factory=list)."""

    def __init__(self, default_factory):
        self.default_factory = default_factory


class _Record(tuple):
    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """The class cls rebuilt as an immutable record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults = [ns.pop(name) for name in names if name in ns]
    if any(name in cls.__dict__ for name in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    base = namedtuple(cls.__name__, names, defaults=defaults, module=cls.__module__)
    fresh = any(isinstance(d, field) for d in defaults)
    post_init = "__post_init__" in ns
    if fresh or post_init:
        new = base.__new__

        def __new__(cls, *args, **kwargs):
            self = new(cls, *args, **kwargs)
            if fresh:
                self = tuple.__new__(cls, [v.default_factory() if type(v) is field else v
                                           for v in self])
            if post_init:
                self.__post_init__()
            return self

        ns["__new__"] = __new__
    return type(cls.__name__, (base, _Record), ns)


def replace(obj, /, **changes):
    """A copy of the record obj with the named fields changed, built through
    its class so that its __post_init__ runs."""
    return type(obj)(**dict(zip(obj._fields, obj), **changes))
