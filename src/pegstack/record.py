"""Frozen slotted record classes, built without generating code.

``record`` turns a class whose body lists annotated fields into an
immutable record: one slot per field, construction by position or keyword
with the declared defaults, an optional ``__post_init__`` check, equality
and hashing over the field tuple (only between instances of one class) and
a ``Name(field=value, ...)`` repr. Methods the class body defines itself
are kept.

It stands in for ``dataclasses.dataclass(frozen=True, slots=True)``, which
writes each class's methods as source text and executes it while the
module imports. Records share the few functions below instead, so a module
of records imports at about the cost of creating its classes.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """A field of a record, or a public field of a ``values.Value``, was
    assigned or deleted."""


def record(cls: type) -> type:
    """Rebuild cls as a frozen record with a slot per annotated field.

    A class attribute named like a field is that field's default. The
    shared ``__init__`` takes any arguments and so costs more per call; a
    class built often defines its own, which sets the slots through the
    slot descriptors, as the frozen ``__setattr__`` refuses a plain store.

    That ``__setattr__`` also keeps CPython's specializing interpreter
    (PEP 659) from turning the class's attribute stores into direct slot
    writes, so every store is a descriptor call. A class built by the
    thousand in one parse is therefore no record: ``values.py`` freezes
    ``Value`` and ``Node`` with read-only properties over private slots.
    """
    ns = dict(cls.__dict__)
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {name: ns.pop(name) for name in fields if name in ns}
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__qualname__"] = cls.__qualname__
    ns["__slots__"] = fields
    ns["__match_args__"] = fields
    if len(fields) == 1:
        get = attrgetter(fields[0])
        ns["_values"] = staticmethod(lambda obj: (get(obj),))
    else:
        ns["_values"] = staticmethod(attrgetter(*fields) if fields else lambda obj: ())
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    if "__init__" not in ns:
        new.__init__ = _make_init(new, fields, defaults)
    for name, method in _SHARED.items():
        if name not in ns:
            setattr(new, name, method)
    return new


def _make_init(cls: type, fields: tuple[str, ...], defaults: dict):
    setters = tuple(getattr(cls, name).__set__ for name in fields)
    count = len(fields)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__name__, fields, defaults, args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(name: str, fields: tuple[str, ...], defaults: dict, args: tuple,
          kwargs: dict) -> list:
    """Field values in field order from positional and keyword arguments."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument: {field!r}")
    for key in kwargs:
        if key in fields:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
    return values


class _Text(str):
    """Literal text of a repr, told apart from a field's str value."""

    __slots__ = ()


def _eq(self, other):
    """Field-wise equality within one class. Records, tuples and lists in
    the fields are compared from an explicit stack, so a deep nest takes
    no recursion."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    todo = [(self._values(self), other._values(other))]  # sequences of one length
    while todo:
        for a, b in zip(*todo.pop()):
            if a is b:
                continue
            cls = a.__class__
            if b.__class__ is not cls:
                if not a == b:
                    return False
            elif cls.__eq__ is _eq:
                todo.append((a._values(a), b._values(b)))
            elif cls is tuple or cls is list:
                if len(a) != len(b):
                    return False
                todo.append((a, b))
            elif not a == b:
                return False
    return True


def _hash(self):
    """The hash of the field values, with every record and tuple among them
    opened in place from an explicit stack, so a deep nest takes no
    recursion; equal records give equal sequences of values."""
    flat = []
    todo = [self._values(self)]
    while todo:
        for item in todo.pop():
            if item.__class__.__hash__ is _hash:
                item = item._values(item)
            elif not isinstance(item, tuple):
                flat.append(item)
                continue
            flat.append(len(item))
            todo.append(item)
    return hash(tuple(flat))


def _repr(self):
    """``Name(field=value, ...)``. Records, tuples and lists in the fields
    are written from an explicit stack, so a deep nest takes no recursion."""
    out = []
    todo = [self]  # values to write and literal text, the next one last
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is _Text:
            out.append(item)
            continue
        if cls.__repr__ is _repr:
            parts = [_Text(cls.__qualname__ + "(")]
            for i, (name, value) in enumerate(zip(item.__slots__, item._values(item))):
                parts += [_Text(f", {name}=" if i else f"{name}="), value]
            parts.append(_Text(")"))
        elif cls is tuple or cls is list:
            parts = [_Text("(" if cls is tuple else "[")]
            for i, value in enumerate(item):
                parts += [_Text(", "), value] if i else [value]
            parts.append(_Text(("," if len(item) == 1 else "") + ")" if cls is tuple else "]"))
        else:
            out.append(repr(item))
            continue
        todo.extend(reversed(parts))
    return "".join(out)


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    # copy and pickle rebuild through the constructor, as slots refuse setattr
    return self.__class__, self._values(self)


_SHARED = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr, "__setattr__": _setattr,
           "__delattr__": _delattr, "__reduce__": _reduce}
