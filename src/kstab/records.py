"""Frozen result records, built without code generation.

A subclass of :class:`Record` lists its fields as annotations, in order; a
class-level value after an annotation is that field's default.  A record
is constructed positionally or by keyword with the same signature a frozen
dataclass would have, compares equal only to a record of the same class
with equal fields, hashes as the tuple of its fields, prints as
``Name(field=value, ...)`` and rejects attribute assignment and deletion
with an ``AttributeError``.

Nothing here ``exec``s source or imports ``dataclasses`` (which imports
``inspect``), so a record class costs one ``__init_subclass__`` call, and
every ``kstab`` process is spared both imports.  Construction writes the
instance ``__dict__`` directly, which is faster than a dataclass for the
positional calls of the hot loops; the price is that an attribute read is
a dict lookup (about 35 ns against 21 ns on a dataclass's inline
attributes), which the chamber workloads do not show end to end.
"""

from __future__ import annotations


class Record:
    """Base class of the engine's frozen result records."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        required = len(fields) - len(defaults)
        if any(f in defaults for f in fields[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = cls.__match_args__ = fields
        cls.__init__ = _make_init(cls.__qualname__, fields, defaults)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        body = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"


def _make_init(qualname: str, fields: tuple[str, ...], defaults: dict):
    n = len(fields)
    store = _store(fields)
    where = f"{qualname}.__init__()"

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(where, fields, defaults, args, kwargs)
        store(self.__dict__, args)

    return __init__


def _store(fields: tuple[str, ...]):
    """store(d, values) sets d[field] = value for each field, in order.

    For a few fields, unpacking into subscripts takes about a third of the
    time of ``d.update(zip(fields, values))`` and beats a frozen
    dataclass's ``object.__setattr__`` call per field, so the arities of
    the records built in the chamber loops (``LPResult``, ``ZariskiResult``,
    ``_SChamber``, ``FlagCell``, and ``_Certs``, one per support) are
    spelled out.
    """
    if len(fields) == 3:
        f0, f1, f2 = fields

        def store(d, v):
            d[f0], d[f1], d[f2] = v
    elif len(fields) == 4:
        f0, f1, f2, f3 = fields

        def store(d, v):
            d[f0], d[f1], d[f2], d[f3] = v
    elif len(fields) == 5:
        f0, f1, f2, f3, f4 = fields

        def store(d, v):
            d[f0], d[f1], d[f2], d[f3], d[f4] = v
    else:
        def store(d, v):
            d.update(zip(fields, v))
    return store


def _bind(where: str, fields: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """Field values from a call's arguments, with Python's own TypeErrors."""
    if len(args) > len(fields):
        raise TypeError(f"{where} takes {len(fields) + 1} positional arguments but {len(args) + 1} were given")
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{where} got multiple values for argument {key!r}")
        values[key] = value
    missing = [f for f in fields if f not in values and f not in defaults]
    if missing:
        names = ", ".join(map(repr, missing))
        raise TypeError(f"{where} missing {len(missing)} required argument{'s' * (len(missing) > 1)}: {names}")
    return [values[f] if f in values else defaults[f] for f in fields]
