"""Immutable records, the value classes of the calculus, and the rows of
the law reports.

A record class names its fields in `__slots__`; a slot whose name starts
with `_` holds a value derived from the fields and is no field.  Records
are equal when they are of one class and their field tuples are equal,
hash as that tuple, print as `Class(field=value, ...)`, refuse
assignment, and pickle and copy by calling the class on that tuple.
The positional `__init__` sets each field as given; a class that
normalises or checks its fields writes its own, setting each field once
with `object.__setattr__`.  Unlike a dataclass, a record class compiles
no methods of its own, so declaring one costs no start-up time.

A `Report` is a list of (law, passed, witness-or-empty) rows, as the
`calgebra`, `realizability` and `mll` checkers return them; it lives
here so that a module reading reports compiles none of the checkers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

Report = list[tuple[str, bool, str]]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            values = lambda r, get=attrgetter(*fields): (get(r),)
        else:
            values = lambda r: ()

        # closures over `values`: methods that looked it up on the class
        # would hash and compare about a third slower
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(values(self))
        cls.__reduce__ = lambda self: (cls, values(self))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{self._fields}, got {len(values)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def first_witness(name: str, witnesses: Iterable[str]
                  ) -> tuple[str, bool, str]:
    """The report row of law `name`: it passes when `witnesses` is empty
    and otherwise fails with the first witness, the only one computed."""
    w = next(iter(witnesses), None)
    return (name, w is None, w or "")


def passed(report: Report) -> bool:
    return all(ok for _, ok, _ in report)
