"""The immutable value classes' one base.

A record's fields are its class's ``__slots__``, in order, set once by
``__init__``.  A subclass's ``__init__`` takes the fields by position or
keyword with their defaults, validates them, and passes them on in slot
order.  This base replaces ``dataclasses``, whose import loads
``inspect`` and ``ast`` and costs every short CLI run start-up time.
"""

from __future__ import annotations

import copyreg


class Record:
    """Immutable value: equal to a record of its own class with equal fields.

    Hashed as the tuple of its fields, as a frozen dataclass is, so the
    hash does not change between processes.  Setting or deleting an
    attribute raises AttributeError.  Pickling stores the class and the
    fields, and unpickling sets the fields without validating them again:
    they passed when the value was made, and a ``--jobs`` pool unpickles
    every graph it solves.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return copyreg.__newobj__, (type(self),), self._values()

    def __setstate__(self, values: tuple) -> None:
        Record.__init__(self, *values)
