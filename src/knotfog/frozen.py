"""One base for knotfog's immutable values.

A subclass lists its fields, in order, as `__slots__` and sets each in an
explicit `__init__` with `object.__setattr__`.  The base supplies what a
frozen dataclass would: equality by fields within one class only, a hash
over the fields, the `Name(field=value, ...)` repr, refusal to assign or
delete attributes, and copy and pickle by calling the class again.  It
is hand-written because every CLI process imports these classes, and
`dataclasses` would cost it the import of `inspect` plus generated code
compiled per class.

`integer` is the one check that a field is an `int` and not a `bool`,
shared by the syntax nodes, the integer matrices and `LaurentPoly.evaluate`.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")

    def __reduce__(self):
        return self.__class__, self._fields()


def integer(value, what: str) -> int:
    """value, if it is an int and not a bool, as the grammar's INT and every
    matrix entry must be; else a ValueError."""
    if value.__class__ is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value
