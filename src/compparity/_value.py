"""Immutable value classes, defined without generating code at import.

A subclass names its fields in ``__slots__``, a tuple, and sets them in
its own ``__init__`` with ``object.__setattr__``, checking and
normalising as it goes.  ``Value`` then gives it what a frozen dataclass
would: equality with instances of the same class only, a hash and a repr
``Name(field=value, ...)`` from the fields in slot order, fields that
cannot be assigned or deleted, and pickling through ``__init__``.
``OrderedValue`` adds the four orderings, field tuple against field tuple.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        if len(names) > 1:
            fields = attrgetter(*names)
        elif names:
            fields = lambda obj, get=attrgetter(*names): (get(obj),)
        else:
            fields = lambda obj: ()
        cls._fields = staticmethod(fields)  # the tuple of an instance's fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuilt through __init__: restoring the slots one by one would assign
        return type(self), self._fields(self)


class OrderedValue(Value):
    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) < self._fields(other)
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) <= self._fields(other)
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) > self._fields(other)
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) >= self._fields(other)
        return NotImplemented
