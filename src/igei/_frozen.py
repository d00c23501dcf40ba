"""The base of igei's immutable value types."""

from __future__ import annotations

from operator import attrgetter, ge, gt, le, lt


class Frozen:
    """An immutable record compared, hashed and shown by its fields.

    A subclass's fields are its ``__init__`` parameters, in order; its
    ``__init__`` stores them with :meth:`_store`. Equality and hashing
    read the field tuple of an instance of the same class, ``repr`` reads
    ``Name(field=value, ...)``, and ``class C(Frozen, order=True)`` also
    orders by that tuple. Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, order: bool = False) -> None:
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*fields)  # of one name, it gives the bare value
        cls._tuple = (lambda self: get(self)) if len(fields) > 1 else lambda self: (get(self),)
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_ordering, (lt, le, gt, ge))

    def _store(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        """The fields by name, in order (not copied)."""
        return dict(zip(self._fields, self._tuple()))

    def _replace(self, **changes) -> Frozen:
        """A new instance with ``changes``, checked by ``__init__`` as any new one is."""
        return self.__class__(**self._asdict() | changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._tuple() == other._tuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._tuple()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _ordering(compare):
    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._tuple(), other._tuple())
        return NotImplemented
    return method
