"""``Record``: the one base of the package's immutable value and result types.

It stands in for ``@dataclass(frozen=True)`` without importing
``dataclasses`` or compiling methods per class, which together made up
most of the cost of ``import fmtori``.  The contract:

* The fields are the names annotated in the class body, in order.  A class
  attribute of the same name is the field's default.
* ``__init__`` binds positional and keyword arguments as a dataclass
  ``__init__`` does; a missing, unknown or repeated field raises
  ``TypeError``.  It then calls ``self.__post_init__()`` exactly once (the
  base one does nothing).
* ``_make(*values)`` binds every field positionally, with no defaults and
  no ``__post_init__``, as ``Mat._make`` does: for results the package has
  just proved valid.
* Instances are immutable: ``__setattr__`` and ``__delattr__`` raise
  ``AttributeError``.  They keep a ``__dict__``, so ``cached_property``
  works, and ``__post_init__`` may store a derived attribute, which is not
  a field, with ``object.__setattr__``.
* ``__eq__`` compares the fields with those of an instance of the same
  class and returns ``NotImplemented`` for any other class; ``__hash__``
  hashes the field tuple.  A subclass may define its own pair.
* ``__repr__`` is ``Qualname(field=value, ...)``, over the fields only.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._fields, cls._defaults = fields, {f: own[f] for f in fields if f in own}
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # per attribute, not through self.__dict__: a materialized instance
        # dict makes every later attribute read slower
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    @classmethod
    def _make(cls, *values):
        """An instance on every field value, in order, not re-validated."""
        self = object.__new__(cls)
        for field, value in zip(cls._fields, values):
            _set(self, field, value)
        return self

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, of a call with keywords or defaults."""
        name, fields, defaults = cls.__qualname__, cls._fields, cls._defaults
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        try:
            rest = [kwargs.pop(f) if f in kwargs else defaults[f] for f in fields[len(args) :]]
        except KeyError as missing:
            raise TypeError(f"{name}() missing required argument {missing}") from None
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        return args + tuple(rest)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
