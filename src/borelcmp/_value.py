"""The base of the package's immutable value types.

A frozen dataclass compiles its generated methods with ``exec`` when its
class is created: 0.75-2 ms a class, on every start-up, on a shared 2-core
x86-64 host.  A subclass of ``Value`` declares its field names in
``_fields`` and writes its own ``__init__``; equality, hashing and the
repr follow from the fields as a frozen dataclass derives them, and no
code is generated.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Equal when of exactly the same class with equal fields; hashed as the
    tuple of the fields; ``Name(field=value, ...)`` as repr.  Assignment
    and deletion raise ``AttributeError``: ``__init__`` stores each field
    with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        get = attrgetter(*cls._fields)
        # the fields as a tuple; attrgetter of one name gives the bare value
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which checks again
        return self.__class__, self._values(self)
