"""Immutable records: fields in __slots__, methods from Record, no code
generated at import.  Built by position or keyword (defaults in
_defaults); == only within one class, field by field; hashed as the
field tuple; AttributeError on assignment.  Records built in hot loops
write their own __init__, setting each field with setfield."""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args))
        if len(args) > len(names) or (kwargs.keys() - names) | (kwargs.keys() & given):
            raise TypeError(f"{type(self).__name__}(): extra or repeated fields")
        values = {**self._defaults, **given, **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__}(): missing field {name!r}")
            setfield(self, name, values[name])

    def astuple(self) -> tuple:
        """The field values in __slots__ order, not converted further."""
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.astuple() == other.astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self.astuple()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
