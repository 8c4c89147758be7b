"""Frozen value records: the part of ``@dataclass(frozen=True)`` this package uses.

The methods of a record are closures, so declaring one compiles no code, where
``dataclasses`` imports ``inspect`` and runs ``exec`` for each method of each
record at start-up.  Caches are written with ``object.__setattr__``.
"""

_MISSING = object()


class field:
    """Called like ``dataclasses.field``.  A field with ``init=False`` needs a
    default; one with ``compare=False`` stays out of equality, hash and repr."""

    __slots__ = ("default", "factory", "init", "compare")

    def __init__(self, default=_MISSING, default_factory=None, init=True, compare=True):
        self.default, self.factory, self.init, self.compare = default, default_factory, init, compare


def record(cls):
    """Give ``cls`` ``__init__``, ``__eq__``, ``__hash__``
    and ``__repr__`` over the fields it annotates, and refuse assignment."""
    specs = {name: vars(cls).get(name, _MISSING) for name in cls.__annotations__}
    specs = {name: f if isinstance(f, field) else field(f) for name, f in specs.items()}
    names = tuple(name for name, f in specs.items() if f.init)
    fills = tuple((n, f) for n, f in specs.items() if f.default is not _MISSING or f.factory)
    compared = tuple(name for name, f in specs.items() if f.compare)

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        values.update(zip(names, args))
        if len(args) > len(names) or any(k in values or k not in names for k in kwargs):
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments")
        values.update(kwargs)
        for name, f in fills:
            if not f.init or name not in values:
                values[name] = f.default if f.factory is None else f.factory()
        if len(values) != len(specs):
            raise TypeError(f"{cls.__name__}() missing {set(names) - set(values)}")

    def key(self):
        return tuple([getattr(self, name) for name in compared])

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in compared)})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls

