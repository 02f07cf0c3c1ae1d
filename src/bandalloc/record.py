"""The frozen record that each data type of the package is, written once."""

from operator import itemgetter


class Record:
    """A frozen record whose ``==``, ``hash`` and ``repr`` read its fields only,
    never a value that a ``cached_property`` keeps beside them in ``__dict__``."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(cls.__annotations__)  # the fields: the class's own annotated names
        cls._name_set = frozenset(cls._names)
        cls._defaults = {name: vars(cls)[name] for name in cls._names if name in vars(cls)}
        cls._values = itemgetter(*cls._names)  # of ``__dict__``: a tuple, or the one value

    def __init__(self, *args, **kwargs) -> None:
        if args:  # the leading fields, each given once
            names = self._names
            repeated = kwargs and not kwargs.keys().isdisjoint(names[: len(args)])
            if repeated or len(args) > len(names):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}")
            for k, value in enumerate(args):  # faster here than ``zip``
                kwargs[names[k]] = value
        if kwargs.keys() != self._name_set:  # fields left to their defaults, or unknown names
            kwargs = {**self._defaults, **kwargs}
            if kwargs.keys() != self._name_set:
                raise TypeError(f"{type(self).__name__}() takes {', '.join(self._names)}")
        self.__dict__.update(kwargs)  # every field; ``__post_init__`` checks them
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a record without rules accepts any values."""

    def replace(self, **changes) -> "Record":
        """A new record of these fields with ``changes`` in place, checked again."""
        return type(self)(**{name: self.__dict__[name] for name in self._names} | changes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__  # every field, and any cached value
        if (same := mine == theirs) or len(mine) == len(theirs) == len(self._names):
            return same  # unequal without a cached value: a field differs
        return self._values(mine) == self._values(theirs)

    def __hash__(self) -> int:
        return hash(self._values(self.__dict__))

    def __repr__(self) -> str:
        pairs = (f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({', '.join(pairs)})"
