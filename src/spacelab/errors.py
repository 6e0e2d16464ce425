"""Exception types, argument checks and the record base shared across
the package.

Every error raised on behalf of bad user input derives from
:class:`SpacelabError` so the command line layer can map it to a stable
exit code: validation problems exit 2, exhausted search budgets exit 3.
Internal logic errors stay plain Python exceptions on purpose; they
indicate a bug, not bad input.

The integer arguments of the library (horizons, word and window
lengths, search depths, bounds and budgets, caps, periods, grid entries)
are checked by :func:`check_int`: a bool, a float or a string raises
:class:`ValidationError`, as an integer out of range does, and never a
``TypeError``, a budget run or a wrong answer.

The package's value types derive from :class:`Record`, a frozen record
that reads its fields from class annotations and generates no code.
"""

from __future__ import annotations

from operator import attrgetter

DEFAULT_BUDGET = 10_000_000


class SpacelabError(Exception):
    """Base class for all user-facing errors."""


class ValidationError(SpacelabError):
    """A parameter or precondition check failed."""


def check_int(value: object, message: str, lo: int | None = None,
              hi: int | None = None) -> None:
    """Raise ValidationError(message) unless `value` is an int, not a
    bool, inside [lo..hi]; an end left as None is open."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or lo is not None and value < lo
            or hi is not None and value > hi):
        raise ValidationError(message)


class SpecError(ValidationError):
    """A set description failed validation.

    Parameters
    ----------
    message : str
        Human readable description of the defect.
    path : str
        Slash-separated path from the root of the description to the
        offending node, e.g. ``"of/1/k"``.  Empty string means the root.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        base = super().__str__()
        if self.path:
            return f"{base} (at {self.path})"
        return base


class BudgetError(SpacelabError):
    """A search or count gave up because its node budget ran out.

    Carries the number of nodes explored before giving up so reports can
    distinguish "no witness within bound" from "ran out of budget".
    """

    def __init__(self, message: str, nodes: int) -> None:
        super().__init__(message)
        self.nodes = nodes


class Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, a class value
    being the field's default; the fields of its bases come first, in
    MRO order.  Construction binds the fields positionally or by keyword,
    raising ``TypeError`` on a missing, unknown or repeated argument, then
    runs ``__post_init__``.  Equality holds only between two records of
    the same class with equal field tuples, ``hash`` is that of the field
    tuple, and assignment or deletion raises ``AttributeError``.  Field
    values live in the instance ``__dict__``, in field order, where
    ``functools.cached_property`` caches too.

    This is what ``@dataclass(frozen=True)`` gave the package, without
    the two costs every command line call paid for it at start-up:
    importing ``dataclasses``, which loads ``inspect`` and ``ast``, and
    compiling generated methods for each class.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = {}
        for klass in reversed(cls.__mro__):
            fields.update(dict.fromkeys(getattr(klass, "__annotations__", ())))
        cls._fields = fields = tuple(fields)
        cls._defaults = {name: getattr(cls, name) for name in fields
                         if hasattr(cls, name)}
        # the field tuple, read by one attrgetter (which returns a bare
        # value for a single name)
        if len(fields) == 1:
            get = attrgetter(*fields)
            cls._astuple = staticmethod(lambda record: (get(record),))
        else:
            cls._astuple = staticmethod(
                attrgetter(*fields) if fields else lambda record: ())

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # set one at a time, the values stay inline in the instance, where
        # reads are fastest; updating self.__dict__ would materialize it
        # and slow every later attribute read
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        fields = cls._fields
        named = dict(zip(fields, args))
        values = {**cls._defaults, **named, **kwargs}
        if (len(args) <= len(fields) and named.keys().isdisjoint(kwargs)
                and values.keys() == set(fields)):
            return [values[key] for key in fields]
        raise TypeError(f"{cls.__name__}() takes the fields {list(fields)}, "
                        f"got {len(args)} positional arguments and the "
                        f"keywords {list(kwargs)}")

    def __post_init__(self) -> None:
        """Check or normalise the fields; nothing by default."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{key}={value!r}"
            for key, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the named fields changed, built (and so
    checked) by its class like any other."""
    return type(record)(**dict(zip(record._fields, record._astuple(record)),
                               **changes))
