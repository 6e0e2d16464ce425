"""Exception types shared across the package.

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
"""

from __future__ import annotations

from typing import Optional

DEFAULT_BUDGET = 10_000_000


class SpacelabError(Exception):
    """Base class for all user-facing errors."""


class ValidationError(SpacelabError):
    """A parameter or precondition check failed."""


def check_int(value: object, message: str, lo: Optional[int] = None,
              hi: Optional[int] = None) -> None:
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
