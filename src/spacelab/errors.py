"""Exception types shared across the package.

Every error raised on behalf of bad user input derives from
:class:`SpacelabError` so the command line layer can map it to a stable
exit code: validation problems exit 2, exhausted search budgets exit 3.
Internal logic errors stay plain Python exceptions on purpose; they
indicate a bug, not bad input.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class SpacelabError(Exception):
    """Base class for all user-facing errors."""


class ValidationError(SpacelabError):
    """A parameter or precondition check failed."""


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
