"""Exceptions shared by all modules, and the one resource limit.

The CLI maps these onto exit statuses: input problems exit 2,
resource bounds exit 3.
"""

from contextlib import contextmanager
from contextvars import ContextVar


class SymcubeError(Exception):
    """Base class for all library errors."""


class InputError(SymcubeError):
    """Malformed user input: bad syntax, bad indices, bad files."""


class MorphismSyntaxError(InputError):
    """Text that does not parse as a morphism or permutation."""


class IndexOutOfRange(InputError):
    """A generator index violates the bound for its kind."""


class CompositionMismatch(InputError):
    """compose(g, f) with f.dst != g.src."""


class BadDimension(InputError):
    """A dimension argument outside the operation's domain."""


class NotEpi(InputError):
    """An operation requiring an epimorphism received something else."""


class TruncationMismatch(InputError):
    """An operation needs presheaf levels beyond a truncated bound."""


class ResourceBound(SymcubeError):
    """An enumeration would exceed the configured size limit."""


_limit: ContextVar[int | None] = ContextVar("symcube_limit", default=None)


@contextmanager
def resource_limit(limit: int | None):
    """Bound every enumeration in the block by limit (None, as outside
    any block, is unbounded), restoring the outer bound on exit.  Work
    already cached on an object (an EZ table, an extension level) is not
    charged again; a hom set is charged at every enumeration and a
    memoised cube at every call."""
    token = _limit.set(limit)
    try:
        yield
    finally:
        _limit.reset(token)


def charge(count: int, what: str) -> None:
    """Raise ResourceBound when count, the size of what, exceeds the limit."""
    limit = _limit.get()
    if limit is not None and count > limit:
        raise ResourceBound(f"{what}, more than limit {limit}")
