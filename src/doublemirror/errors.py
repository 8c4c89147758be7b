"""Exception hierarchy shared by all modules.

Every error is an ``InputError``, bad user data (CLI exit code 1), or an
``InternalError``, a violated internal invariant (exit code 3); its message
tells one input error from another.  The CLI escalates warnings under
--strict (exit code 2) without an exception.
"""


class DoubleMirrorError(Exception):
    """Base class for all package errors."""


class InputError(DoubleMirrorError):
    """Invalid user-supplied data."""


class SumNotReflexiveError(InputError):
    """The Minkowski sum of the parts is not a reflexive polytope; carries the
    sum's facets, from which the parser reads a translation that may fix it."""

    def __init__(self, message, facets):
        super().__init__(message)
        self.facets = facets


class InternalError(DoubleMirrorError):
    """An internal invariant failed; indicates a bug upstream."""
