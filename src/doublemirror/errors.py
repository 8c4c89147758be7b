"""Exception hierarchy shared by all modules.

``InputError`` subclasses signal bad user data (CLI exit code 1) and
``InternalError`` marks violated internal invariants (exit code 3); the CLI
escalates warnings under --strict (exit code 2) without an exception.
"""


class DoubleMirrorError(Exception):
    """Base class for all package errors."""


class InputError(DoubleMirrorError):
    """Invalid user-supplied data."""


class RankDeficiencyError(InputError):
    """Rows expected to be linearly independent are not."""


class LowerDimensionalError(InputError):
    """Full-dimensional input required; carries the affine hull dimension."""

    def __init__(self, message, affine_dim):
        super().__init__(message)
        self.affine_dim = affine_dim


class LatticeMismatchError(InputError):
    """Operands live in different lattices."""


class NefPartitionError(InputError):
    """Base class for nef-partition validation failures."""


class OriginMissingError(NefPartitionError):
    """Some part does not contain the origin."""


class SumNotFullDimensionalError(NefPartitionError, LowerDimensionalError):
    """The Minkowski sum of the parts is not full-dimensional."""


class SumNotReflexiveError(NefPartitionError):
    """The Minkowski sum of the parts is not a reflexive polytope; carries the
    sum's facets and the rays of the dual Cayley cone they were read from."""

    def __init__(self, message, facets, rays):
        super().__init__(message)
        self.facets = facets
        self.rays = rays


class DegeneratePartError(NefPartitionError):
    """A part equals {0}, which would force a zero degree summand."""


class DecompositionError(InputError):
    """A degree-element decomposition violates one of its constraints."""


class NotGorensteinError(InputError):
    """Generator data does not define a (reflexive) Gorenstein cone."""


class DegenerateCoefficientsError(InputError):
    """A determinant vanished identically for the chosen coefficients."""


class InternalError(DoubleMirrorError):
    """An internal invariant failed; indicates a bug upstream."""
