"""Lattice presentations and their exact dual coordinates.

A ``LatticeEmbedding`` presents a finite-rank lattice inside an ambient Z^n:

* ``full``      -- the whole Z^n;
* ``kernel``    -- the saturated integer kernel of some equations;
* ``quotient``  -- Z^n modulo the saturation of some relation rows.

A kernel or quotient presentation is normalized on construction to an
internal basis; a full lattice keeps the ambient coordinates and holds no
matrix.  All downstream modules work purely in basis coordinates.  The
coordinates of a kernel lattice and of the quotient by the same rows are
arranged to be mutually dual with identity Gram matrix: a quotient class
``[a]`` gets the coordinates ``B . a`` where ``B`` is the kernel basis, so
that the pairing of basis coordinates is the standard dot product.
"""

from __future__ import annotations

from .errors import InputError
from .intmat import IntMatrix, RowSolver, kernel_basis
from .records import field, record, replace


@record
class LatticeEmbedding:
    """A lattice presented inside an ambient Z^n, normalized to a basis."""

    ambient_rank: int
    kind: str  # "full" | "kernel" | "quotient"
    basis: IntMatrix | None  # None for "full": its coordinates are the ambient ones
    rank: int
    _solver: RowSolver | None = field(default=None, compare=False)

    @staticmethod
    def full(n: int) -> "LatticeEmbedding":
        return LatticeEmbedding(n, "full", None, n)

    @staticmethod
    def from_kernel(equations: IntMatrix) -> "LatticeEmbedding":
        basis = kernel_basis(equations)
        return LatticeEmbedding(equations.cols, "kernel", basis, basis.rows)

    @staticmethod
    def from_quotient(relations: IntMatrix) -> "LatticeEmbedding":
        return LatticeEmbedding.from_kernel(relations).dual()

    def dual(self) -> "LatticeEmbedding":
        """The dual lattice, with coordinates dual to this one's."""
        if self.kind == "full":
            return self
        return replace(self, kind="quotient" if self.kind == "kernel" else "kernel")

    def to_coords(self, ambient):
        """Basis coordinates of an ambient vector (class representative)."""
        if len(ambient) != self.ambient_rank:
            raise InputError("ambient vector has wrong length")
        if self.kind == "full":
            return tuple(int(x) for x in ambient)
        if self.kind == "quotient":
            # [a] -> B . a, which kills exactly the saturated relation span
            return tuple(sum(b * x for b, x in zip(row, ambient)) for row in self.basis.data)
        if self._solver is None:
            object.__setattr__(self, "_solver", RowSolver(self.basis))
        coords = self._solver.solve(ambient)
        if coords is None:
            raise InputError("vector does not lie in the kernel lattice")
        return coords
