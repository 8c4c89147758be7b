"""Lattice presentations and exact dual pairings.

A ``LatticeEmbedding`` presents a finite-rank lattice inside an ambient Z^n:

* ``full``      -- the whole Z^n;
* ``kernel``    -- the saturated integer kernel of some equations;
* ``quotient``  -- Z^n modulo the saturation of some relation rows.

Every presentation is normalized on construction to an internal basis, and
all downstream modules work purely in basis coordinates.  The coordinates of
a kernel lattice and of the quotient by the same rows are arranged to be
mutually dual with identity Gram matrix: a quotient class ``[a]`` gets the
coordinates ``B . a`` where ``B`` is the kernel basis, so that the pairing of
basis coordinates is the standard dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InputError, InternalError
from .intmat import IntMatrix, RowSolver, hnf, kernel_basis, right_inverse, saturate


@dataclass(frozen=True)
class LatticeEmbedding:
    """A lattice presented inside an ambient Z^n, normalized to a basis."""

    ambient_rank: int
    kind: str  # "full" | "kernel" | "quotient"
    defining: IntMatrix | None
    basis: IntMatrix
    rank: int
    _section: IntMatrix | None = field(default=None, compare=False)
    _solver: RowSolver | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def full(n: int) -> "LatticeEmbedding":
        ident = IntMatrix.identity(n)
        return LatticeEmbedding(n, "full", None, ident, n, ident)

    @staticmethod
    def from_kernel(equations: IntMatrix) -> "LatticeEmbedding":
        basis = kernel_basis(equations)
        section = right_inverse(basis)
        if section is None:
            raise InternalError("kernel basis is not saturated")
        return LatticeEmbedding(equations.cols, "kernel", equations, basis, basis.rows, section)

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

    def from_coords(self, coords):
        """An ambient representative with the given basis coordinates."""
        if len(coords) != self.rank:
            raise InputError("coordinate vector has wrong length")
        if self.kind == "full":
            return tuple(int(x) for x in coords)
        if self.kind == "kernel":
            return tuple(
                sum(c * row[j] for c, row in zip(coords, self.basis.data))
                for j in range(self.ambient_rank)
            )
        # quotient: section satisfies B . section_col(i) = e_i
        sec = self._section
        return tuple(
            sum(sec.data[j][i] * coords[i] for i in range(self.rank))
            for j in range(self.ambient_rank)
        )


@dataclass(frozen=True)
class DualPairing:
    """Two lattice embeddings that are exact duals of each other."""

    primal: LatticeEmbedding
    dual: LatticeEmbedding
    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_unimodular():
            raise InternalError("dual pairing Gram matrix is not unimodular")

    @staticmethod
    def standard(primal: LatticeEmbedding) -> "DualPairing":
        return DualPairing(primal, primal.dual(), IntMatrix.identity(primal.rank))


def sublattice_dual_pair(basis_rows: IntMatrix, ambient_rank: int) -> DualPairing:
    """Pairing of a saturated sublattice of Z^n against its quotient dual.

    The sublattice gets ``basis_rows`` as basis; the quotient Z^n/span^perp is
    coordinatized so that the Gram matrix is the identity.  Raises if the
    rows are not saturated.
    """
    sat, index = saturate(basis_rows)
    if index != 1:
        raise InputError(f"sublattice basis is not saturated (index {index})")
    canon, _ = hnf(basis_rows, transform=False)
    if canon != sat:
        raise InputError("rows do not form a basis of their saturation")
    primal = LatticeEmbedding(ambient_rank, "kernel", None, basis_rows, basis_rows.rows, None)
    sec = right_inverse(basis_rows)
    if sec is None:
        raise InternalError("sublattice basis has no integral section")
    dual = LatticeEmbedding(ambient_rank, "quotient", None, basis_rows, basis_rows.rows, sec)
    gram = basis_rows.mul(sec)
    return DualPairing(primal, dual, gram)
