"""Nef-partitions, their duals, and the pairing minima they satisfy.

A nef-partition is a list of lattice polytopes, each containing the origin,
whose Minkowski sum is reflexive; equivalently, whose Cayley cone
K = Cone(Cayley(P_1, ..., P_s)) is reflexive Gorenstein (Batyrev-Nill).
Each extreme ray ``(a ; w)`` of K-dual with w != 0 is a facet
``<x, w> >= -(a_1 + ... + a_s)`` of the sum, so the sum and its facets come
from one double description, which the reflexivity test and the dual read.
The dual partition consists of the polytopes
``nabla_j = {y : <x, y> >= -delta_ij for all x in part_i}``, whose Cayley
cone is K-dual (Batyrev-Nill), so the same rays give them, grouped by slot.
Both defining duality relations are verified exactly before a dual is
returned.

The relation ``Conv(nabla_1 u ... u nabla_s) = dual(sum)`` is checked
without a hull: the pairing minima ``>= -delta_ij`` add up over the parts to
``<x, y> >= -1`` on the sum, so every nabla_j lies in dual(sum), and each
vertex of dual(sum) being a vertex of some nabla_j gives the reverse
inclusion.
"""

from __future__ import annotations

import itertools

from .errors import (
    DegeneratePartError,
    InternalError,
    LatticeMismatchError,
    LowerDimensionalError,
    OriginMissingError,
    SumNotFullDimensionalError,
    SumNotReflexiveError,
)
from .intmat import independent_rows
from .polytope import (
    Polytope,
    cayley_dual_rays,
    dual_polytope,
    is_reflexive,
    sum_from_cayley_rays,
)
from .records import field, record


@record
class NefPartition:
    parts: tuple
    sum: Polytope
    cayley_rays: tuple = field(compare=False)  # ``cayley_dual_rays(parts)``

    @property
    def length(self):
        return len(self.parts)

    @property
    def lattice(self):
        return self.parts[0].lattice


@record
class DualNefPartition:
    parts: tuple

    @property
    def lattice(self):
        return self.parts[0].lattice


def validate_nef_partition(parts, rays=None) -> NefPartition:
    """Check the nef-partition invariants, raising a distinct error per kind.

    ``rays``, when given, are ``cayley_dual_rays(parts)`` from a caller that
    has them already, e.g. mapped from another frame of the same cone;
    otherwise one double description computes them here.
    """
    if not parts:
        raise OriginMissingError("empty partition")
    lattice = parts[0].lattice
    for p in parts:
        if p.lattice != lattice:
            raise LatticeMismatchError("parts live in different lattices")
    origin = (0,) * lattice.rank
    for idx, p in enumerate(parts):
        if not p.is_lattice_polytope():
            raise OriginMissingError(f"part {idx + 1} is not a lattice polytope")
        if not p.contains(origin):
            raise OriginMissingError(f"part {idx + 1} does not contain the origin")
        if p.vertex_set() == {origin}:
            raise DegeneratePartError(
                f"part {idx + 1} is the single point 0, giving a zero degree summand"
            )
    if rays is None:
        try:
            rays = cayley_dual_rays(parts)
        except LowerDimensionalError as exc:
            raise SumNotFullDimensionalError(
                f"Minkowski sum has dimension {exc.affine_dim} < {lattice.rank}"
            ) from exc
    total = sum_from_cayley_rays(parts, rays)
    cert = is_reflexive(total)
    if not cert.is_reflexive:
        raise SumNotReflexiveError("Minkowski sum of the parts is not reflexive", total, rays)
    return NefPartition(tuple(parts), total, tuple(rays))


def dual_nef_partition(np: NefPartition) -> DualNefPartition:
    """The dual nef-partition, verified against both duality relations.

    Part j holds the w of the rays ``(delta_j ; w)``: the sum being
    reflexive, a ray has ``a >= 0`` integral with ``a_1 + ... + a_s = 1``.
    """
    s = np.length
    groups = [[] for _ in range(s)]
    for ray in np.cayley_rays:
        if sorted(ray[:s]) != [0] * (s - 1) + [1]:
            raise InternalError("dual Cayley ray off the unit slots")
        groups[ray.index(1)].append(ray[s:])
    if not all(groups):
        raise InternalError("dual part without a vertex")
    duals = [Polytope(np.lattice.dual(), tuple(group)) for group in groups]

    for j, nabla in enumerate(duals):
        if not nabla.is_lattice_polytope():
            raise InternalError(f"dual part {j + 1} has a non-integral vertex")

    for i, part in enumerate(np.parts):
        for j, nabla in enumerate(duals):
            target = -1 if i == j else 0
            for w in nabla.vertices:
                m = min(sum(x * y for x, y in zip(v, w)) for v in part.vertices)
                if m < target:
                    raise InternalError("pairing minimum fell below -delta_ij")
                if any(x != 0 for x in w) and m != target:
                    raise InternalError("pairing minimum not attained at a dual vertex")

    # the minima above put every nabla_j inside dual(sum), so this inclusion
    # makes Conv(union of the nabla_j) = dual(sum)
    if not dual_polytope(np.sum).vertex_set() <= {w for nabla in duals for w in nabla.vertices}:
        raise InternalError("Conv of dual parts differs from the dual of the sum")
    return DualNefPartition(tuple(duals))


def is_two_independent(np: NefPartition):
    """Check 2-independence: no subset of n parts spanning dimension <= n.

    Returns ``(flag, witness_subset_or_None)``.
    """
    s = np.length
    for size in range(1, s + 1):
        for subset in itertools.combinations(range(s), size):
            rows = tuple(tuple(int(x) for x in v) for i in subset for v in np.parts[i].vertices)
            dim = len(independent_rows(rows, len(rows[0]))) if rows else 0
            if dim <= size:
                return False, subset
    return True, None
