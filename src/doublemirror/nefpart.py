"""Nef-partitions, their duals, and the pairing minima they satisfy.

A nef-partition is a list of lattice polytopes, each containing the origin,
whose Minkowski sum is reflexive; equivalently, whose Cayley cone
K = Cone(Cayley(P_1, ..., P_s)) is reflexive Gorenstein (Batyrev-Nill).
A part, like a dual part, is its sorted vertex tuple.
Each extreme ray ``(a ; w)`` of K-dual with w != 0 is a facet
``<x, w> >= -(a_1 + ... + a_s)`` of the sum, so the sum's facets come from
one double description, which the origin test, the reflexivity test and the
dual read; no vertex of the sum is computed.  The caller brings the rays:
``instances`` computes them once from the input points, which also gives
the parts' vertices (``polytope.part_vertices``), and ``cones`` maps them
from another frame of the same cone.
The dual partition consists of the polytopes
``nabla_j = {y : <x, y> >= -delta_ij for all x in part_i}``, whose Cayley
cone is K-dual (Batyrev-Nill), so the same rays give them, grouped by slot.

Before a dual is returned, ``dual_nef_partition`` checks that every ray has
a unit slot part and that the minima over part i of ``<., w>`` are
``-delta_ij`` at the vertices w of nabla_j.  Together with the reflexive sum
these are the duality relations; each other consequence follows from them
and is not checked again.  ``Conv(nabla_1 u ... u nabla_s) = dual(sum)``
needs no hull: the minima add up over the parts to ``<x, y> >= -1`` on the
sum, so every nabla_j lies in dual(sum), and the vertices of dual(sum) are
the w of the rays with ``w != 0`` (the sum's facets, each at offset
``a_1 + ... + a_s = 1``), which are vertices of the nabla_j.
"""

from __future__ import annotations

import itertools

from .errors import InputError, InternalError, SumNotReflexiveError
from .intmat import independent_rows
from .polytope import sum_facets
from .records import field, record


@record
class NefPartition:
    parts: tuple
    cayley_rays: tuple = field(compare=False)  # ``cayley_dual_rays(parts)``


def reject_zero_parts(point_sets):
    """Raise ``InputError`` at the first part whose points are all 0."""
    for idx, points in enumerate(point_sets):
        if not any(map(any, points)):
            raise InputError(
                f"part {idx + 1} is the single point 0, giving a zero degree summand"
            )


def validate_nef_partition(parts, rays) -> NefPartition:
    """Check the nef-partition invariants.  A sum that is not reflexive raises
    ``SumNotReflexiveError`` carrying the sum's facets, and every other
    failure an ``InputError``.

    ``rays`` are the rays of the dual Cayley cone of the parts: the caller's
    ``cayley_dual_rays``, or those of another frame of the same cone, mapped.

    The sum is reflexive exactly when every facet ``(w, b)`` of
    ``sum_facets``, w and b jointly primitive, has b = 1.  The sum is
    full-dimensional (by the rank check of ``cayley_dual_rays``, or by the
    caller's full cone), it is a lattice polytope, being a sum of lattice
    polytopes, and these are all its facets.  Such a polytope is reflexive
    when the origin is interior, that is every b > 0, and every vertex w / b
    of its dual is integral; as gcd(w, b) = 1, b divides w only when b = 1.
    """
    if not parts:
        raise InputError("empty partition")
    reject_zero_parts(parts)
    # (delta_i ; 0) lies in K exactly when 0 lies in P_i: a non-negative
    # combination of slot points with slot part delta_i takes weights only on
    # slot i, adding up to 1.  K-dual being the cone over the rays, part i
    # holds the origin exactly when every ray (a ; w) has a_i >= 0
    for idx in range(len(parts)):
        if any(ray[idx] < 0 for ray in rays):
            raise InputError(f"part {idx + 1} does not contain the origin")
    facets = sum_facets(len(parts), rays)
    for w, b in facets:
        if b != 1:
            raise SumNotReflexiveError(
                "Minkowski sum of the parts is not reflexive: its facet "
                f"<x, ({','.join(map(str, w))})> >= {-b} has offset {b}, not 1",
                facets,
            )
    return NefPartition(tuple(parts), tuple(rays))


def dual_nef_partition(np: NefPartition):
    """The dual parts, verified against both duality relations.

    Part j holds the w of the rays ``(delta_j ; w)``, sorted as the rays are:
    the sum being reflexive, a ray has ``a >= 0`` integral with
    ``a_1 + ... + a_s = 1``.
    """
    s = len(np.parts)
    groups = [[] for _ in range(s)]
    for ray in np.cayley_rays:
        if sorted(ray[:s]) != [0] * (s - 1) + [1]:
            raise InternalError("dual Cayley ray off the unit slots")
        groups[ray.index(1)].append(ray[s:])
    if not all(groups):
        raise InternalError("dual part without a vertex")
    # the rays are integral (a double description's, or an integral map of
    # one), so the nabla_j are lattice polytopes
    duals = tuple(map(tuple, groups))

    for i, part in enumerate(np.parts):
        for j, nabla in enumerate(duals):
            target = -1 if i == j else 0
            for w in nabla:
                m = min(sum(x * y for x, y in zip(v, w)) for v in part)
                if m < target:
                    raise InternalError("pairing minimum fell below -delta_ij")
                if any(x != 0 for x in w) and m != target:
                    raise InternalError("pairing minimum not attained at a dual vertex")
    # no check of Conv(union of the nabla_j) = dual(sum): the sum's facets are
    # the rays with w != 0, each at offset 1 by the unit slots above, so the
    # vertices of dual(sum) are those w (module docstring)
    return duals


def is_two_independent(np: NefPartition):
    """Check 2-independence: no subset of n parts spanning dimension <= n.

    Returns ``(flag, witness_subset_or_None)``.
    """
    s = len(np.parts)
    for size in range(1, s + 1):
        for subset in itertools.combinations(range(s), size):
            rows = tuple(v for i in subset for v in np.parts[i])
            dim = len(independent_rows(rows, len(rows[0]))) if rows else 0
            if dim <= size:
                return False, subset
    return True, None
