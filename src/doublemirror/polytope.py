"""Exact rational polytopes: hulls, Minkowski sums, lattice points.

Vertices are tuples in lattice basis coordinates whose entries are ``int``
where integral and ``Fraction`` only where truly rational.  Facets are
pairs ``(normal, offset)`` of integers, jointly primitive, meaning the
halfspace ``<x, normal> >= -offset``.  All vertex and facet lists are sorted
lexicographically so every derived report is byte-stable.  A Minkowski sum
is no hull of vertex sums: its facets are the rays of the dual Cayley cone.
Lattice points are read off inequalities that the caller already holds,
such as those rays, with no facet enumeration of their own.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm
from operator import sub

from .dd import extreme_rays
from .errors import (
    InputError,
    InternalError,
    LatticeMismatchError,
    LowerDimensionalError,
    UnboundedSliceError,
)
from .intmat import IntMatrix, forward_substitute, independent_rows, saturation, vprimitive
from .lattices import LatticeEmbedding
from .records import record


def _exact(x):
    """``x`` as an int when integral, else as a Fraction."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quo(a, b):
    """``a / b`` for integers, as an int when exact, else as a Fraction."""
    return a // b if a % b == 0 else Fraction(a, b)


def _exact_tuple(point):
    return tuple(_exact(x) for x in point)


def _scale_to_int(row):
    """Clear denominators and divide by the content; keeps the ray direction."""
    denom = lcm(*(x.denominator for x in row))
    return vprimitive(tuple(x.numerator * (denom // x.denominator) for x in row))


def affine_basis(points):
    """Base point plus an integer basis of the saturated direction lattice.

    Returns ``(x0, W)`` where ``W`` is an ``IntMatrix`` whose rows span the
    direction space; ``W`` is a saturated row HNF, so integer points of the
    affine hull have integer coordinates over it.  When the points span the
    space W is the identity and x0 the origin: coordinates are ambient.
    """
    pts = [_exact_tuple(p) for p in points]
    x0 = pts[0]
    dir_rows = []
    for p in pts[1:]:
        d = tuple(a - b for a, b in zip(p, x0))
        if any(x != 0 for x in d):
            dir_rows.append(_scale_to_int(d))
    if not dir_rows:
        return x0, IntMatrix(())
    w = saturation(IntMatrix(tuple(dir_rows)))
    return ((0,) * len(x0) if w.rows == len(x0) else x0), w


def _to_affine_coords(points, x0, w: IntMatrix):
    """Coordinates ``z`` with ``p = x0 + z.W`` for each point, exact.

    ``W`` is a saturated row HNF (as from ``affine_basis``), so once the
    differences are scaled by the common denominator ``den`` the coordinates
    are integers, found by forward substitution; a point off the affine hull
    raises ``InternalError``.
    """
    den = lcm(*(x.denominator for p in points for x in p), *(x.denominator for x in x0))
    x0s = [x * den for x in x0]
    pivots = [next(j for j, x in enumerate(row) if x) for row in w.data]
    coords = []
    for p in points:
        z, r = forward_substitute(w.data, pivots, [int(a * den - b) for a, b in zip(p, x0s)])
        if any(r):
            raise InternalError("point left its own affine hull")
        coords.append(tuple(_quo(q, den) for q in z))
    return coords


def _from_affine_coords(z, x0, w: IntMatrix):
    return tuple(
        _exact(x0[j] + sum(zi * w.data[i][j] for i, zi in enumerate(z)))
        for j in range(len(x0))
    )


def _facets_fulldim(points):
    """Facets of a full-dimensional point set, via double description."""
    rays = extreme_rays([_scale_to_int((1,) + tuple(p)) for p in points])
    return sorted((ray[1:], ray[0]) for ray in rays if any(ray[1:]))


def _vertices_from_facets(facets, dim):
    """Vertex enumeration of a bounded H-polytope; raises when unbounded."""
    rays = extreme_rays([(off,) + tuple(normal) for normal, off in facets] + [(1,) + (0,) * dim])
    if any(ray[0] == 0 for ray in rays):
        raise UnboundedSliceError("polyhedron has a nonzero recession ray")
    return sorted({tuple(_quo(x, ray[0]) for x in ray[1:]) for ray in rays})


def hull_vertices(points):
    """Extreme points of a finite rational point set, any dimension."""
    pts = sorted(set(_exact_tuple(p) for p in points))
    if not pts:
        raise InputError("empty point set")
    if len(pts) == 1:
        return tuple(pts)
    x0, w = affine_basis(pts)
    if w.rows == 0:
        return (pts[0],)
    facets = _facets_fulldim(_to_affine_coords(pts, x0, w))
    z_vertices = _vertices_from_facets(facets, w.rows)
    return tuple(sorted(_from_affine_coords(z, x0, w) for z in z_vertices))


@record
class Polytope:
    """Rational polytope, given by its exact vertices."""

    lattice: LatticeEmbedding
    vertices: tuple

    @staticmethod
    def from_points(lattice: LatticeEmbedding, points) -> "Polytope":
        verts = hull_vertices(points)
        if len(verts[0]) != lattice.rank:
            raise InputError("point dimension does not match lattice rank")
        return Polytope(lattice, verts)

    def is_lattice_polytope(self):
        return all(all(x.denominator == 1 for x in v) for v in self.vertices)

    def vertex_set(self):
        return set(self.vertices)

    def translate(self, shift):
        shift = _exact_tuple(shift)
        return Polytope(
            self.lattice,
            tuple(sorted(_exact_tuple(a + b for a, b in zip(v, shift)) for v in self.vertices)),
        )


def point_tuples(groups, target):
    """Every tuple of one point per group adding up to ``target``, in lex order.

    Depth-first over the groups, each sorted once.  A partial choice is
    kept only while the rest of the target lies in the box between the
    coordinate-wise least and greatest sums of the groups still to choose.
    A group that is the same object as the group before it resumes from the
    previous choice, so a run of one repeated group yields each multiset
    once, as its non-decreasing tuple.
    """
    groups = list(groups)
    resume = [k > 0 and g is groups[k - 1] for k, g in enumerate(groups)]
    groups = [sorted(g) for g in groups]
    if not all(groups):
        return
    zero = (0,) * len(target)
    lo, hi = [zero], [zero]
    for g in reversed(groups):
        lo.append(tuple(a + min(x) for a, x in zip(lo[-1], zip(*g))))
        hi.append(tuple(a + max(x) for a, x in zip(hi[-1], zip(*g))))
    lo.reverse()
    hi.reverse()
    chosen = []

    def rec(k, rest, start):
        if k == len(groups):
            if rest == zero:
                yield tuple(chosen)
            return
        box = tuple(zip(lo[k + 1], hi[k + 1]))
        group = groups[k]
        for idx in range(start if resume[k] else 0, len(group)):
            left = tuple(map(sub, rest, group[idx]))
            for (a, b), x in zip(box, left):
                if x < a or x > b:
                    break
            else:
                chosen.append(group[idx])
                yield from rec(k + 1, left, idx)
                chosen.pop()

    yield from rec(0, tuple(target), 0)


def lattice_points(vertices, inequalities):
    """The lattice points of a polytope, in lexicographic order.

    ``vertices`` are the polytope's vertices and ``inequalities`` pairs
    ``(normal, offset)`` of integers, meaning ``<x, normal> >= -offset``,
    that cut it out exactly; an equality enters as a pair of opposite
    inequalities, so the polytope may have any dimension.

    Depth-first over the ambient coordinates, each within the vertices'
    bounding box, with per-inequality suffix bounds derived from the
    vertices.  A partial sum ``pd`` over the first k + 1 coordinates can
    still be completed for an inequality only while
    ``pd + max_v <normal, v>_{>k} >= -off``; with the vertices scaled by
    their common denominator ``den`` that reads ``pd >= bound[k]`` for the
    integer ``bound[k] = ceil(-off - max_v(...))``.  Depth k tests only the
    inequalities whose normal has a nonzero k-th entry: for the others both
    the partial sum and the bound are those of depth k - 1.  The last depth
    that tests an inequality has an empty suffix, so it tests the inequality
    exactly.
    """
    dim = len(vertices[0])
    lo = [ceil(min(v[j] for v in vertices)) for j in range(dim)]
    hi = [floor(max(v[j] for v in vertices)) for j in range(dim)]
    den = lcm(*(x.denominator for v in vertices for x in v))
    scaled = [[x.numerator * (den // x.denominator) for x in v] for v in vertices]
    active = [[] for _ in range(dim)]  # per depth: (inequality, entry, bound)
    for f_idx, (normal, off) in enumerate(inequalities):
        suffix = [0] * len(scaled)
        for k in range(dim - 1, -1, -1):
            if normal[k]:
                active[k].append((f_idx, normal[k], -((den * off + max(suffix)) // den)))
                suffix = [t + normal[k] * v[k] for t, v in zip(suffix, scaled)]
    out = []
    point = [0] * dim

    def rec(k, partials):
        if k == dim:
            out.append(tuple(point))
            return
        for val in range(lo[k], hi[k] + 1):
            new_partials = partials[:]
            for f_idx, c, bound in active[k]:
                pd = partials[f_idx] + c * val
                if pd < bound:
                    break
                new_partials[f_idx] = pd
            else:
                point[k] = val
                rec(k + 1, new_partials)

    rec(0, [0] * len(inequalities))
    return out


def cayley_dual_rays(polys):
    """The rays ``(a ; w)`` of K-dual, K the cone over the slot points
    ``(delta_i ; v)``, v a vertex of P_i, of dimension s + dim(P_1 + ... +
    P_s): one double description, which gives the sum and a nef-partition's
    dual parts.  Raises ``LowerDimensionalError`` for a lower-dimensional sum.
    """
    lattice, s, d = polys[0].lattice, len(polys), polys[0].lattice.rank
    if any(p.lattice != lattice for p in polys):
        raise LatticeMismatchError("operands live in different lattices")
    gens = [_scale_to_int(tuple(int(k == i) for k in range(s)) + tuple(v))
            for i, p in enumerate(polys) for v in p.vertices]
    rank = len(independent_rows(gens, s + d))
    if rank < s + d:
        raise LowerDimensionalError(
            f"Minkowski sum has affine dimension {rank - s} < {d}", affine_dim=rank - s
        )
    return extreme_rays(gens)


def part_lattice_points(polys, rays):
    """The lattice points of each polytope P_i, from the rays ``(a ; w)`` of
    ``cayley_dual_rays(polys)``: P_i is cut out by ``<x, w> >= -a_i``.

    ``(delta_i ; x)`` lies in the Cayley cone K exactly when x lies in P_i:
    a non-negative combination of slot points with slot part delta_i weighs
    only slot i, with weights adding up to 1.  K-dual is the cone over the
    rays, so K is cut out by the pairings with them.
    """
    s = len(polys)
    return tuple(
        tuple(lattice_points(p.vertices, [(ray[s:], ray[i]) for ray in rays]))
        for i, p in enumerate(polys)
    )


def sum_facets(s, rays):
    """The facets of P_1 + ... + P_s, from the rays of ``cayley_dual_rays``.

    An extreme ray ``(a ; w)`` of K-dual with w != 0 has
    ``a_i = -min_{P_i} <., w>`` for every i (a larger a_i splits off the ray
    ``(delta_i ; 0)``), and its face of K is the cone over
    Cayley(F_1, ..., F_s), F_i the face of P_i where w is least, of
    dimension s + dim(F_1 + ... + F_s).  So these rays are the facets
    ``<x, w> >= -(a_1 + ... + a_s)`` of the sum, one each.
    """
    rows = (vprimitive(ray[s:] + (sum(ray[:s]),)) for ray in rays if any(ray[s:]))
    return sorted((row[:-1], row[-1]) for row in rows)


def sum_from_cayley_rays(polys, rays) -> Polytope:
    """The sum of the polytopes, its vertices enumerated from ``sum_facets``."""
    facets = sum_facets(len(polys), rays)
    return Polytope(polys[0].lattice, tuple(_vertices_from_facets(facets, polys[0].lattice.rank)))
