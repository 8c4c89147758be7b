"""Exact lattice polytopes: Minkowski sums, vertices and lattice points.

Every polytope here is integral.  Input coordinates are integers (the
parser rejects anything else), ``normalize_cone`` maps them through a
``RowSolver``, ``renormalize`` projects them, and the dual parts are
integral rays.  Vertices are tuples of ints in lattice basis coordinates.
Facets are pairs ``(normal, offset)`` of integers, jointly primitive,
meaning the halfspace ``<x, normal> >= -offset``.  All vertex and facet
lists are sorted lexicographically so every derived report is byte-stable.

One double description serves a nef-partition: the rays of the dual Cayley
cone of its parts' points.  They cut out each part, whose vertices are the
points where the tight rays have full rank, and the sum, whose facets they
are.  No hull is taken.  Lattice points are read off inequalities that the
caller already holds, such as those rays, with no facet enumeration of
their own.
"""

from __future__ import annotations

from operator import sub

from .dd import extreme_rays
from .errors import InternalError, SumNotFullDimensionalError
from .intmat import dot, independent_rows, vprimitive
from .lattices import LatticeEmbedding
from .records import record


def _vertices_from_facets(facets, dim):
    """Vertex enumeration of a lattice polytope given by its facets.

    The rays ``(t ; x)`` of the cone over the polytope at height one are
    primitive, so a vertex x / t is integral exactly when t = 1.
    """
    rays = extreme_rays([(off,) + tuple(normal) for normal, off in facets] + [(1,) + (0,) * dim])
    if any(ray[0] != 1 for ray in rays):
        raise InternalError("facets cut out no lattice polytope")
    return sorted(ray[1:] for ray in rays)


@record
class Polytope:
    """Lattice polytope, given by its integral vertices."""

    lattice: LatticeEmbedding
    vertices: tuple

    def translate(self, shift):
        return Polytope(
            self.lattice,
            tuple(sorted(tuple(a + b for a, b in zip(v, shift)) for v in self.vertices)),
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

    ``inequalities`` are pairs ``(normal, offset)`` of integers, meaning
    ``<x, normal> >= -offset``, that cut the polytope out exactly; an
    equality enters as a pair of opposite inequalities, so the polytope may
    have any dimension.  ``vertices`` are integral points whose convex hull
    holds the polytope, such as its vertices.

    Depth-first over the ambient coordinates, each within the vertices'
    bounding box, with per-inequality suffix bounds derived from the
    vertices.  A partial sum ``pd`` over the first k + 1 coordinates can
    still be completed for an inequality only while
    ``pd + max_v <normal, v>_{>k} >= -off``, that is ``pd >= bound[k]`` for
    the integer ``bound[k] = -off - max_v(...)``.  Depth k tests only the
    inequalities whose normal has a nonzero k-th entry: for the others both
    the partial sum and the bound are those of depth k - 1.  The last depth
    that tests an inequality has an empty suffix, so it tests the inequality
    exactly.
    """
    dim = len(vertices[0])
    lo = [min(v[j] for v in vertices) for j in range(dim)]
    hi = [max(v[j] for v in vertices) for j in range(dim)]
    active = [[] for _ in range(dim)]  # per depth: (inequality, entry, bound)
    for f_idx, (normal, off) in enumerate(inequalities):
        suffix = [0] * len(vertices)
        for k in range(dim - 1, -1, -1):
            if normal[k]:
                active[k].append((f_idx, normal[k], -off - max(suffix)))
                suffix = [t + normal[k] * v[k] for t, v in zip(suffix, vertices)]
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


def cayley_dual_rays(point_sets):
    """The rays ``(a ; w)`` of K-dual, K the cone over the slot points
    ``(delta_i ; x)``, x in the i-th point set, of dimension s + dim(P_1 +
    ... + P_s), P_i the hull of the i-th set: one double description, which
    gives the parts' vertices, the sum and a nef-partition's dual parts.  A
    point that is no vertex of its P_i only adds a redundant generator.
    Raises ``SumNotFullDimensionalError`` for a lower-dimensional sum.
    """
    s, d = len(point_sets), len(point_sets[0][0])
    gens = [tuple(int(k == i) for k in range(s)) + tuple(x)
            for i, points in enumerate(point_sets) for x in points]
    rank = len(independent_rows(gens, s + d))
    if rank < s + d:
        raise SumNotFullDimensionalError(
            f"Minkowski sum has dimension {rank - s} < {d}", affine_dim=rank - s
        )
    return extreme_rays(gens)


def part_vertices(points, rays, i):
    """The vertices of P_i, the hull of ``points``, sorted: the points x
    where the normals w of the tight rays, those with ``a_i + <x, w> = 0``,
    have rank d.  ``rays`` are ``cayley_dual_rays`` of point sets whose i-th
    set is ``points``.

    The rays cut P_i out as ``<x, w> >= -a_i`` (``part_lattice_points``).
    A point x of a polyhedron cut out by inequalities is a vertex exactly
    when its tight normals have rank d: the inequalities that are not tight
    at x still hold near x, so ``x +- eps u`` stays inside for a small
    eps > 0 exactly when u is orthogonal to every tight normal.  This holds
    for P_i of any dimension: the inequalities tight on all of P_i, which
    cut out its affine hull, are tight at every x.  Every vertex of a hull
    is one of its points, so the points kept are all the vertices.
    """
    d = len(points[0])
    s = len(rays[0]) - d
    return tuple(
        x for x in sorted(set(points))
        if len(independent_rows([r[s:] for r in rays if r[i] + dot(x, r[s:]) == 0], d)) == d
    )


def part_lattice_points(polys, rays):
    """The lattice points of each polytope P_i, from the rays ``(a ; w)`` of
    ``cayley_dual_rays`` of their points: P_i is cut out by ``<x, w> >= -a_i``.

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
