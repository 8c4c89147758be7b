"""Reflexive Gorenstein cone pairs and their nef-partition conversions.

A nef-partition of length s in a rank-d lattice M gives a cone pair in
``Mbar = Z^s (+) M`` and its dual ``Nbar``:

* ``K`` is generated by ``(delta_i ; v)`` over the vertices of the parts;
* ``K-dual`` by ``(m_1j, ..., m_sj ; w_j)`` over the dual-sum vertices,
  which are the partition's Cayley rays with ``w != 0``, plus the unit
  summands ``(delta_i ; 0)``;
* ``deg = deg_dual = (1, ..., 1 ; 0)`` and the index is s.

A pair therefore stores only the partition, its dual and a frame to the
input coordinates; everything else is read off the partition.

The degree-one slice S of K is the Cayley polytope of the parts: its face
``{a_i = 1}`` is ``delta_i x P_i``, so the generators of K are exactly the
vertices of S, known without a hull.  A decomposition ``deg_dual = sum e~_i``
partitions those vertices among the faces ``S~_i`` where ``<., e~_i> = 1``,
and every conversion checks that partition exactly.  ``renormalize`` makes
such a decomposition the reference by a unimodular change of frame.

Cones can also be entered directly as generator lists in any lattice
presentation; ``normalize_cone`` finds a reference decomposition of the dual
degree element and rewrites the cone in the split form above, recording the
change of coordinates back to the input frame.  No hull is taken: the
vertices of S are the rays of K, read off the rays of K-dual, and those
rays, mapped to the split frame, are the dual Cayley rays of the new parts.
"""

from __future__ import annotations

from .dd import extreme_rays
from .errors import InputError, InternalError
from .intmat import (
    RowSolver,
    dot,
    identity,
    independent_rows,
    kernel_basis,
    matmul,
    vadd,
    vsub,
)
from .nefpart import NefPartition, dual_nef_partition, validate_nef_partition
from .polytope import lattice_points, part_lattice_points, point_tuples
from .records import field, record


@record
class GorensteinConePair:
    """A nef-partition, its dual, and the frame from split to root coordinates.

    K, K-dual and both degree elements are read off the partition: see the
    module docstring.
    """

    parts: NefPartition
    dual_parts: tuple  # per dual part, its sorted vertex tuple
    to_root: tuple  # rows: images of Mbar basis vectors in root coordinates
    _cache: dict = field(default_factory=dict, compare=False)

    @property
    def s(self):
        return len(self.parts.parts)

    @property
    def d(self):
        return len(self.parts.parts[0][0])

    @property
    def deg(self):
        return (1,) * self.s + (0,) * self.d

    deg_dual = deg

    @property
    def k_generators(self):
        """Generators of K, sorted: the vertices of S."""
        return self.s_vertices()

    @property
    def k_dual_generators(self):
        """Generators of K-dual, sorted: the Cayley rays plus the unit summands."""
        units = (self.slot_point(i, (0,) * self.d) for i in range(self.s))
        return tuple(sorted(set(self.parts.cayley_rays).union(units)))

    def point_to_root(self, v):
        return matmul((v,), self.to_root)[0]

    def slice_roots(self):
        """Root-frame image of each lattice point of S, computed once per pair."""
        if "slice_roots" not in self._cache:
            self._cache["slice_roots"] = {
                v: self.point_to_root(v) for slot in self.slice_points() for v in slot
            }
        return self._cache["slice_roots"]

    def s_vertices(self):
        """Vertices of the degree-one slice S of K, sorted.

        S is the Cayley polytope of the parts.  Its face ``{a_i = 1}`` is
        ``delta_i x P_i``, so each slot point ``(delta_i ; v)`` with v a
        vertex of P_i is a vertex of S, and S has no others.
        """
        return tuple(sorted(
            self.slot_point(i, v) for i, part in enumerate(self.parts.parts) for v in part
        ))

    def part_points(self):
        """Lattice points of each part, cut out by the Cayley rays."""
        if "part_points" not in self._cache:
            self._cache["part_points"] = part_lattice_points(
                self.parts.parts, self.parts.cayley_rays
            )
        return self._cache["part_points"]

    def dual_part_points(self):
        """Lattice points of each dual part ``nabla_j``, cut out by
        ``<v, y> >= -delta_ij`` over the vertices v of every part P_i."""
        if "dual_part_points" not in self._cache:
            parts = self.parts.parts
            self._cache["dual_part_points"] = tuple(
                tuple(lattice_points(nabla, [
                    (v, int(i == j)) for i, part in enumerate(parts) for v in part
                ]))
                for j, nabla in enumerate(self.dual_parts)
            )
        return self._cache["dual_part_points"]

    def slice_points(self):
        """Lattice points of S, grouped by slot: slot i holds (delta_i ; m)."""
        return tuple(
            tuple(self.slot_point(i, m) for m in pts) for i, pts in enumerate(self.part_points())
        )

    def slot_point(self, i, m):
        return tuple(1 if k == i else 0 for k in range(self.s)) + tuple(m)


def build_cone(np: NefPartition, to_root=None) -> GorensteinConePair:
    """Cone pair of a nef-partition, its dual checked by ``dual_nef_partition``.

    The pair is reflexive Gorenstein of index s with no further check:
    Batyrev-Nill makes K of a nef-partition reflexive Gorenstein with K-dual
    the Cayley cone of the dual parts, and ``dual_nef_partition`` checks the
    relations that this pair's K-dual is built from.  Each generator
    ``(delta_i ; v)`` of K and each Cayley ray pairs to 1 with deg_dual and
    deg (the unit slots), the pairing minima make every ``<g, w> >= 0``, and
    both generator sets span, being the rays of full-dimensional cones.  The
    sum holds the origin, every part having it.
    """
    if to_root is None:
        to_root = identity(len(np.parts) + len(np.parts[0][0]))
    return GorensteinConePair(np, dual_nef_partition(np), to_root)


def in_dual_cone(pair: GorensteinConePair, y):
    """Membership of y in K-dual, tested against the primal generators."""
    return all(dot(g, y) >= 0 for g in pair.k_generators)


def renormalize(pair: GorensteinConePair, e_tilde) -> GorensteinConePair:
    """The same cone pair with ``deg_dual = sum e_tilde_i`` as its reference.

    Slices ``S~_i``, where ``<., e~_i> = 1``, are faces of the degree-one
    slice S; the projection that forgets the first s coordinates identifies
    their span with M and sends ``S~_i`` to the new parts.  At a vertex v of
    S the pairings ``<v, e~_i>`` are non-negative integers adding up to
    ``<v, deg_dual> = 1``, so the faces partition the vertices of S.  Each
    new part is the projection of its share, and the union of the new parts'
    vertices is that of the old parts', so both have the same convex hull.

    The rows of ``frame`` are the new basis vectors in the old split
    coordinates: ``(e~_i[:s] ; 0)``, then ``(-sum_i p_ij e~_i[:s] ; unit_j)``
    with ``p_i = e~_i[s:]``.  It is unimodular, so the rays of K-dual, mapped
    through it, are the Cayley rays of the new parts, and no double
    description is run.  The partition and the nef-partition invariants are
    verified.
    """
    s, d = pair.s, pair.d
    e_tilde = [tuple(int(x) for x in e) for e in e_tilde]
    if len(e_tilde) != s:
        raise InputError(f"expected {s} summands, got {len(e_tilde)}")
    total = (0,) * len(pair.deg_dual)
    for idx, e in enumerate(e_tilde):
        if all(x == 0 for x in e):
            raise InputError(f"summand {idx + 1} is zero")
        if not in_dual_cone(pair, e):
            raise InputError(f"summand {idx + 1} is not in the dual cone")
        total = vadd(total, e)
    if total != pair.deg_dual:
        raise InputError("summands do not add up to deg_dual")

    # no face is empty: a summand is >= 0 on the vertices of S, which span K,
    # and the summands add up to 1 there, so a summand that is 1 on none of
    # them is 0, which is rejected above
    faces = _split_by_faces(
        pair.s_vertices(), e_tilde, "Conv of the new parts differs from Conv of the old parts"
    )
    # unimodular with no check: the frame is block triangular with the unit
    # M block, and its slot block is a permutation matrix.  deg pairs to 1
    # with every Cayley ray (the unit slots), so to >= 1 with each nonzero
    # summand, and the summands add up to s there: each is 1.  Its slot
    # entries are its pairings with the (delta_k ; 0) in K, so >= 0, and one
    # of them is 1; the slot entries add up to those of deg_dual, all 1
    frame = tuple(
        [e[:s] + (0,) * d for e in e_tilde]
        + [tuple(-sum(e[s + j] * e[k] for e in e_tilde) for k in range(s))
           + tuple(int(k == j) for k in range(d)) for j in range(d)]
    )
    rays = sorted(tuple(dot(row, y) for row in frame) for y in pair.parts.cayley_rays)
    np = validate_nef_partition([tuple(sorted(v[s:] for v in face)) for face in faces], rays)
    return build_cone(np, matmul(frame, pair.to_root))


def _split_by_faces(vertices, summands, message):
    """Group the vertices by the one summand pairing to 1 with each.

    ``vertices`` keep their order within a group; a vertex on no face or on
    several raises ``InternalError(message)``.
    """
    groups = [[] for _ in summands]
    for v in vertices:
        hits = [i for i, e in enumerate(summands) if dot(v, e) == 1]
        if len(hits) != 1:
            raise InternalError(message)
        groups[hits[0]].append(v)
    return groups


def normalize_cone(rank, generators, deg=None, deg_dual=None):
    """Rewrite a directly-entered Gorenstein cone in split nef-partition form.

    ``generators`` are in the basis coordinates of a lattice of this rank.
    Returns ``(pair, info)`` where ``info`` records the reference
    decomposition and section used for the coordinate change.  The returned
    pair's ``to_root`` maps split coordinates to the input lattice's basis
    coordinates.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if len(independent_rows(gens, rank)) != rank:
        raise InputError("cone is not full-dimensional")

    computed_deg_dual = _height_one_functional(gens)
    if computed_deg_dual is None:
        raise InputError("generators do not lie on an integral height-one hyperplane")
    if deg_dual is not None and tuple(deg_dual) != computed_deg_dual:
        raise InputError("supplied deg_dual does not support the generators at height one")
    deg_dual = computed_deg_dual

    rays = extreme_rays(gens)
    computed_deg = _height_one_functional(rays)
    if computed_deg is None:
        raise InputError("dual cone is not Gorenstein (no integral degree element)")
    if deg is not None and tuple(deg) != computed_deg:
        raise InputError("supplied deg does not support the dual rays at height one")
    deg = computed_deg
    s = dot(deg, deg_dual)
    if s == rank:
        raise InputError(
            f"cone index {s} equals its rank: its nef-partition would live in a rank-zero lattice"
        )

    s_vertices = extreme_rays(rays)
    # the extreme rays of K-dual all lie at deg-height one: they are the
    # vertices of its slice T, which <g, y> >= 0 and <deg, y> = 1 cut out
    t_points = lattice_points(rays, _slice_inequalities(gens, deg))
    reference = next(point_tuples([t_points] * s, deg_dual), None)
    if reference is None:
        raise InputError("deg_dual admits no decomposition into dual slice points")

    # At a vertex v of S the pairings <v, e_i> are integers >= 0 (e_i lies
    # in T, in K-dual) adding up to <v, deg_dual> = 1.  A summand 1 at no vertex would be 0 on all of them,
    # which span, yet <deg, e_i> = 1; so each group below has a vertex v_i with
    # <v_i, e_j> = delta_ij, and the summands are distinct and independent
    groups = _split_by_faces(
        s_vertices, reference, "slice vertex not in exactly one reference slot"
    )

    section = next(point_tuples(groups, deg), None)
    if section is None:
        s_points = lattice_points(s_vertices, _slice_inequalities(rays, deg_dual))
        point_groups = [[v for v in s_points if dot(v, e) == 1] for e in reference]
        section = next(point_tuples(point_groups, deg), None)
    if section is None:
        raise InputError(
            "no lattice section of deg: the cone is not of nef-partition type "
            "for the reference decomposition"
        )

    # The section has <section_i, e_j> = delta_ij like the v_i, and the rows
    # of ann_basis span the saturated lattice {x : <x, e_i> = 0 for all i},
    # of rank d = n - s.  So x - sum_i <x, e_i> section_i lies in it for
    # every integral x: [section ; ann_basis] is a lattice basis, and v minus
    # section_i, for v in group i, has integral coordinates over ann_basis
    ann_basis = kernel_basis(reference)
    ann_solver = RowSolver(ann_basis)
    # each part is an affine unimodular image of the vertices of the face S_i
    parts = [
        tuple(sorted(ann_solver.solve(vsub(v, section[i])) for v in group))
        for i, group in enumerate(groups)
    ]
    to_root = tuple(section) + ann_basis
    # K-dual in split coordinates: w_split = to_root . w_root, a unimodular
    # map, so the rays stay primitive
    split_rays = sorted(tuple(dot(row, w) for row in to_root) for w in rays)
    pair = build_cone(validate_nef_partition(parts, split_rays), to_root)
    info = {
        "reference_decomposition": tuple(reference),
        "section": tuple(section),
        "deg_root": deg,
        "deg_dual_root": deg_dual,
        "generator_count": len(gens),
        "s_vertex_count": len(s_vertices),
    }
    return pair, info


def _slice_inequalities(generators, height):
    """``<g, x> >= 0`` over the generators g of a cone and ``<height, x> = 1``,
    the equality as a pair of inequalities: its slice at height one."""
    return [(g, 0) for g in generators] + [(height, -1), (tuple(-x for x in height), 1)]


def _height_one_functional(vectors):
    """The integral ``x`` with ``<v, x> = 1`` for every v, or None.

    The vectors span the space, so the kernel of the rows ``(v, -1)`` is at
    most a line; being saturated, it is spanned by ``+-(x, 1)`` exactly when
    an integral x exists.
    """
    ker = kernel_basis(tuple(tuple(v) + (-1,) for v in vectors))
    if len(ker) != 1 or ker[0][-1] not in (1, -1):
        return None
    return tuple(ker[0][-1] * x for x in ker[0][:-1])

