"""Reflexive Gorenstein cone pairs and their nef-partition conversions.

A nef-partition of length s in a rank-d lattice M gives a cone pair in
``Mbar = Z^s (+) M`` and its dual ``Nbar``:

* ``K`` is generated by ``(delta_i ; v)`` over the vertices of the parts;
* ``K-dual`` by ``(m_1j, ..., m_sj ; w_j)`` over the dual-sum vertices plus
  the unit summands ``(delta_i ; 0)``;
* ``deg = deg_dual = (1, ..., 1 ; 0)`` and the index is s.

The degree-one slice S of K is the Cayley polytope of the parts: its face
``{a_i = 1}`` is ``delta_i x P_i``, so the generators of K are exactly the
vertices of S, known without a hull.  A decomposition ``deg_dual = sum e~_i``
partitions those vertices among the faces ``S~_i`` where ``<., e~_i> = 1``,
and every conversion checks that partition exactly.

Cones can also be entered directly as generator lists in any lattice
presentation; ``normalize_cone`` finds a reference decomposition of the dual
degree element and rewrites the cone in the split form above, recording the
change of coordinates back to the input frame.  No hull is taken: the
vertices of S are the rays of K, read off the rays of K-dual, and those
rays, mapped to the split frame, are the dual Cayley rays of the new parts.
"""

from __future__ import annotations

from .dd import extreme_rays
from .errors import (
    DecompositionError,
    InputError,
    InternalError,
    NotGorensteinError,
)
from .intmat import (
    IntMatrix,
    RowSolver,
    adjugate,
    dot,
    independent_rows,
    kernel_basis,
    vadd,
    vsub,
)
from .lattices import LatticeEmbedding
from .nefpart import NefPartition, dual_nef_partition, pairing_minima, validate_nef_partition
from .polytope import Polytope, dual_polytope, lattice_points, point_tuples
from .records import field, record


@record
class GorensteinConePair:
    """Generators of K and K-dual with degree elements, in split coordinates."""

    k_generators: tuple
    k_dual_generators: tuple
    deg: tuple
    deg_dual: tuple
    index: int
    parts: NefPartition
    dual_parts: tuple  # DualNefPartition
    to_root: IntMatrix  # rows: images of Mbar basis vectors in root coordinates
    _cache: dict = field(default_factory=dict, compare=False)

    @property
    def s(self):
        return self.index

    @property
    def d(self):
        return len(self.deg) - self.index

    def point_to_root(self, v):
        return tuple(
            sum(v[i] * self.to_root.data[i][j] for i in range(len(v)))
            for j in range(self.to_root.cols)
        )

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
            self.slot_point(i, v) for i, part in enumerate(self.parts.parts) for v in part.vertices
        ))

    def part_points(self):
        """Lattice points of each part."""
        if "part_points" not in self._cache:
            self._cache["part_points"] = tuple(
                tuple(lattice_points(p)) for p in self.parts.parts
            )
        return self._cache["part_points"]

    def dual_part_points(self):
        if "dual_part_points" not in self._cache:
            self._cache["dual_part_points"] = tuple(
                tuple(lattice_points(p)) for p in self.dual_parts.parts
            )
        return self._cache["dual_part_points"]

    def slice_points(self):
        """Lattice points of S, grouped by slot: slot i holds (delta_i ; m)."""
        return tuple(
            tuple(self.slot_point(i, m) for m in pts) for i, pts in enumerate(self.part_points())
        )

    def slot_point(self, i, m):
        return tuple(1 if k == i else 0 for k in range(self.s)) + tuple(m)


def build_cone(
    np: NefPartition,
    dual_np=None,
    to_root: IntMatrix | None = None,
) -> GorensteinConePair:
    """Cone pair of a nef-partition whose sum has the origin interior."""
    s = np.length
    d = np.lattice.rank
    if not np.sum.contains((0,) * d):
        raise InputError("partition sum must contain the origin")
    if dual_np is None:
        dual_np = dual_nef_partition(np)
    gens = set()
    for i, part in enumerate(np.parts):
        for v in part.vertices:
            gens.add(tuple(1 if k == i else 0 for k in range(s)) + tuple(int(x) for x in v))
    k_generators = tuple(sorted(gens))
    deg = (1,) * s + (0,) * d
    deg_dual = (1,) * s + (0,) * d
    k_dual_generators = dual_generators(np)
    if to_root is None:
        to_root = IntMatrix.identity(s + d)
    pair = GorensteinConePair(
        k_generators=k_generators,
        k_dual_generators=k_dual_generators,
        deg=deg,
        deg_dual=deg_dual,
        index=s,
        parts=np,
        dual_parts=dual_np,
        to_root=to_root,
    )
    ok, idx = verify_reflexive_gorenstein_data(k_generators, k_dual_generators, deg, deg_dual)
    if not ok or idx != s:
        raise InternalError("constructed cone failed the reflexive Gorenstein check")
    return pair


def dual_generators(np: NefPartition):
    """Generators of the dual cone: minima rows over Ver(nabla) plus units."""
    s = np.length
    d = np.lattice.rank
    nabla = dual_polytope(np.sum)
    gens = set()
    for w in nabla.vertices:
        w_int = tuple(int(x) for x in w)
        minima = pairing_minima(np, w_int)
        gens.add(tuple(minima) + w_int)
    for i in range(s):
        gens.add(tuple(1 if k == i else 0 for k in range(s)) + (0,) * d)
    result = tuple(sorted(gens))
    deg = (1,) * s + (0,) * d
    for g in result:
        if dot(deg, g) != 1:
            raise InternalError("dual generator off the degree-one hyperplane")
    return result


def verify_reflexive_gorenstein_data(k_generators, k_dual_generators, deg, deg_dual):
    """Both Gorenstein conditions plus interiority of the degree elements.

    Returns ``(flag, index)`` where ``index = <deg, deg_dual>``.
    """
    idx = dot(deg, deg_dual)
    n = len(deg)
    if any(dot(g, deg_dual) != 1 for g in k_generators):
        return False, idx
    if any(dot(deg, w) != 1 for w in k_dual_generators):
        return False, idx
    for g in k_generators:
        for w in k_dual_generators:
            if dot(g, w) < 0:
                return False, idx
    if len(independent_rows(k_generators, n)) != n:
        return False, idx
    if len(independent_rows(k_dual_generators, n)) != n:
        return False, idx
    return True, idx


def in_dual_cone(pair: GorensteinConePair, y):
    """Membership of y in K-dual, tested against the primal generators."""
    return all(dot(g, y) >= 0 for g in pair.k_generators)


def cone_to_nef_partition(pair: GorensteinConePair, e_tilde) -> NefPartition:
    """Nef-partition of a decomposition ``deg_dual = sum e_tilde_i``.

    Slices ``S~_i``, where ``<., e~_i> = 1``, are faces of the degree-one
    slice S; the projection that forgets the first s coordinates identifies
    their span with M and sends ``S~_i`` to the new parts.  At a vertex v of
    S the pairings ``<v, e~_i>`` are non-negative integers adding up to
    ``<v, deg_dual> = 1``, so the faces partition the vertices of S.  Each
    new part is the projection of its share, and the union of the new parts'
    vertices is that of the old parts', so both have the same convex hull.
    The partition and the nef-partition invariants are verified.
    """
    s = pair.s
    e_tilde = [tuple(int(x) for x in e) for e in e_tilde]
    if len(e_tilde) != s:
        raise DecompositionError(f"expected {s} summands, got {len(e_tilde)}")
    total = (0,) * len(pair.deg_dual)
    for idx, e in enumerate(e_tilde):
        if all(x == 0 for x in e):
            raise DecompositionError(f"summand {idx + 1} is zero")
        if not in_dual_cone(pair, e):
            raise DecompositionError(f"summand {idx + 1} is not in the dual cone")
        total = vadd(total, e)
    if total != pair.deg_dual:
        raise DecompositionError("summands do not add up to deg_dual")

    faces = _split_by_faces(
        pair.s_vertices(), e_tilde, "Conv of the new parts differs from Conv of the old parts"
    )
    if not all(faces):
        raise InternalError("slice face of a valid decomposition is empty")
    return validate_nef_partition(
        [Polytope(pair.parts.lattice, tuple(sorted(v[s:] for v in face))) for face in faces]
    )


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


def normalize_cone(lattice: LatticeEmbedding, generators, deg=None, deg_dual=None):
    """Rewrite a directly-entered Gorenstein cone in split nef-partition form.

    Returns ``(pair, info)`` where ``info`` records the reference
    decomposition and section used for the coordinate change.  The returned
    pair's ``to_root`` maps split coordinates to the input lattice's basis
    coordinates.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    n = lattice.rank
    if len(independent_rows(gens, n)) != n:
        raise NotGorensteinError("cone is not full-dimensional")

    computed_deg_dual = _height_one_functional(gens)
    if computed_deg_dual is None:
        raise NotGorensteinError("generators do not lie on an integral height-one hyperplane")
    if deg_dual is not None and tuple(deg_dual) != computed_deg_dual:
        raise InputError("supplied deg_dual does not support the generators at height one")
    deg_dual = computed_deg_dual

    rays = extreme_rays(gens)
    computed_deg = _height_one_functional(rays)
    if computed_deg is None:
        raise NotGorensteinError("dual cone is not Gorenstein (no integral degree element)")
    if deg is not None and tuple(deg) != computed_deg:
        raise InputError("supplied deg does not support the dual rays at height one")
    deg = computed_deg
    s = dot(deg, deg_dual)
    if s == n:
        raise InputError(
            f"cone index {s} equals its rank: its nef-partition would live in a rank-zero lattice"
        )

    s_vertices = extreme_rays(rays)
    # the extreme rays of K-dual all lie at deg-height one: they are the
    # vertices of its slice T
    t_points = lattice_points(Polytope(lattice.dual(), tuple(rays)))
    reference = next(point_tuples([t_points] * s, deg_dual), None)
    if reference is None:
        raise NotGorensteinError("deg_dual admits no decomposition into dual slice points")
    if len(set(reference)) != s:
        raise InternalError("decomposition summands are not pairwise distinct")

    groups = _split_by_faces(
        s_vertices, reference, "slice vertex not in exactly one reference slot"
    )
    if not all(groups):
        raise InternalError("reference summand supports no slice vertex")

    section = next(point_tuples(groups, deg), None)
    if section is None:
        s_points = lattice_points(Polytope(lattice, tuple(s_vertices)))
        point_groups = [[v for v in s_points if dot(v, e) == 1] for e in reference]
        section = next(point_tuples(point_groups, deg), None)
    if section is None:
        raise NotGorensteinError(
            "no lattice section of deg: the cone is not of nef-partition type "
            "for the reference decomposition"
        )

    ann_basis = kernel_basis(IntMatrix(tuple(reference)))
    d = ann_basis.rows
    if d != n - s:
        raise InternalError("annihilator lattice has unexpected rank")
    ann_solver = RowSolver(ann_basis)
    part_polys = []
    for i, group in enumerate(groups):
        verts = []
        for v in group:
            z = ann_solver.solve(vsub(v, section[i]))
            if z is None:
                raise InternalError("slice vertex left the annihilator lattice")
            verts.append(z)
        # an affine unimodular image of the vertices of the face S_i
        part_polys.append(Polytope(LatticeEmbedding.full(d), tuple(sorted(verts))))
    to_root = IntMatrix(tuple(list(section) + list(ann_basis.data)))
    if adjugate(to_root)[0] not in (1, -1):
        raise InternalError("section and annihilator basis do not form a lattice basis")
    # K-dual in split coordinates: w_split = to_root . w_root, a unimodular
    # map, so the rays stay primitive
    split_rays = sorted(tuple(dot(row, w) for row in to_root.data) for w in rays)
    np_new = validate_nef_partition(part_polys, split_rays)
    dual_np = dual_nef_partition(np_new)
    pair = build_cone(np_new, dual_np, to_root=to_root)
    info = {
        "reference_decomposition": tuple(reference),
        "section": tuple(section),
        "deg_root": deg,
        "deg_dual_root": deg_dual,
        "generator_count": len(gens),
        "s_vertex_count": len(s_vertices),
    }
    return pair, info


def _height_one_functional(vectors):
    """The integral ``x`` with ``<v, x> = 1`` for every v, or None.

    The vectors span the space, so the kernel of the rows ``(v, -1)`` is at
    most a line; being saturated, it is spanned by ``+-(x, 1)`` exactly when
    an integral x exists.
    """
    ker = kernel_basis(IntMatrix(tuple(tuple(v) + (-1,) for v in vectors)))
    if ker.rows != 1 or ker.data[0][-1] not in (1, -1):
        return None
    return tuple(ker.data[0][-1] * x for x in ker.data[0][:-1])

