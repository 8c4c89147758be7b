"""Slow independent oracles that the tests compare the library against,
and helpers that only the tests use."""

import itertools
from collections import namedtuple
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from pathlib import Path

from doublemirror.bridge import make_decomposition
from doublemirror.canned import product_projective
from doublemirror.dd import extreme_rays
from doublemirror.errors import InputError, InternalError, LowerDimensionalError
from doublemirror.evidence import _log_jacobian
from doublemirror.instances import loads, parse_instance
from doublemirror.intmat import (
    adjugate,
    dot,
    forward_substitute,
    hnf,
    identity,
    independent_rows,
    kernel_basis,
    matmul,
    transpose,
    vneg,
    vprimitive,
)
from doublemirror.lattices import LatticeEmbedding
from doublemirror.laurent import LaurentPoly, TermTable
from doublemirror.nefpart import validate_nef_partition as _validate_with_rays
from doublemirror.polytope import cayley_dual_rays, sum_from_cayley_rays


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


def saturation(b):
    """HNF-canonical basis of the saturation of the row span of ``b``.

    The saturation is the kernel of the kernel; dependent rows give a basis
    of the span's rank.
    """
    if not b:
        return ()
    kernel = kernel_basis(b)
    return kernel_basis(kernel) if kernel else identity(len(b[0]))


def affine_basis(points):
    """Base point plus an integer basis of the saturated direction lattice.

    Returns ``(x0, W)`` where ``W`` is a matrix whose rows span the
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
        return x0, ()
    w = saturation(dir_rows)
    return ((0,) * len(x0) if len(w) == len(x0) else x0), w


def _to_affine_coords(points, x0, w):
    """Coordinates ``z`` with ``p = x0 + z.W`` for each point, exact.

    ``W`` is a saturated row HNF (as from ``affine_basis``), so once the
    differences are scaled by the common denominator ``den`` the coordinates
    are integers, found by forward substitution; a point off the affine hull
    raises ``InternalError``.
    """
    den = lcm(*(x.denominator for p in points for x in p), *(x.denominator for x in x0))
    x0s = [x * den for x in x0]
    pivots = [next(j for j, x in enumerate(row) if x) for row in w]
    coords = []
    for p in points:
        z, r = forward_substitute(w, pivots, [int(a * den - b) for a, b in zip(p, x0s)])
        if any(r):
            raise InternalError("point left its own affine hull")
        coords.append(tuple(_quo(q, den) for q in z))
    return coords


def _from_affine_coords(z, x0, w):
    return tuple(
        _exact(x0[j] + sum(zi * w[i][j] for i, zi in enumerate(z)))
        for j in range(len(x0))
    )


def _facets_fulldim(points):
    """Facets of a full-dimensional point set, via double description."""
    rays = extreme_rays([_scale_to_int((1,) + tuple(p)) for p in points])
    return sorted((ray[1:], ray[0]) for ray in rays if any(ray[1:]))


def _vertices_from_facets(facets, dim):
    """Vertex enumeration of a bounded H-polytope, rational vertices included."""
    rays = extreme_rays([(off,) + tuple(normal) for normal, off in facets] + [(1,) + (0,) * dim])
    if any(ray[0] == 0 for ray in rays):
        raise ValueError("polyhedron has a nonzero recession ray")
    return sorted({tuple(_quo(x, ray[0]) for x in ray[1:]) for ray in rays})


def hull_vertices(points):
    """Extreme points of a finite rational point set, any dimension: two
    double descriptions over the coordinates of its affine hull."""
    pts = sorted(set(_exact_tuple(p) for p in points))
    if not pts:
        raise InputError("empty point set")
    if len(pts) == 1:
        return tuple(pts)
    x0, w = affine_basis(pts)
    if not w:
        return (pts[0],)
    facets = _facets_fulldim(_to_affine_coords(pts, x0, w))
    z_vertices = _vertices_from_facets(facets, len(w))
    return tuple(sorted(_from_affine_coords(z, x0, w) for z in z_vertices))


def validate_nef_partition(parts):
    """The library's validation, with the Cayley rays computed from the
    parts' vertices."""
    return _validate_with_rays(parts, cayley_dual_rays(parts))


def dual_instance(report):
    """``nefdual``'s dual parts as a ``nef_partition`` instance over the full
    lattice of their rank."""
    parts = report["result"]["dual_parts"]
    return {"lattice": {"ambient_rank": len(parts[0][0]), "kind": "full"}, "nef_partition": parts}


def lattice_enclosure(vertices):
    """Integral points whose hull holds the hull of the vertices, as
    ``lattice_points`` takes them: the vertices when they are integral,
    else the corners of their bounding box, rounded outward."""
    if all(x.denominator == 1 for v in vertices for x in v):
        return vertices
    box = [(floor(min(c)), ceil(max(c))) for c in zip(*vertices)]
    return list(itertools.product(*box))


def product_projective_lattice(n: int, t: int):
    """The (n, t) example's lattice embedding, as the parser builds it."""
    return LatticeEmbedding.from_kernel(tuple(product_projective(n, t)["equations"]))


def product_projective_cone(n: int, t: int):
    """The (n, t) example's cone data in basis coordinates, as ``normalize_cone``
    takes it: ``(rank, generators, deg, deg_dual)``."""
    data = product_projective(n, t)
    lattice = product_projective_lattice(n, t)
    gens = [lattice.to_coords(g) for g in data["generators"]]
    deg = lattice.to_coords(data["deg"])
    deg_dual = lattice.dual().to_coords(data["deg_dual"])
    return lattice.rank, sorted(gens), deg, deg_dual


def cone_inputs():
    """``(label, rank, generators, deg, deg_dual)`` of the cone inputs the
    differential tests walk: the pp33 and pp53 goldens, then product-projective
    (n, t) for 2 <= n <= 5 and 2 <= t <= 3."""
    inputs = []
    for name in ("pp33", "pp53"):
        path = Path(__file__).parent / "golden" / f"{name}.json"
        inst = parse_instance(loads(path.read_text(encoding="utf-8")))
        inputs.append((f"golden-{name}", inst.lattice.rank, inst.cone_generators,
                       inst.cone_deg, inst.cone_deg_dual))
    for n in range(2, 6):
        for t in (2, 3):
            inputs.append((f"pp{n}{t}", *product_projective_cone(n, t)))
    return inputs


def projective_space_parts(sizes):
    """The nef-partition conv(0, E_i) of P^n, n = sum(sizes) - 1, where
    E_1, ..., E_s split the fan vertices e_1, ..., e_n, -(e_1 + ... + e_n)
    into consecutive blocks of the given sizes."""
    n = sum(sizes) - 1
    rays = list(identity(n)) + [(-1,) * n]
    parts, start = [], 0
    for size in sizes:
        parts.append(hull_vertices([(0,) * n] + rays[start:start + size]))
        start += size
    return parts


def box_scan_lattice_points(vertices):
    """Lattice points of the hull of rational vertices, by scanning their
    bounding box: a point is kept when it is an affine combination of the
    vertices with weights >= 0 on some affinely independent subset
    (Caratheodory), solved in ``Fraction`` arithmetic."""
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    k = rational_rank([tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]])
    solvers = [_row_reducer([tuple(v[r] for v in simplex) for r in range(len(verts[0]))]
                            + [(1,) * (k + 1)])
               for simplex in itertools.combinations(verts, k + 1)]
    solvers = [(t, rank) for t, rank in solvers if rank == k + 1]

    def inside(x):
        rhs = tuple(x) + (1,)
        for t, rank in solvers:
            b = [sum(a * c for a, c in zip(row, rhs)) for row in t]
            if not any(b[rank:]) and min(b[:rank]) >= 0:
                return True
        return False

    box = [range(ceil(min(v[j] for v in verts)), floor(max(v[j] for v in verts)) + 1)
           for j in range(len(verts[0]))]
    return [x for x in itertools.product(*box) if inside(x)]


def affine_dim(p):
    """The dimension of a polytope's affine hull."""
    return len(affine_basis(p)[1])


def facets(p):
    """The facets of a polytope over the coordinates z of its affine hull,
    ``x = x0 + z.W`` (the ambient ones when it is full-dimensional)."""
    return _facets_fulldim(_to_affine_coords(p, *affine_basis(p)))


def polytope_contains(p, point):
    """Exact membership in a polytope of any dimension: the point lies on
    the affine hull, and its coordinates there meet every facet."""
    try:
        z = _to_affine_coords([tuple(point)], *affine_basis(p))[0]
    except InternalError:
        return False
    return all(sum(c * x for c, x in zip(normal, z)) >= -off for normal, off in facets(p))


class OriginNotInteriorError(InputError):
    """The origin is not strictly interior to the polytope."""


def dual_polytope(p):
    """Polar dual ``{y : <x, y> >= -1 for all x in p}``.

    Requires the origin strictly interior (hence ``p`` full-dimensional).
    """
    if affine_dim(p) != len(p[0]):
        raise OriginNotInteriorError("polytope is not full-dimensional")
    halfspaces = facets(p)
    if any(off <= 0 for _, off in halfspaces):
        raise OriginNotInteriorError("origin is not strictly interior")
    return tuple(sorted(tuple(_quo(c, off) for c in normal) for normal, off in halfspaces))


ReflexivityCertificate = namedtuple(
    "ReflexivityCertificate", "is_reflexive dual_vertices witness interior_witness"
)


def is_reflexive(p):
    """Reflexivity certificate: origin interior and all dual vertices integral,
    else the first rational dual vertex as the witness."""
    try:
        dual = dual_polytope(p)
    except OriginNotInteriorError:
        return ReflexivityCertificate(False, None, None, interior_witness=False)
    if any(x.denominator != 1 for v in p for x in v):
        return ReflexivityCertificate(False, None, None, interior_witness=True)
    for v in dual:
        if any(x.denominator != 1 for x in v):
            return ReflexivityCertificate(False, None, witness=v, interior_witness=True)
    return ReflexivityCertificate(True, dual, None, interior_witness=True)


def ambient_inequalities(p):
    """An H-description of a polytope in ambient coordinates, as
    ``lattice_points`` takes it.

    The facets over the affine hull ``x = x0 + z.W`` are pulled back through
    ``z = (x - x0)[pivots] . W[:, pivots]^-1``, W being a row HNF, and each
    equation ``<c, x> = <c, x0>`` of the hull, c in the kernel of W, enters
    as a pair of opposite inequalities.  Each row ``(normal ; offset)`` is
    scaled to integers.
    """
    x0, w = affine_basis(p)
    rows = []
    if w:
        pivots = [next(j for j, x in enumerate(row) if x) for row in w]
        det, adj = adjugate(tuple(tuple(row[j] for j in pivots) for row in w))
        for normal, off in facets(p):
            ambient = [0] * len(x0)
            for j, row in zip(pivots, adj):
                ambient[j] = Fraction(dot(row, normal), det)
            rows.append(ambient + [off - dot(ambient, x0)])
    for c in kernel_basis(w) if w else identity(len(x0)):
        rows.append(list(c) + [-dot(c, x0)])
        rows.append([-x for x in c] + [dot(c, x0)])
    scaled = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        ints = [int(x * den) for x in row]
        scaled.append((tuple(ints[:-1]), ints[-1]))
    return scaled


def _row_reducer(rows):
    """``(T, rank)`` with ``T . A`` the reduced row echelon form of A, whose
    pivots are the first ``rank`` columns when A has independent columns: then
    ``A lam = b`` is solvable iff ``(T b)[rank:]`` is zero, and
    ``lam = (T b)[:rank]``."""
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(len(rows))]
         for i, row in enumerate(rows)]
    cols = len(rows[0])
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row[cols:] for row in m], r


def integral_preimage_lattice(num, den: int):
    """Basis of ``{c : c * num / den  is an integer vector}``.

    ``num`` is ``k x n`` integral and ``den`` a positive integer; the result
    rows form an HNF-canonical basis of the finite-index sublattice of Z^k.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    k = len(num)
    if den == 1 or k == 0:
        return identity(k)
    # c * num = den * y for an integer y  <=>  (c, -y) . [num ; den I] = 0,
    # and c = 0 forces y = 0: c runs over the kernel's first k coordinates
    n = len(num[0])
    stacked = tuple(num) + tuple(tuple(den * (i == j) for j in range(n)) for i in range(n))
    rows = tuple(row[:k] for row in kernel_basis(transpose(stacked)))
    canon, _ = hnf(rows, transform=False)
    return canon


def m_level_complement(v_mprime, n_prime_basis):
    """``(coords, rows)``: L = span(v) meet M through a rational preimage lattice.

    ``v_mprime`` holds the M' parts of the spanning vectors.  A combination c
    lands in M exactly when c . v_mprime . B^-T is integral, B the N' basis:
    c runs over the preimage lattice of ``num / det`` with ``num`` the product
    with the adjugate of B^T, and its M rows are ``c . num / det``.
    """
    if not v_mprime:
        return (), ()
    det, adj = adjugate(transpose(n_prime_basis))
    num = matmul(v_mprime, adj)
    if det < 0:
        det, num = -det, tuple(vneg(row) for row in num)
    coords = integral_preimage_lattice(num, det)
    rows = []
    for combo in matmul(coords, num):
        assert all(x % det == 0 for x in combo), "L combination failed to be integral"
        rows.append(tuple(x // det for x in combo))
    return coords, tuple(rows)


def mul_vec(a, v):
    """The matrix-vector product ``a . v``."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("dimension mismatch")
    return tuple(dot(row, v) for row in a)


def leibniz_det(rows):
    """Determinant of a square matrix by the permutation-sum definition."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = _perm_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def is_unimodular(a):
    return all(len(row) == len(a) for row in a) and leibniz_det(a) in (1, -1)


def rational_rank(rows):
    """Rank over Q by Gauss-Jordan elimination on ``Fraction`` entries."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def max_minor_gcd(rows):
    """gcd of the k x k minors of k rows: the index of their span in its saturation."""
    k = len(rows)
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), k):
        g = gcd(g, leibniz_det([[row[j] for j in cols] for row in rows]))
    return g


def one_block_decomposition(w):
    """The decomposition ``(-sum W, W_1, ..., W_k)``: for independent rows W,
    one block whose non-leading vectors are W, in order."""
    return make_decomposition((tuple(-sum(col) for col in zip(*w)),) + tuple(w))


def delta_regularity_probe(bridge, points, prime, side="e"):
    """Fraction of points where the logarithmic Jacobian has full rank s."""
    p = int(prime)
    equations = bridge.equations_e if side == "e" else bridge.equations_etilde
    passes = sum(_log_jacobian(TermTable(equations), x, p)[1] for x in points)
    return Fraction(passes, len(points)) if points else None


def verify_reflexive_gorenstein_data(k_generators, k_dual_generators, deg, deg_dual):
    """Both Gorenstein conditions plus interiority of the degree elements,
    by pairing every generator of K with every generator of K-dual.

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


def verify_reflexive_gorenstein(pair):
    """The reflexive Gorenstein conditions, checked on a built pair."""
    return verify_reflexive_gorenstein_data(
        pair.k_generators, pair.k_dual_generators, pair.deg, pair.deg_dual
    )


def greedy_independent_subset(constraints, n):
    """Indices of up to ``n`` independent constraints, greedily by full rank recomputation."""
    chosen = []
    rows = []
    for idx, c in enumerate(constraints):
        if rational_rank(rows + [tuple(c)]) == len(rows) + 1:
            rows.append(tuple(c))
            chosen.append(idx)
            if len(chosen) == n:
                break
    return chosen


def pairwise_minkowski_sum(polys):
    """Minkowski sum as the hull of all pairwise vertex sums, one part at a time.

    Works in any dimension, including sums that are not full-dimensional.
    """
    total = polys[0]
    for q in polys[1:]:
        candidates = [tuple(a + b for a, b in zip(u, v)) for u, v in itertools.product(total, q)]
        total = hull_vertices(candidates)
    return total


def facet_enumeration(vertices):
    """Irredundant facets of a full-dimensional vertex set.

    Raises ``LowerDimensionalError`` (carrying the affine hull dimension)
    when the points do not span the ambient space.
    """
    pts = [tuple(Fraction(x) for x in p) for p in vertices]
    if not pts:
        raise InputError("empty vertex set")
    _, w = affine_basis(pts)
    if len(w) < len(pts[0]):
        raise LowerDimensionalError(
            f"polytope has affine dimension {len(w)} < {len(pts[0])}", affine_dim=len(w)
        )
    return _facets_fulldim(pts)


def generator_hull(generators):
    """The vertices of the slice S of a cone: the hull of its generators."""
    return tuple(tuple(int(x) for x in v) for v in hull_vertices(generators))


def halfspace_dual_parts(np_):
    """Vertices of each dual part ``nabla_j = {y : <x, y> >= -delta_ij on part i}``,
    one halfspace vertex enumeration per part."""
    duals = []
    for j in range(len(np_.parts)):
        halfspaces = {
            (tuple(int(x) for x in v), int(i == j))
            for i, part in enumerate(np_.parts) for v in part if any(v)
        }
        duals.append(tuple(_vertices_from_facets(sorted(halfspaces), len(np_.parts[0][0]))))
    return duals


def pairing_minima(np_, w):
    """``m_i = -min over the vertices of part i of <x, w>``."""
    w = tuple(w)
    return tuple(
        -min(sum(int(x) * y for x, y in zip(v, w)) for v in part)
        for part in np_.parts
    )


def minima_dual_generators(np_):
    """Generators of K-dual from the dual of the sum: ``(m ; w)`` with m the
    pairing minima at each vertex w of dual(sum), plus the unit summands."""
    s, d = len(np_.parts), len(np_.parts[0][0])
    total = sum_from_cayley_rays(np_.parts, np_.cayley_rays)
    gens = {tuple(pairing_minima(np_, w)) + tuple(w) for w in dual_polytope(total)}
    gens.update(tuple(int(k == i) for k in range(s)) + (0,) * d for i in range(s))
    return tuple(sorted(gens))


def brute_force_point_tuples(groups, target):
    """Every tuple of one point per group adding up to ``target``, sorted."""
    target = tuple(target)
    return sorted(
        combo for combo in itertools.product(*groups)
        if tuple(sum(xs) for xs in zip(*combo)) == target
    )


def cone_contains(point, generators):
    """Exact membership of a rational point in the cone over ``generators``."""
    facets = extreme_rays(generators)
    return all(sum(f * p for f, p in zip(facet, point)) >= 0 for facet in facets)


def kernel_column_block_partition(p_vectors):
    """Finest zero-sum block partition via kernel-column equivalence.

    Indices share a block exactly when their columns agree across a basis of
    ``{a : sum a_i p_i = 0}``; the block indicator vectors form a
    disjoint-support basis of that kernel for decomposition inputs.
    """
    p_vectors = [tuple(int(x) for x in p) for p in p_vectors]
    s = len(p_vectors)
    basis = kernel_basis(transpose(p_vectors))
    columns = [tuple(row[i] for row in basis) for i in range(s)]
    groups = {}
    for i, col in enumerate(columns):
        groups.setdefault(col, []).append(i)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
    return tuple(blocks)


def laurent_add(f, g):
    """The sum of two Laurent polynomials over one ring, term by term."""
    if f.rank != g.rank or f.domain != g.domain:
        raise InputError("polynomials live in different rings")
    acc = dict(f.terms)
    for exp, c in g.terms:
        acc[exp] = acc.get(exp, 0) + c
    return LaurentPoly.from_dict(f.rank, acc, f.domain)


def laurent_shift(f, exp):
    """``X**exp * f``."""
    return LaurentPoly.from_dict(
        f.rank, {tuple(a + b for a, b in zip(e, exp)): c for e, c in f.terms}, f.domain
    )


def to_mbar_prime(skeleton, f):
    """A polynomial in Ann(e, e~) exponents, read over the skeleton's Mbar'
    coordinates (a ; m . B^T): an exponent a is the point (0 ; a . Ann)."""
    s, ann, basis = skeleton.pair.s, skeleton.ann_basis, skeleton.n_prime_basis
    terms = {}
    for exp, c in f.terms:
        m = [sum(a * row[col] for a, row in zip(exp, ann)) for col in range(skeleton.pair.d)]
        terms[(0,) * s + tuple(dot(m, b) for b in basis)] = c
    return LaurentPoly.from_dict(s + skeleton.pair.d, terms, f.domain)


def slice_polynomial(bridge, points):
    """The bridge's coefficients on slice points, in Mbar' exponents."""
    skeleton, pair = bridge.skeleton, bridge.pair
    basis = skeleton.n_prime_basis
    terms = {
        tuple(v[: pair.s]) + tuple(dot(v[pair.s :], b) for b in basis):
            bridge.coeffs.value(pair.point_to_root(v))
        for v in points
    }
    return LaurentPoly.from_dict(pair.s + pair.d, terms, bridge.coeffs.domain)


def bridge_identity_results(bridge):
    """``A_k . w_k = (X^{-u_ki} g_ki)^t`` and ``u_k . A_k = X^{-w_kj} g~_kj``
    on the built matrices, by the report's keys, summed as Laurent
    polynomials over Mbar'.  g_i is slot i's polynomial and g~_j that of the
    slice points pairing to 1 with e~_j."""
    skeleton, pair = bridge.skeleton, bridge.pair
    points = [v for slot in pair.slice_points() for v in slot]
    g = [slice_polynomial(bridge, slot) for slot in pair.slice_points()]
    gt = [
        slice_polynomial(bridge, [v for v in points if dot(v, e) == 1])
        for e in skeleton.dec_etilde.e_tilde()
    ]
    zero = LaurentPoly.from_dict(pair.s + pair.d, {}, bridge.coeffs.domain)
    results = {}
    for k, block in enumerate(skeleton.blocks):
        mat = [[to_mbar_prime(skeleton, f) for f in row] for row in bridge.matrices[k]]
        u = [skeleton.u_vectors[(k, pos)] for pos in range(len(block))]
        w = [(0,) * (pair.s + pair.d)]
        w += [skeleton.w_vectors[(k, pos)] for pos in range(1, len(block))]
        for pos, slot in enumerate(block):
            row = col = zero
            for other in range(len(block)):
                row = laurent_add(row, laurent_shift(mat[pos][other], w[other]))
                col = laurent_add(col, laurent_shift(mat[other][pos], u[other]))
            results[f"matrix_row_identity_{k}_{pos}"] = row == laurent_shift(g[slot], vneg(u[pos]))
            results[f"matrix_col_identity_{k}_{pos}"] = col == laurent_shift(gt[slot], vneg(w[pos]))
    return results


def laurent_mul(f, g):
    """The product of two Laurent polynomials over one ring, term by term."""
    if f.rank != g.rank or f.domain != g.domain:
        raise InputError("polynomials live in different rings")
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            exp = tuple(a + b for a, b in zip(e1, e2))
            acc[exp] = acc.get(exp, 0) + c1 * c2
    return LaurentPoly.from_dict(f.rank, acc, f.domain)


def laurent_scale(f, k):
    """``k * f`` for a scalar k of the polynomial's ring."""
    return LaurentPoly.from_dict(f.rank, {e: k * c for e, c in f.terms}, f.domain)


def det_permutation(matrix_rows, rank, domain):
    """Determinant by the permutation-sum definition."""
    n = len(matrix_rows)
    total = LaurentPoly.from_dict(rank, {}, domain)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = LaurentPoly.from_dict(rank, {(0,) * rank: sign}, domain)
        for i in range(n):
            term = laurent_mul(term, matrix_rows[i][perm[i]])
        total = laurent_add(total, term)
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def fp_evaluate(poly, point, p):
    """A Laurent polynomial over F_p at a torus point, term by term.

    Negative exponents go through Python's modular ``pow``, not through the
    library's monomial routine.
    """
    total = 0
    for exp, coeff in poly.terms:
        term = coeff
        for x, e in zip(point, exp):
            term = term * pow(x, e, p) % p
        total += term
    return total % p


def fp_log_gradient(poly, point, p):
    """``x_j d/dx_j`` of a polynomial over F_p, one coordinate at a time."""
    return [
        fp_evaluate(
            LaurentPoly.from_dict(poly.rank, {e: c * e[j] for e, c in poly.terms}, p),
            point,
            p,
        )
        for j in range(poly.rank)
    ]


def block_determinant(block, point, p):
    """det of a bridge matrix at a torus point: evaluate, then sum permutations."""
    return leibniz_det([[fp_evaluate(entry, point, p) for entry in row] for row in block]) % p


def poly_mulmod(a, b, f, p):
    """``a * b`` modulo the monic ``f`` over F_p, schoolbook product and division.

    Polynomials are ascending coefficient lists with no zero leading
    coefficient; with ``poly_powmod``, the reference for
    ``laurent.PackedResidues``.
    """
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i] % p
        for j in range(n + 1):
            prod[i - n + j] -= c * f[j]
    rem = [c % p for c in prod[:n]]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_powmod(base, e, f, p):
    """``base**e`` modulo the monic ``f`` by left-to-right square-and-multiply."""
    result = poly_mulmod([1], [1], f, p)
    for bit in bin(e)[2:]:
        result = poly_mulmod(result, result, f, p)
        if bit == "1":
            result = poly_mulmod(result, base, f, p)
    return result
