"""Slow independent oracles that the tests compare the library against,
and helpers that only the tests use."""

import itertools
from fractions import Fraction
from math import ceil, floor, gcd
from pathlib import Path

from doublemirror.bridge import make_decomposition
from doublemirror.canned import product_projective
from doublemirror.cones import verify_reflexive_gorenstein_data
from doublemirror.dd import extreme_rays
from doublemirror.errors import InputError, LowerDimensionalError
from doublemirror.evidence import _log_jacobian
from doublemirror.instances import loads, parse_instance
from doublemirror.intmat import IntMatrix, adjugate, hnf, kernel_basis, vadd
from doublemirror.lattices import LatticeEmbedding
from doublemirror.laurent import LaurentPoly, TermTable
from doublemirror.polytope import (
    Polytope, _facets_fulldim, _vertices_from_facets, affine_basis, dual_polytope, hull_vertices
)


def product_projective_lattice(n: int, t: int):
    """The (n, t) example's lattice embedding and cone data in basis coordinates."""
    data = product_projective(n, t)
    lattice = LatticeEmbedding.from_kernel(IntMatrix(tuple(data["equations"])))
    gens = [lattice.to_coords(g) for g in data["generators"]]
    deg = lattice.to_coords(data["deg"])
    deg_dual = lattice.dual().to_coords(data["deg_dual"])
    return lattice, sorted(gens), deg, deg_dual


def cone_inputs():
    """``(label, lattice, generators, deg, deg_dual)`` of the cone inputs the
    differential tests walk: the pp33 and pp53 goldens, then product-projective
    (n, t) for 2 <= n <= 5 and 2 <= t <= 3."""
    inputs = []
    for name in ("pp33", "pp53"):
        path = Path(__file__).parent / "golden" / f"{name}.json"
        inst = parse_instance(loads(path.read_text(encoding="utf-8")))
        inputs.append((f"golden-{name}", inst.lattice, inst.cone_generators,
                       inst.cone_deg, inst.cone_deg_dual))
    for n in range(2, 6):
        for t in (2, 3):
            inputs.append((f"pp{n}{t}", *product_projective_lattice(n, t)))
    return inputs


def projective_space_parts(sizes):
    """The nef-partition conv(0, E_i) of P^n, n = sum(sizes) - 1, where
    E_1, ..., E_s split the fan vertices e_1, ..., e_n, -(e_1 + ... + e_n)
    into consecutive blocks of the given sizes."""
    n = sum(sizes) - 1
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    lattice = LatticeEmbedding.full(n)
    parts, start = [], 0
    for size in sizes:
        parts.append(Polytope.from_points(lattice, [(0,) * n] + rays[start:start + size]))
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


def integral_preimage_lattice(num: IntMatrix, den: int) -> IntMatrix:
    """Basis of ``{c : c * num / den  is an integer vector}``.

    ``num`` is ``k x n`` integral and ``den`` a positive integer; the result
    rows form an HNF-canonical basis of the finite-index sublattice of Z^k.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    k = num.rows
    if den == 1 or k == 0:
        return IntMatrix.identity(k)
    # c * num = den * y for an integer y  <=>  (c, -y) . [num ; den I] = 0,
    # and c = 0 forces y = 0: c runs over the kernel's first k coordinates
    n = num.cols
    stacked = IntMatrix(num.data + tuple(tuple(den * (i == j) for j in range(n)) for i in range(n)))
    rows = tuple(row[:k] for row in kernel_basis(stacked.transpose()).data)
    canon, _ = hnf(IntMatrix(rows), transform=False)
    return canon


def m_level_complement(v_mprime: IntMatrix, n_prime_basis: IntMatrix):
    """``(coords, rows)``: L = span(v) meet M through a rational preimage lattice.

    ``v_mprime`` holds the M' parts of the spanning vectors.  A combination c
    lands in M exactly when c . v_mprime . B^-T is integral, B the N' basis:
    c runs over the preimage lattice of ``num / det`` with ``num`` the product
    with the adjugate of B^T, and its M rows are ``c . num / det``.
    """
    if v_mprime.rows == 0:
        return IntMatrix(()), ()
    det, adj = adjugate(n_prime_basis.transpose())
    num = v_mprime.mul(adj)
    if det < 0:
        det, num = -det, IntMatrix(tuple(tuple(-x for x in row) for row in num.data))
    coords = integral_preimage_lattice(num, det)
    rows = []
    for combo in coords.mul(num).data:
        assert all(x % det == 0 for x in combo), "L combination failed to be integral"
        rows.append(tuple(x // det for x in combo))
    return coords, tuple(rows)


def mul_vec(a: IntMatrix, v):
    """The matrix-vector product ``a . v``."""
    if a.cols != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.data)


def leibniz_det(rows):
    """Determinant of a square matrix by the permutation-sum definition."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = _perm_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def is_unimodular(a: IntMatrix):
    return a.rows == a.cols and leibniz_det(a.data) in (1, -1)


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


def verify_reflexive_gorenstein(pair):
    """The reflexive Gorenstein check of ``build_cone``, rerun on a built pair."""
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
        candidates = [
            tuple(a + b for a, b in zip(u, v))
            for u, v in itertools.product(total.vertices, q.vertices)
        ]
        total = Polytope(total.lattice, hull_vertices(candidates))
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
    if w.rows < len(pts[0]):
        raise LowerDimensionalError(
            f"polytope has affine dimension {w.rows} < {len(pts[0])}", affine_dim=w.rows
        )
    return _facets_fulldim(pts)


def generator_hull(generators):
    """The vertices of the slice S of a cone: the hull of its generators."""
    return tuple(tuple(int(x) for x in v) for v in hull_vertices(generators))


def halfspace_dual_parts(np_):
    """Vertices of each dual part ``nabla_j = {y : <x, y> >= -delta_ij on part i}``,
    one halfspace vertex enumeration per part."""
    duals = []
    for j in range(np_.length):
        halfspaces = {
            (tuple(int(x) for x in v), int(i == j))
            for i, part in enumerate(np_.parts) for v in part.vertices if any(v)
        }
        duals.append(tuple(_vertices_from_facets(sorted(halfspaces), np_.lattice.rank)))
    return duals


def pairing_minima(np_, w):
    """``m_i = -min over the vertices of part i of <x, w>``."""
    w = tuple(w)
    return tuple(
        -min(sum(int(x) * y for x, y in zip(v, w)) for v in part.vertices)
        for part in np_.parts
    )


def minima_dual_generators(np_):
    """Generators of K-dual from the dual of the sum: ``(m ; w)`` with m the
    pairing minima at each vertex w of dual(sum), plus the unit summands."""
    s, d = np_.length, np_.lattice.rank
    gens = {tuple(pairing_minima(np_, w)) + tuple(w) for w in dual_polytope(np_.sum).vertices}
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


def brute_force_block_partition(p_vectors):
    """Exponential oracle: repeatedly strip the smallest zero-sum subset."""
    p_vectors = [tuple(int(x) for x in p) for p in p_vectors]
    remaining = sorted(range(len(p_vectors)))
    blocks = []
    while remaining:
        found = None
        for size in range(1, len(remaining) + 1):
            for subset in itertools.combinations(remaining, size):
                total = p_vectors[subset[0]]
                for i in subset[1:]:
                    total = vadd(total, p_vectors[i])
                if all(x == 0 for x in total):
                    found = subset
                    break
            if found:
                break
        if found is None:
            raise InputError("indices do not sum to zero")
        blocks.append(tuple(found))
        remaining = [i for i in remaining if i not in set(found)]
    return tuple(sorted(blocks, key=lambda b: b[0]))


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
    total = LaurentPoly.zero(rank, domain)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = LaurentPoly.from_dict(rank, {(0,) * rank: sign}, domain)
        for i in range(n):
            term = laurent_mul(term, matrix_rows[i][perm[i]])
        total = total + term
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
