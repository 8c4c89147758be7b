"""Slow independent oracles that the tests compare the library against,
and helpers that only the tests use."""

import itertools
from fractions import Fraction
from math import gcd

from doublemirror.bridge import make_decomposition
from doublemirror.canned import product_projective
from doublemirror.cones import verify_reflexive_gorenstein_data
from doublemirror.dd import extreme_rays
from doublemirror.errors import InputError
from doublemirror.evidence import _log_jacobian
from doublemirror.intmat import IntMatrix, vadd
from doublemirror.lattices import LatticeEmbedding
from doublemirror.laurent import LaurentPoly
from doublemirror.polytope import Polytope, hull_vertices


def product_projective_lattice(n: int, t: int):
    """The (n, t) example's lattice embedding and cone data in basis coordinates."""
    data = product_projective(n, t)
    lattice = LatticeEmbedding.from_kernel(IntMatrix(tuple(data["equations"])))
    gens = [lattice.to_coords(g) for g in data["generators"]]
    deg = lattice.to_coords(data["deg"])
    deg_dual = lattice.dual().to_coords(data["deg_dual"])
    return lattice, sorted(gens), deg, deg_dual


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
    passes = sum(_log_jacobian(equations, x, p)[1] for x in points)
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
