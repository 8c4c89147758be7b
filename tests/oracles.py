"""Slow independent oracles that the tests compare the library against."""

import itertools

from doublemirror.cones import verify_reflexive_gorenstein_data
from doublemirror.dd import extreme_rays
from doublemirror.errors import InputError
from doublemirror.intmat import vadd
from doublemirror.laurent import LaurentPoly


def verify_reflexive_gorenstein(pair):
    """The reflexive Gorenstein check of ``build_cone``, rerun on a built pair."""
    return verify_reflexive_gorenstein_data(
        pair.k_generators, pair.k_dual_generators, pair.deg, pair.deg_dual
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


def det_permutation(matrix_rows, rank, domain):
    """Determinant by the permutation-sum definition."""
    n = len(matrix_rows)
    total = LaurentPoly.zero(rank, domain)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = LaurentPoly.monomial(rank, (0,) * rank, sign, domain)
        for i in range(n):
            term = term * matrix_rows[i][perm[i]]
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
    """det of a bridge matrix at a torus point: evaluate, then eliminate."""
    from doublemirror.evidence import fp_echelon

    rows = [[fp_evaluate(entry, point, p) for entry in row] for row in block]
    return fp_echelon(rows, p, square=True)[1]
