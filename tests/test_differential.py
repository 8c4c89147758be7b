"""Differential tests against sympy on seeded random inputs.

The integer linear algebra (adjugate, HNF and the HNF row solver) is
compared with sympy's implementations, and the saturation and
preimage-lattice indices with sympy's Smith normal form; affine
coordinates and lattice points of small rational polytopes are compared
with exact sympy solves and a brute-force scan of the bounding box.  sympy
is only a test dependency: without it the whole module is skipped.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor, gcd, prod

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402

from doublemirror.bridge import skeleton_lattices  # noqa: E402
from doublemirror.errors import InternalError  # noqa: E402
from doublemirror.intmat import (  # noqa: E402
    RowSolver,
    adjugate,
    hnf,
    kernel_basis,
    matmul,
)
from doublemirror.polytope import lattice_points  # noqa: E402
from oracles import (  # noqa: E402
    _to_affine_coords,
    affine_basis,
    ambient_inequalities,
    hull_vertices,
    integral_preimage_lattice,
    lattice_enclosure,
    one_block_decomposition,
)
from test_intmat import is_row_hnf  # noqa: E402

SEEDS = range(8)


def random_matrix(rng, rows, cols, bound=6):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


def to_sympy(a):
    return sympy.Matrix(len(a), len(a[0]), [x for row in a for x in row])


def to_fraction(r):
    return Fraction(int(r.p), int(r.q))


@pytest.mark.parametrize("seed", SEEDS)
def test_det_and_adjugate(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 6)
        # a low bound makes singular matrices common enough to be covered
        a = random_matrix(rng, n, n, bound=rng.choice([1, 6]))
        expected_det = to_sympy(a).det()
        det, adj = adjugate(a)
        assert det == expected_det
        if det == 0:
            assert adj is None
            continue
        assert to_sympy(adj) == to_sympy(a).adjugate()
        scalar = tuple(tuple(det * (i == j) for j in range(n)) for i in range(n))
        assert matmul(a, adj) == scalar


@pytest.mark.parametrize("seed", SEEDS)
def test_hnf_with_and_without_transform(seed):
    rng = random.Random(seed)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        h, u = hnf(a)
        h_only, none = hnf(a, transform=False)
        assert none is None and h_only == h
        assert is_row_hnf(h)
        assert matmul(u, a) == h and to_sympy(u).det() in (1, -1)
        # same row lattice: sympy's (column-style) HNF of the transposes agrees
        nonzero = tuple(r for r in h if any(r))
        rank = to_sympy(a).rank()
        assert len(nonzero) == rank
        if rank:
            assert hermite_normal_form(to_sympy(a).T) == hermite_normal_form(to_sympy(nonzero).T)


@pytest.mark.parametrize("seed", SEEDS)
def test_snf(seed):
    # the lattice indices the library reads off HNFs and adjugates, against
    # sympy's Smith normal form: W of rank k has index d_1 ... d_k in its
    # saturation, and {c : c . W = 0 mod den} has index prod den / gcd(d_i, den)
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 5)
        w = random_matrix(rng, rng.randint(1, n), n)
        factors = [abs(int(x)) for x in invariant_factors(to_sympy(w), domain=sympy.ZZ)]
        factors += [0] * (len(w) - len(factors))
        den = rng.randint(1, 12)
        expected = 1
        for f in factors:
            expected *= den // gcd(f, den)
        assert abs(to_sympy(integral_preimage_lattice(w, den)).det()) == expected
        if rank_of(w) < len(w):
            continue
        basis, index, *_ = skeleton_lattices(one_block_decomposition(w), n)
        assert index == prod(factors) == abs(to_sympy(basis).det())


def rank_of(a):
    return to_sympy(a).rank() if a else 0


def random_combination(rng, a):
    x = tuple(rng.randint(-4, 4) for _ in range(len(a)))
    return x, matmul((x,), a)[0]


def in_row_lattice(a, b):
    """sympy: ``b`` is an integer combination of the rows of ``a``."""
    if rank_of(a) == 0:
        return not any(b)
    with_b = a + (tuple(b),)
    return hermite_normal_form(to_sympy(with_b).T) == hermite_normal_form(to_sympy(a).T)


def check_solution(a, b, z):
    assert z is not None and len(z) == len(a)
    assert matmul((z,), a)[0] == tuple(b)


@pytest.mark.parametrize("seed", SEEDS)
def test_row_solver_full_row_rank(seed):
    rng = random.Random(3000 + seed)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = random_matrix(rng, rng.randint(1, n), n)
        if rank_of(a) < len(a):
            continue
        solver = RowSolver(a)
        for _ in range(4):
            x, b = random_combination(rng, a)
            # full row rank: the solution is unique
            assert solver.solve(b) == x


@pytest.mark.parametrize("seed", SEEDS)
def test_row_solver_dependent_rows(seed):
    rng = random.Random(3100 + seed)
    for _ in range(25):
        base = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        extra = tuple(random_combination(rng, base)[1] for _ in range(rng.randint(1, 3)))
        a = base + extra
        assert rank_of(a) < len(a)
        solver = RowSolver(a)
        for _ in range(4):
            _, b = random_combination(rng, a)
            check_solution(a, b, solver.solve(b))


@pytest.mark.parametrize("seed", SEEDS)
def test_row_solver_rational_but_not_integral(seed):
    rng = random.Random(3200 + seed)
    checked = 0
    for _ in range(25):
        n = rng.randint(1, 5)
        r = random_matrix(rng, rng.randint(1, n), n)
        if rank_of(r) < len(r):
            continue
        # scaling row 0 by m leaves r_0 = (1/m) a_0 in the span over Q only
        m = rng.randint(2, 5)
        a = (tuple(m * x for x in r[0]),) + r[1:]
        _, c = random_combination(rng, a)
        b = tuple(x + y for x, y in zip(r[0], c))
        assert not in_row_lattice(a, b)
        assert RowSolver(a).solve(b) is None
        checked += 1
    assert checked


@pytest.mark.parametrize("seed", SEEDS)
def test_row_solver_matches_lattice_membership(seed):
    rng = random.Random(3300 + seed)
    outside = 0
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(1, 5), n, bound=rng.choice([1, 6]))
        solver = RowSolver(a)
        for _ in range(4):
            b = tuple(rng.randint(-6, 6) for _ in range(n))
            outside += rank_of(a + (b,)) > rank_of(a)
            z = solver.solve(b)
            if in_row_lattice(a, b):
                check_solution(a, b, z)
            else:
                assert z is None
    # b outside the rational span is among the cases
    assert outside


def random_rational_polytope(rng):
    """Vertices x0 + z.B: rational base point, integer B of rank k, rational z."""
    n = rng.randint(1, 3)
    k = rng.randint(0, n)
    while True:
        b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]
        if k == 0 or to_sympy(b).rank() == k:
            break
    x0 = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)]
    points = []
    for _ in range(k + 2):
        z = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(k)]
        points.append(tuple(x0[j] + sum(z[i] * b[i][j] for i in range(k)) for j in range(n)))
    return n, k, points


def _simplex_maps(vertices, k):
    """Exact left inverses of [v; 1] over every k-simplex among the vertices."""
    maps = []
    for simplex in itertools.combinations(vertices, k + 1):
        m = sympy.Matrix([list(v) + [1] for v in simplex]).T
        if m.rank() == k + 1:
            left = (m.T * m).inv() * m.T
            maps.append(
                (
                    [[to_fraction(x) for x in left.row(i)] for i in range(left.rows)],
                    [[to_fraction(x) for x in m.row(i)] for i in range(m.rows)],
                )
            )
    return maps


def _inside(x, maps):
    """Caratheodory: x lies in the hull iff it lies in one spanning simplex."""
    rhs = list(x) + [1]
    for left, m in maps:
        lam = [sum(a * b for a, b in zip(row, rhs)) for row in left]
        if min(lam) >= 0 and [sum(a * b for a, b in zip(row, lam)) for row in m] == rhs:
            return True
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_points_against_box_scan(seed):
    rng = random.Random(1000 + seed)
    for _ in range(6):
        n, k, points = random_rational_polytope(rng)
        p = hull_vertices(points)
        maps = _simplex_maps(p, k)
        box = [range(ceil(min(v[j] for v in points)), floor(max(v[j] for v in points)) + 1)
               for j in range(n)]
        expected = [x for x in itertools.product(*box) if _inside(x, maps)]
        # the library's polytopes are integral: a rational one enters
        # through an integral box around it and its exact inequalities
        assert lattice_points(lattice_enclosure(p), ambient_inequalities(p)) == expected
        assert all(type(x) is int for v in p for x in v if x.denominator == 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_affine_coords_against_sympy_solve(seed):
    rng = random.Random(2000 + seed)
    for _ in range(6):
        n, k, points = random_rational_polytope(rng)
        x0, w = affine_basis(points)
        coords = _to_affine_coords(points, x0, w)
        for pt, z in zip(points, coords):
            if k == 0:
                assert z == ()
                continue
            d = [Fraction(a - x) for a, x in zip(pt, x0)]
            d = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in d])
            sol, params = to_sympy(w).T.gauss_jordan_solve(d)
            assert params.shape[0] == 0
            assert list(z) == [to_fraction(x) for x in sol]
        if k < n:
            normal = kernel_basis(w)[0] if k else (1,) + (0,) * (n - 1)
            off_hull = tuple(a + b for a, b in zip(points[0], normal))
            with pytest.raises(InternalError, match="left its own affine hull"):
                _to_affine_coords([off_hull], x0, w)
