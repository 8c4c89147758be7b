"""Exact linear algebra: HNF, ranks, kernels, solving, and the saturation
oracle of ``tests/oracles.py``."""

import itertools
import random

from doublemirror.intmat import (
    RowSolver,
    dot,
    hnf,
    identity,
    independent_rows,
    kernel_basis,
    matmul,
    transpose,
    vprimitive,
)
from doublemirror.lattices import LatticeEmbedding
from oracles import (
    integral_preimage_lattice,
    is_unimodular,
    leibniz_det,
    max_minor_gcd,
    mul_vec,
    rational_rank,
    saturation,
)


def is_row_hnf(h) -> bool:
    """Canonical-form predicate for the row HNF convention."""
    pivots = []
    seen_zero = False
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False
        j = nz[0]
        if row[j] <= 0:
            return False
        if pivots and j <= pivots[-1][0]:
            return False
        pivots.append((j, row[j]))
    for rank, (j, p) in enumerate(pivots):
        for above in range(rank):
            if not (0 <= h[above][j] < p):
                return False
    return True


def same_row_span(a, b) -> bool:
    """Mutual integer membership of rows, checked by integer solving."""
    for row in a:
        if RowSolver(b).solve(row) is None:
            return False
    for row in b:
        if RowSolver(a).solve(row) is None:
            return False
    return True


def random_matrix(rng, max_dim=6, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m))


class TestHNF:
    def test_identity(self):
        ident = identity(2)
        h, u = hnf(ident)
        assert h == ident and u == ident

    def test_zero_row(self):
        a = ((0, 0),)
        h, u = hnf(a)
        assert h == a
        assert u == ((1,),)

    def test_canonical_2x2(self):
        a = ((2, 4), (1, 3))
        h, u = hnf(a)
        assert is_unimodular(u)
        assert matmul(u, a) == h
        assert is_row_hnf(h)
        # row span {(1,1),(0,2)} in canonical form
        assert h == ((1, 1), (0, 2))

    def test_random_properties(self):
        rng = random.Random(20240801)
        for _ in range(200):
            a = random_matrix(rng)
            h, u = hnf(a)
            assert is_unimodular(u)
            assert matmul(u, a) == h
            assert is_row_hnf(h)
            assert same_row_span(a, h)


class TestKernel:
    def test_zero_matrix(self):
        basis = kernel_basis(((0, 0, 0),))
        assert len(basis) == 3

    def test_identity(self):
        basis = kernel_basis(identity(3))
        assert len(basis) == 0

    def test_sum_functional(self):
        a = ((1, 1, 1),)
        basis = kernel_basis(a)
        assert len(basis) == 2
        for row in basis:
            assert sum(row) == 0
        # brute force: every small kernel vector is in the integer span
        solver = RowSolver(basis)
        for x in itertools.product(range(-2, 3), repeat=3):
            if sum(x) == 0:
                assert solver.solve(x) is not None

    def test_kernel_is_saturated(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_matrix(rng, max_dim=5, bound=5)
            basis = kernel_basis(a)
            for row in basis:
                assert all(x == 0 for x in mul_vec(a, row))
            if basis:
                assert max_minor_gcd(basis) == 1


class TestSaturate:
    def test_gcd_forced(self):
        assert saturation(((2, 0),)) == ((1, 0),)

    def test_already_saturated(self):
        assert saturation(identity(2)) == identity(2)

    def test_index_is_divisor_product(self):
        # b has elementary divisors 1 and 6: its coordinates over the
        # saturation have determinant 6, the gcd of its 2 x 2 minors
        b = ((2, 2), (0, 3))
        sat = saturation(b)
        coords = [RowSolver(sat).solve(row) for row in b]
        assert abs(leibniz_det(coords)) == max_minor_gcd(b) == 6

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            sat = saturation(random_matrix(rng, max_dim=4, bound=5))
            assert saturation(sat) == sat

    def test_dependent_rows(self):
        assert saturation(((1, 2), (2, 4))) == ((1, 2),)

    def test_random_properties(self):
        # spans the input over Q, contains it, and is saturated
        rng = random.Random(17)
        for _ in range(200):
            a = random_matrix(rng, max_dim=4, bound=6)
            sat = saturation(a)
            assert is_row_hnf(sat)
            assert len(sat) == rational_rank(a) == rational_rank(sat + a)
            solver = RowSolver(sat)
            assert all(solver.solve(row) is not None for row in a)
            if sat:
                assert max_minor_gcd(sat) == 1


class TestIndependentRows:
    def test_count_is_rational_rank(self):
        rng = random.Random(19)
        for _ in range(200):
            a = random_matrix(rng, bound=rng.choice([1, 9]))
            assert len(independent_rows(a, len(a[0]))) == rational_rank(a)

    def test_limit_stops_early(self):
        rows = [(1, 0, 0), (0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert independent_rows(rows, 3) == [0, 3, 4]
        assert independent_rows(rows, 2) == [0, 3]


class TestSolve:
    """``RowSolver(transpose(a))`` solves the column system ``a . x = b``."""

    def test_even(self):
        assert RowSolver(((2,),)).solve((4,)) == (2,)

    def test_odd_absent(self):
        assert RowSolver(((2,),)).solve((3,)) is None

    def test_substitution(self):
        a = ((1, 1), (0, 2))
        x = RowSolver(transpose(a)).solve((3, 4))
        assert x is not None
        assert mul_vec(a, x) == (3, 4)

    def test_random_substitution(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_matrix(rng, max_dim=5, bound=6)
            x0 = tuple(rng.randint(-5, 5) for _ in range(len(a[0])))
            b = mul_vec(a, x0)
            x = RowSolver(transpose(a)).solve(b)
            assert x is not None
            assert mul_vec(a, x) == b

    def test_empty_basis(self):
        solver = RowSolver(())
        assert solver.solve((0, 0)) == ()
        assert solver.solve((0, 1)) is None


class TestHelpers:
    def test_primitive(self):
        assert vprimitive((4, -6, 2)) == (2, -3, 1)
        assert vprimitive((0, 0)) == (0, 0)

    def test_integral_preimage(self):
        # {c : c * [[1,0],[0,1]] / 2 integral} = 2 Z^2
        lat = integral_preimage_lattice(identity(2), 2)
        assert lat == ((2, 0), (0, 2))
        # brute-force cross-check on a skew case
        num = ((1, 1), (0, 3))
        den = 6
        lat = integral_preimage_lattice(num, den)
        members = {
            c
            for c in itertools.product(range(-6, 7), repeat=2)
            if all((c[0] * num[0][j] + c[1] * num[1][j]) % den == 0 for j in range(2))
        }
        solver = RowSolver(lat)
        for c in members:
            assert solver.solve(c) is not None
        for row in lat:
            assert all(dot(row, col) % den == 0 for col in zip(*num))

    def test_integral_preimage_random(self):
        # against a scan of the box [-den, den]^k, which holds a basis
        rng = random.Random(23)
        for _ in range(60):
            k, n = rng.randint(1, 2), rng.randint(1, 3)
            num = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k))
            den = rng.randint(1, 6)
            lat = integral_preimage_lattice(num, den)
            assert is_row_hnf(lat) and len(lat) == k
            solver = RowSolver(lat)
            for c in itertools.product(range(-den, den + 1), repeat=k):
                member = all(dot(c, col) % den == 0 for col in zip(*num))
                assert (solver.solve(c) is not None) == member


class TestLattices:
    def test_kernel_presentation(self):
        eqs = ((1, 1, 1),)
        lat = LatticeEmbedding.from_kernel(eqs)
        assert lat.rank == 2
        for row in lat.basis:
            assert sum(row) == 0
        v = matmul(((2, -3),), lat.basis)[0]
        assert sum(v) == 0
        assert lat.to_coords(v) == (2, -3)

    def test_quotient_presentation(self):
        rels = ((1, 1, 1),)
        lat = LatticeEmbedding.from_quotient(rels)
        assert lat.rank == 2
        # relation representatives map to zero
        assert lat.to_coords((1, 1, 1)) == (0, 0)
        c1, c2 = lat.to_coords((1, 0, 0)), lat.to_coords((0, 1, 0))
        assert lat.to_coords((0, -1, -1)) == c1
        # [e1] and [e2] form a basis of the quotient
        assert abs(leibniz_det((c1, c2))) == 1

    def test_dual_pairing_gram(self):
        eqs = ((1, 1, 1, -1),)
        lat = LatticeEmbedding.from_kernel(eqs)
        # pairing in coordinates equals ambient pairing of representatives
        m = matmul(((1, 2, 0),), lat.basis)[0]
        n_amb = (5, -1, 2, 3)
        n_coords = lat.dual().to_coords(n_amb)
        assert dot((1, 2, 0), n_coords) == dot(m, n_amb)
