"""Polytope machinery: part vertices, Minkowski sums, lattice points, and
the hull and polar-duality oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from doublemirror.errors import InputError
from doublemirror.cones import normalize_cone
from doublemirror.polytope import (
    cayley_dual_rays,
    lattice_points,
    part_vertices,
    point_tuples,
    sum_facets,
    sum_from_cayley_rays,
)
from oracles import (
    OriginNotInteriorError,
    affine_dim,
    ambient_inequalities,
    box_scan_lattice_points,
    brute_force_point_tuples,
    dual_polytope,
    facet_enumeration,
    hull_vertices,
    is_reflexive,
    lattice_enclosure,
    pairwise_minkowski_sum,
    polytope_contains,
    product_projective_cone,
)


def points_of(p):
    """``lattice_points`` of a polytope, on its ambient H-description; a
    rational polytope enters through an integral box around it."""
    return lattice_points(lattice_enclosure(p), ambient_inequalities(p))


SEGMENT = [(-1,), (1,)]
SQUARE = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
SIMPLEX = [(-1, -1), (1, 0), (0, 1)]


def brute_force_facets_2d(vertices):
    """Exhaustive supporting-line oracle: test every line through vertex pairs."""
    facets = set()
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    for a, b in itertools.combinations(verts, 2):
        d = (b[0] - a[0], b[1] - a[1])
        normal = (-d[1], d[0])
        for sign in (1, -1):
            n = (sign * normal[0], sign * normal[1])
            vals = [n[0] * v[0] + n[1] * v[1] for v in verts]
            support = n[0] * a[0] + n[1] * a[1]
            if all(v >= support for v in vals) and sum(v == support for v in vals) >= 2:
                denom = 1
                for x in n + (support,):
                    denom = denom * Fraction(x).denominator
                ints = [int(Fraction(x) * denom) for x in n + (-support,)]
                g = 0
                for x in ints:
                    g = abs(x) if g == 0 else __import__("math").gcd(g, abs(x))
                facets.add((tuple(x // g for x in ints[:2]), ints[2] // g))
    return sorted(facets)


class TestFacetEnumeration:
    def test_segment(self):
        facets = facet_enumeration(SEGMENT)
        assert facets == [((-1,), 1), ((1,), 1)]

    def test_square(self):
        facets = facet_enumeration(SQUARE)
        assert facets == sorted(
            [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
        )

    def test_simplex_against_brute_force(self):
        facets = facet_enumeration(SIMPLEX)
        assert facets == brute_force_facets_2d(SIMPLEX)

    def test_random_2d_against_brute_force(self):
        rng = random.Random(4242)
        for _ in range(40):
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)]
            verts = hull_vertices(pts)
            if len(verts) < 3:
                continue
            assert facet_enumeration(verts) == brute_force_facets_2d(verts)

    def test_lower_dimensional_error(self):
        with pytest.raises(InputError, match=r"^polytope has affine dimension 1 < 2$"):
            facet_enumeration([(0, 0), (1, 1)])


class TestHull:
    def test_prunes_interior(self):
        verts = hull_vertices(SQUARE + [(0, 0), (1, 0)])
        assert set(verts) == {tuple(map(Fraction, v)) for v in SQUARE}

    def test_round_trip(self):
        # vertices of the H-representation equal the input vertex set
        for pts in (SEGMENT, SQUARE, SIMPLEX):
            p = hull_vertices(pts)
            again = hull_vertices(p)
            assert set(again) == set(p)

    def test_lower_dim_hull(self):
        verts = hull_vertices([(0, 0), (1, 1), (2, 2)])
        assert set(verts) == {(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))}


class TestDual:
    def test_segment_self_dual(self):
        p = hull_vertices(SEGMENT)
        d = dual_polytope(p)
        assert set(d) == set(p)

    def test_square_cross(self):
        p = hull_vertices(SQUARE)
        d = dual_polytope(p)
        assert set(d) == {
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        }

    def test_simplex(self):
        p = hull_vertices(SIMPLEX)
        d = dual_polytope(p)
        assert set(d) == {
            (Fraction(-1), Fraction(-1)),
            (Fraction(-1), Fraction(2)),
            (Fraction(2), Fraction(-1)),
        }

    def test_double_dual(self):
        for pts in (SEGMENT, SQUARE, SIMPLEX):
            p = hull_vertices(pts)
            dd = dual_polytope(dual_polytope(p))
            assert set(dd) == set(p)

    def test_origin_not_interior(self):
        with pytest.raises(OriginNotInteriorError):
            dual_polytope(hull_vertices([(0, 0), (1, 0), (0, 1)]))

    def test_order_reversal(self):
        # q inside p implies dual(p) inside dual(q), membership-checked on vertices
        p = hull_vertices(SQUARE)
        q = hull_vertices([(1, 0), (-1, 0), (0, 1), (0, -1)])
        dp, dq = dual_polytope(p), dual_polytope(q)
        for v in dp:
            assert polytope_contains(dq, v)


class TestReflexive:
    def test_square(self):
        cert = is_reflexive(hull_vertices(SQUARE))
        assert cert.is_reflexive and cert.interior_witness

    def test_flat_diamond_not_reflexive(self):
        cert = is_reflexive(hull_vertices([(2, 0), (-2, 0), (0, 1), (0, -1)]))
        assert not cert.is_reflexive
        assert cert.interior_witness
        assert cert.witness is not None
        assert any(x.denominator == 2 for x in cert.witness)

    def test_simplex(self):
        cert = is_reflexive(hull_vertices(SIMPLEX))
        assert cert.is_reflexive

    def test_no_interior(self):
        cert = is_reflexive(hull_vertices([(0, 0), (1, 0), (0, 1)]))
        assert not cert.is_reflexive and not cert.interior_witness


class TestLatticePoints:
    def test_square(self):
        pts = points_of(hull_vertices(SQUARE))
        assert len(pts) == 9

    def test_diagonal_segment(self):
        pts = points_of(hull_vertices([(0, 0), (2, 2)]))
        assert pts == [(0, 0), (1, 1), (2, 2)]

    def test_triangle(self):
        pts = points_of(hull_vertices([(0, 0), (1, 0), (0, 1)]))
        assert pts == [(0, 0), (0, 1), (1, 0)]

    def test_against_bounding_box_oracle(self):
        rng = random.Random(31415)
        for _ in range(25):
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
            p = hull_vertices(pts)
            got = points_of(p)
            lo = [min(int(v[j]) - 1 for v in p) for j in range(2)]
            hi = [max(int(v[j]) + 2 for v in p) for j in range(2)]
            expected = [
                x
                for x in itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1))
                if polytope_contains(p, x)
            ]
            assert got == sorted(expected)

    def test_rational_vertices(self):
        p = hull_vertices([(Fraction(-1, 2),), (Fraction(3, 2),)])
        assert points_of(p) == [(0,), (1,)]

    def test_no_lattice_points(self):
        p = hull_vertices([(Fraction(1, 3), 0), (Fraction(2, 3), 0)])
        assert points_of(p) == []


def seeded_polytope_points(rng, kind):
    """Points of a random polytope of the given kind: "full"-dimensional in
    Z^2 or Z^3, "lower"-dimensional through a lattice point, or with
    "rational" vertices on a lower-dimensional hull that holds lattice points
    away from its first vertex."""
    n = rng.randint(2, 3)
    if kind == "full":
        return [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 1 + rng.randint(0, 3))]
    base = tuple(rng.randint(-2, 2) for _ in range(n))
    dirs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
    if kind == "lower":
        weights = [[rng.randint(-2, 2) for _ in dirs] for _ in range(rng.randint(2, 5))]
    else:
        weights = [[Fraction(rng.randint(-7, 7), rng.choice((2, 3))) for _ in dirs]
                   for _ in range(rng.randint(2, 5))]
    return [tuple(b + sum(c * d[j] for c, d in zip(w, dirs)) for j, b in enumerate(base))
            for w in weights]


class TestLatticePointsAgainstBoxScan:
    @pytest.mark.parametrize("kind", ["full", "lower", "rational"])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_polytopes(self, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        for _ in range(5):
            pts = seeded_polytope_points(rng, kind)
            p = hull_vertices(pts)
            if kind == "full" and affine_dim(p) < len(pts[0]):
                continue
            assert points_of(p) == box_scan_lattice_points(p)


class TestPointTuples:
    def test_against_brute_force(self):
        rng = random.Random(2718)
        unsolvable = outside = 0
        for _ in range(300):
            dim = rng.randint(1, 3)
            # each group a point set, in random order
            groups = [
                list(dict.fromkeys(
                    tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 5))
                ))
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.5:
                target = tuple(sum(xs) for xs in zip(*(rng.choice(g) for g in groups)))
            else:
                target = tuple(rng.randint(-9, 9) for _ in range(dim))
            expected = brute_force_point_tuples(groups, target)
            assert list(point_tuples(groups, target)) == expected
            unsolvable += not expected
            outside += any(
                x < sum(min(p[j] for p in g) for g in groups)
                or x > sum(max(p[j] for p in g) for g in groups)
                for j, x in enumerate(target)
            )
        assert unsolvable > 50 and outside > 20

    def test_repeated_group_yields_non_decreasing_tuples(self):
        # a group that is the same object as the one before it resumes from
        # the previous choice, so a run of it gives each multiset once, sorted
        rng = random.Random(1618)
        unsolvable = 0
        for _ in range(200):
            dim, s = rng.randint(1, 3), rng.randint(2, 6)
            pts = list(dict.fromkeys(
                tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6 - s // 2))
            ))
            head = [[tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 3))]]
            head = head if rng.random() < 0.5 else []
            groups = head + [pts] * s
            if rng.random() < 0.5:
                target = tuple(sum(xs) for xs in zip(*(rng.choice(g) for g in groups)))
            else:
                target = tuple(rng.randint(-2 * s, 2 * s) for _ in range(dim))
            k = len(head)
            expected = [
                t for t in brute_force_point_tuples(groups, target)
                if all(a <= b for a, b in zip(t[k:], t[k + 1:]))
            ]
            assert list(point_tuples(groups, target)) == expected
            unsolvable += not expected
        assert unsolvable >= 50

    def test_lexicographic_order(self):
        groups = [[(1,), (0,), (2,)], [(0,), (-1,), (1,)]]
        assert list(point_tuples(groups, (1,))) == [((0,), (1,)), ((1,), (0,)), ((2,), (-1,))]

    def test_empty_group_gives_nothing(self):
        assert list(point_tuples([[(0, 0)], []], (0, 0))) == []


def _part_points(data, st, dim):
    """A random integral point set: the doubled points of a lattice polytope
    of dimension k <= dim, the midpoints of some pairs of them, which are
    no vertices unless the pair is one point twice, and some repeats."""
    coord = st.integers(-2, 2)
    k = data.draw(st.integers(0, dim))
    base = data.draw(st.tuples(*[coord] * dim))
    dirs = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=k, max_size=k))
    weights = data.draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=1, max_size=5))
    points = [tuple(2 * (b + sum(w * d[j] for w, d in zip(ws, dirs))) for j, b in enumerate(base))
              for ws in weights]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                               max_size=3))
    points += [tuple((a + b) // 2 for a, b in zip(p, q)) for p, q in pairs]
    points += data.draw(st.lists(st.sampled_from(points), max_size=2))
    return data.draw(st.permutations(points))


def test_part_vertices_match_the_oracle_hull():
    # the vertex rule against two double descriptions per part; keeping a
    # point whose tight normals have rank d - 1 keeps the midpoints of edges
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    checked = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.data())
    def check(data):
        dim = data.draw(st.integers(1, 4))
        point_sets = [_part_points(data, st, dim) for _ in range(data.draw(st.integers(1, 3)))]
        try:
            rays = cayley_dual_rays(point_sets)
        except InputError as exc:
            assert str(exc).startswith("Minkowski sum has dimension")
            hypothesis.assume(False)
        for i, points in enumerate(point_sets):
            assert part_vertices(points, rays, i) == hull_vertices(points), (point_sets, i)
        checked.append((dim, len(point_sets), any(len(set(p)) < len(p) for p in point_sets)))

    check()
    # every dimension and part count occurs, and repeated points
    assert {dim for dim, _, _ in checked} == {1, 2, 3, 4}
    assert {s for _, s, _ in checked} == {1, 2, 3}
    assert any(repeats for _, _, repeats in checked)
    assert len(checked) >= 100


class TestMinkowski:
    def test_cross_from_segments(self):
        a = hull_vertices([(-1, 0), (1, 0)])
        b = hull_vertices([(0, -1), (0, 1)])
        s = sum_from_cayley_rays([a, b], cayley_dual_rays([a, b]))
        assert set(s) == set(hull_vertices(SQUARE))

    def test_identity(self):
        p = hull_vertices(SIMPLEX)
        zero = hull_vertices([(0, 0)])
        total = sum_from_cayley_rays([p, zero], cayley_dual_rays([p, zero]))
        assert set(total) == set(p)

    def test_grid_membership_oracle(self):
        p = hull_vertices([(0, 0), (1, 0), (0, 1)])
        q = hull_vertices([(0, 0), (1, 0)])
        s = sum_from_cayley_rays([p, q], cayley_dual_rays([p, q]))
        for x in itertools.product(range(-1, 4), repeat=2):
            in_sum = any(
                polytope_contains(p, (Fraction(x[0]) - b[0], Fraction(x[1]) - b[1]))
                for b in [(0, 0), (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0))]
            )
            # exact test: x in p+q iff exists b in q with x-b in p; q is a segment,
            # so checking endpoints and midpoint suffices for this small case only
            # as a necessary condition; rely on full membership both ways:
            if polytope_contains(s, x):
                assert any(
                    polytope_contains(q, (Fraction(x[0]) - a[0], Fraction(x[1]) - a[1]))
                    for a in points_of(p)
                ) or in_sum
        # every vertex sum is inside
        for u in p:
            for v in q:
                assert polytope_contains(s, (u[0] + v[0], u[1] + v[1]))


def _random_parts(rng, dim, count, width=2):
    """Random point sets, repeated and interior points included."""
    return [
        [tuple(rng.randint(-width, width) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        for _ in range(count)
    ]


def _hulls(point_sets):
    return [hull_vertices(pts) for pts in point_sets]


def _assert_matches_oracle(point_sets):
    rays = cayley_dual_rays(point_sets)
    parts = _hulls(point_sets)
    # each part's vertices, read off the rays, against the oracle hull
    assert [part_vertices(pts, rays, i) for i, pts in enumerate(point_sets)] == [
        p for p in parts
    ]
    total = sum_from_cayley_rays(parts, rays)
    expected = pairwise_minkowski_sum(parts)
    assert total == expected
    # the facets the Cayley cone gives, against an enumeration of the
    # oracle's vertices
    assert sum_facets(len(parts), rays) == facet_enumeration(expected)


class TestMinkowskiCayley:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_full_dimensional_sums(self, seed):
        rng = random.Random(seed)
        dim, count = rng.randint(2, 4), rng.randint(2, 4)
        # every fourth case draws from a box twice as wide
        width = 4 if seed % 4 == 3 else 2
        point_sets = _random_parts(rng, dim, count, width)
        while affine_dim(pairwise_minkowski_sum(_hulls(point_sets))) < dim:
            point_sets = _random_parts(rng, dim, count, width)
        _assert_matches_oracle(point_sets)

    @pytest.mark.parametrize("n", [3, 5])
    def test_product_projective_parts(self, n):
        pair, _ = normalize_cone(*product_projective_cone(n, 3))
        _assert_matches_oracle([p for p in pair.parts.parts])

    @pytest.mark.parametrize("seed", range(20))
    def test_lower_dimensional_sum_raises(self, seed):
        rng = random.Random(1000 + seed)
        dim, count = rng.randint(2, 4), rng.randint(2, 4)
        # points in the first k coordinates, moved by a unimodular map so the
        # sum's span is no coordinate subspace
        k = rng.randint(0, dim - 1)
        shear = [[int(i == j) + (rng.randint(-1, 1) if i < j else 0) for j in range(dim)]
                 for i in range(dim)]
        point_sets = []
        for _ in range(count):
            pts = []
            for _ in range(rng.randint(1, 4)):
                z = [rng.randint(-2, 2) if i < k else 0 for i in range(dim)]
                pts.append(tuple(sum(z[i] * shear[i][j] for i in range(dim)) for j in range(dim)))
            point_sets.append(pts)
        expected = affine_dim(pairwise_minkowski_sum(_hulls(point_sets)))
        assert expected <= k < dim
        # the dimension is read from the message, the one place the error carries it
        with pytest.raises(InputError, match=rf"^Minkowski sum has dimension {expected} < {dim}$"):
            cayley_dual_rays(point_sets)
