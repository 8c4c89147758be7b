"""Gorenstein cone pairs, their normalization and renormalization."""

import inspect
import itertools
import random
from pathlib import Path

import pytest

from doublemirror import cones, nefpart, polytope
from doublemirror.bridge import bridge_skeleton, enumerate_decompositions
from doublemirror.canned import square_part, two_segment_parts
from doublemirror.cones import (
    GorensteinConePair,
    build_cone,
    normalize_cone,
    renormalize,
)
from doublemirror.dd import extreme_rays
from doublemirror.cli import _pair_from_instance, main
from doublemirror.errors import DecompositionError, InternalError, NotGorensteinError
from doublemirror.instances import build_partition, loads, parse_instance
from doublemirror.intmat import IntMatrix, dot, independent_rows, vadd
from doublemirror.lattices import LatticeEmbedding
from doublemirror.nefpart import NefPartition
from doublemirror.polytope import cayley_dual_rays
from oracles import (
    box_scan_lattice_points,
    cone_contains,
    cone_inputs,
    generator_hull,
    greedy_independent_subset,
    hull_vertices,
    minima_dual_generators,
    polytope_from_points,
    product_projective_lattice,
    validate_nef_partition,
    verify_reflexive_gorenstein,
    verify_reflexive_gorenstein_data,
)

Z2 = LatticeEmbedding.full(2)
CONE_INPUTS = cone_inputs()
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_PARTITIONS = ("square", "two-segment", "shifted-square", "shifted-two-segment")


def polys(lattice, vertex_lists):
    return [polytope_from_points(lattice, pts) for pts in vertex_lists]


@pytest.fixture(scope="module")
def two_segment_pair():
    np_ = validate_nef_partition(polys(Z2, two_segment_parts()))
    return build_cone(np_)


class TestBuildCone:
    def test_two_segment(self, two_segment_pair):
        pair = two_segment_pair
        assert pair.index == 2
        # spec's listed generating set spans the same cone as ours
        listed = [
            (1, 0, 1, 0),
            (1, 0, -1, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 1),
            (0, 1, 0, -1),
            (0, 1, 0, 0),
        ]
        assert set(pair.k_generators) <= set(listed)
        for g in listed:
            assert cone_contains(g, list(pair.k_generators))
        for g in pair.k_generators:
            assert cone_contains(g, listed)

    def test_length_one_square(self):
        np_ = validate_nef_partition(polys(Z2, square_part()))
        pair = build_cone(np_)
        assert pair.index == 1
        assert len(pair.k_generators) == 4

    def test_dual_generators_two_segment(self, two_segment_pair):
        expected = {
            (1, 0, 1, 0),
            (1, 0, -1, 0),
            (0, 1, 0, 1),
            (0, 1, 0, -1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        }
        assert set(two_segment_pair.k_dual_generators) == expected

    def test_dual_generators_square(self):
        np_ = validate_nef_partition(polys(Z2, square_part()))
        gens = build_cone(np_).k_dual_generators
        assert (1, 0, 0) in gens
        # cross-polytope vertices at first coordinate one
        assert set(gens) == {(1, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)}

    @pytest.mark.parametrize("label,lattice,gens,deg,deg_dual", CONE_INPUTS,
                             ids=[c[0] for c in CONE_INPUTS])
    def test_k_dual_generators_of_normalized_cones(self, label, lattice, gens, deg, deg_dual):
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        assert pair.k_dual_generators == minima_dual_generators(pair.parts)

    @pytest.mark.parametrize("name", GOLDEN_PARTITIONS)
    def test_k_dual_generators_of_golden_partitions(self, name):
        inst = parse_instance(loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
        np_, _ = build_partition(inst)
        assert build_cone(np_).k_dual_generators == minima_dual_generators(np_)

    def test_cross_generation(self, two_segment_pair):
        # the symmetric description (b ; sum b_i nabla_i) generates the same dual cone
        pair = two_segment_pair
        symmetric = []
        for j, nabla in enumerate(pair.dual_parts.parts):
            for w in nabla.vertices:
                symmetric.append(
                    tuple(1 if k == j else 0 for k in range(pair.s))
                    + tuple(int(x) for x in w)
                )
        for g in symmetric:
            assert cone_contains(g, list(pair.k_dual_generators))
        for g in pair.k_dual_generators:
            assert cone_contains(g, symmetric)


class TestVerify:
    def test_two_segment_true(self, two_segment_pair):
        assert verify_reflexive_gorenstein(two_segment_pair) == (True, 2)

    def test_non_reflexive_cone_false(self):
        # cone over the flat diamond: Gorenstein but not reflexive Gorenstein
        verts = [(2, 0), (-2, 0), (0, 1), (0, -1)]
        gens = [(1,) + v for v in verts]
        rays = extreme_rays(gens)
        deg_dual = (1, 0, 0)
        # rays are not all at height one against any integral deg
        ok, _ = verify_reflexive_gorenstein_data(gens, rays, (1, 0, 0), deg_dual)
        assert not ok


class TestConeToNefPartition:
    def test_trivial_decomposition_identity(self, two_segment_pair):
        pair = two_segment_pair
        e = [(1, 0, 0, 0), (0, 1, 0, 0)]
        np_new = renormalize(pair, e).parts
        for old, new in zip(pair.parts.parts, np_new.parts):
            assert set(old.vertices) == set(new.vertices)

    def test_bad_sum_rejected(self, two_segment_pair):
        with pytest.raises(DecompositionError):
            renormalize(two_segment_pair, [(1, 0, 0, 0), (1, 0, 0, 0)])

    def test_zero_summand_rejected(self, two_segment_pair):
        with pytest.raises(DecompositionError):
            renormalize(two_segment_pair, [(1, 1, 0, 0), (0, 0, 0, 0)])

    def test_outside_cone_rejected(self, two_segment_pair):
        with pytest.raises(DecompositionError):
            renormalize(two_segment_pair, [(2, 0, 3, 0), (-1, 1, -3, 0)])


def frame_rows(e_tilde, s, d):
    """Test oracle: the new basis vectors of ``renormalize`` in the old split
    coordinates, written out from the summands."""
    rows = [tuple(e[:s]) + (0,) * d for e in e_tilde]
    for j in range(d):
        a = tuple(-sum(e[s + j] * e[k] for e in e_tilde) for k in range(s))
        rows.append(a + tuple(int(k == j) for k in range(d)))
    return rows


RENORMALIZED = [(2, 2), (3, 3), (2, 3), (3, 2), (5, 3), "two-segment"]


class TestRenormalize:
    @pytest.mark.parametrize("case", RENORMALIZED, ids=str)
    def test_mapped_rays_match_a_fresh_double_description(self, case):
        # every decomposition in up to six summand orders, then a second
        # renormalization from each result by every decomposition, mapped into
        # the new frame: 220 renormalizations over the six cones
        if case == "two-segment":
            pair = build_cone(validate_nef_partition(polys(Z2, two_segment_parts())))
        else:
            pair, _ = normalize_cone(*product_projective_lattice(*case))
        s, d = pair.s, pair.d
        decs = [dec.e_tilde() for dec in enumerate_decompositions(pair)]
        direct = [renormalize(pair, e).parts.parts for e in decs]
        for e in decs:
            for order in itertools.islice(itertools.permutations(range(s)), 6):
                e_tilde = [e[i] for i in order]
                new = renormalize(pair, e_tilde)
                assert list(new.parts.cayley_rays) == cayley_dual_rays([p.vertices for p in new.parts.parts])
                frame = frame_rows(e_tilde, s, d)
                assert new.to_root == IntMatrix(tuple(frame)).mul(pair.to_root)
                for other, parts in zip(decs, direct):
                    mapped = [tuple(dot(r, y) for r in frame) for y in other]
                    again = renormalize(new, mapped)
                    assert list(again.parts.cayley_rays) == cayley_dual_rays([p.vertices for p in again.parts.parts])
                    assert [set(p.vertices) for p in again.parts.parts] == [
                        set(p.vertices) for p in parts
                    ]


@pytest.fixture(scope="module")
def projective_pairs():
    """Normalized (3,3) and (5,3) pairs with their decompositions."""
    result = {}
    for n, t in ((3, 3), (5, 3)):
        lattice, gens, deg, deg_dual = product_projective_lattice(n, t)
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        result[(n, t)] = (pair, enumerate_decompositions(pair))
    return result


def slot_point_hull(pair):
    """Test oracle: the hull of every slot point (delta_i ; v)."""
    pts = [pair.slot_point(i, v) for i, part in enumerate(pair.parts.parts) for v in part.vertices]
    return tuple(hull_vertices(pts))


class TestSliceVertices:
    def test_matches_hull_of_slot_points(self, two_segment_pair, projective_pairs):
        square = build_cone(validate_nef_partition(polys(Z2, square_part())))
        pairs = [two_segment_pair, square]
        for pair, decs in projective_pairs.values():
            pairs.append(pair)
            # the renormalized pairs of both nontrivial references
            pairs += [bridge_skeleton(pair, decs[i], decs[j]).pair for i, j in ((1, 2), (2, 0))]
        for pair in pairs:
            assert pair.s_vertices() == slot_point_hull(pair)

    @pytest.mark.parametrize("label,lattice,gens,deg,deg_dual", CONE_INPUTS,
                             ids=[c[0] for c in CONE_INPUTS])
    def test_normalized_s_vertices_match_generator_hull(self, label, lattice, gens, deg, deg_dual):
        # normalize_cone reads S off the rays of K-dual; the oracle hulls the generators
        pair, info = normalize_cone(lattice, gens, deg, deg_dual)
        expected = generator_hull(gens)
        assert tuple(sorted(pair.point_to_root(v) for v in pair.s_vertices())) == expected
        assert info["s_vertex_count"] == len(expected)

    def test_renormalization_takes_no_hull(self, projective_pairs):
        pair, decs = projective_pairs[(5, 3)]
        skeleton = bridge_skeleton(pair, decs[1], decs[2])
        assert skeleton.pair.parts.lattice.rank == pair.d
        # the library has no hull to take: the hull and its affine-hull
        # coordinates are test oracles
        for module in (polytope, cones, nefpart):
            for name in ("hull_vertices", "affine_basis", "_to_affine_coords",
                         "_from_affine_coords", "_facets_fulldim"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(polytope.Polytope, "from_points")
        assert not hasattr(polytope.Polytope, "is_lattice_polytope")
        assert "fractions" not in inspect.getsource(polytope)

    def test_vertex_on_two_faces_rejected(self, two_segment_pair, monkeypatch):
        vertices = GorensteinConePair.s_vertices
        # (1, 1 ; 0) pairs to 1 with both summands of the trivial decomposition
        monkeypatch.setattr(
            GorensteinConePair, "s_vertices", lambda pair: vertices(pair) + ((1, 1, 0, 0),)
        )
        with pytest.raises(InternalError, match="Conv of the new parts differs"):
            renormalize(two_segment_pair, [(1, 0, 0, 0), (0, 1, 0, 0)])


class TestImpliedChecks:
    """Corruptions that checks deleted as implied used to catch, each still
    rejected by a check that remains."""

    @pytest.mark.parametrize("ray", [(1, 1, 1, 0), (1, 0, 2, 0), (1, 0, 0, 1)])
    def test_build_cone_rejects_what_the_gorenstein_check_did(self, two_segment_pair, ray):
        # a Cayley ray of deg-height 2, one negative on the generator
        # (1, 0 ; -1, 0), and one whose minimum over part 1 is not -1
        np_ = two_segment_pair.parts
        rays = tuple(sorted(ray if r == (1, 0, 1, 0) else r for r in np_.cayley_rays))
        corrupted = NefPartition(np_.parts, rays)
        units = [(1, 0, 0, 0), (0, 1, 0, 0)]
        ok, _ = verify_reflexive_gorenstein_data(
            two_segment_pair.k_generators, sorted(set(rays).union(units)),
            two_segment_pair.deg, two_segment_pair.deg_dual,
        )
        assert not ok
        with pytest.raises(InternalError, match="dual Cayley ray|pairing minimum"):
            build_cone(corrupted)

    @pytest.mark.parametrize("e_tilde", [
        # the frame has slot block [[2, 0], [-1, 1]], of determinant 2
        [(2, 0, 0, 0), (-1, 1, 0, 0)],
        # deg-heights 0 and 2
        [(0, 0, 1, 0), (1, 1, -1, 0)],
    ])
    def test_renormalize_outside_the_dual_cone_still_rejected(
        self, two_segment_pair, e_tilde, monkeypatch
    ):
        # the dual cone check keeps the frame unimodular and every face
        # nonempty; without it the face split rejects these summands
        with pytest.raises(DecompositionError, match="not in the dual cone"):
            renormalize(two_segment_pair, e_tilde)
        monkeypatch.setattr(cones, "in_dual_cone", lambda pair, y: True)
        with pytest.raises(InternalError, match="Conv of the new parts differs"):
            renormalize(two_segment_pair, e_tilde)

    @staticmethod
    def _corrupt_reference(monkeypatch, corrupt):
        """Replace the first tuple ``normalize_cone`` gets from ``point_tuples``."""
        real = cones.point_tuples
        calls = []

        def patched(groups, target):
            calls.append(target)
            found = real(groups, target)
            if len(calls) == 1:
                yield corrupt(next(found))
            yield from found

        monkeypatch.setattr(cones, "point_tuples", patched)

    def test_repeated_reference_summand_rejected(self, monkeypatch):
        self._corrupt_reference(monkeypatch, lambda ref: (ref[0],) + ref[:-1])
        with pytest.raises(InternalError, match="slice vertex not in exactly one reference slot"):
            normalize_cone(*product_projective_lattice(3, 3))

    def test_reference_summand_on_no_vertex_rejected(self, monkeypatch):
        # 0 and e_1 + e_2 in place of e_1 and e_2: every vertex still pairs to
        # 1 with one summand, and no section exists
        self._corrupt_reference(monkeypatch, lambda ref: ((0,) * len(ref[0]), vadd(ref[0], ref[1]))
                                + ref[2:])
        with pytest.raises(NotGorensteinError, match="no lattice section"):
            normalize_cone(*product_projective_lattice(3, 3))

    @pytest.mark.parametrize("corrupt", ["doubled", "dropped"])
    def test_broken_annihilator_basis_gives_no_report(self, corrupt, monkeypatch, capsys):
        # the rank, lattice and basis checks of [section ; Ann] are implied by
        # kernel_basis spanning the saturated kernel; a kernel_basis that does
        # not leaves a slice vertex off the lattice, and the run exits 3
        real = cones.kernel_basis

        def broken(a):
            basis = real(a)
            if a.rows != 3:  # _height_one_functional, not the annihilator
                return basis
            rows = basis.data
            if corrupt == "doubled":
                return IntMatrix((tuple(2 * x for x in rows[0]),) + rows[1:])
            return IntMatrix(rows[1:])

        monkeypatch.setattr(cones, "kernel_basis", broken)
        monkeypatch.chdir(GOLDEN)
        assert main(["cone", "pp33.json"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error")


class TestNormalizeCone:
    @pytest.mark.parametrize("n,t,rank,gens", [(2, 2, 3, 4), (3, 3, 7, 27)])
    def test_product_projective(self, n, t, rank, gens):
        lattice, gvecs, deg, deg_dual = product_projective_lattice(n, t)
        assert lattice.rank == rank
        assert len(gvecs) == gens
        pair, info = normalize_cone(lattice, gvecs, deg, deg_dual)
        assert verify_reflexive_gorenstein(pair) == (True, n)
        assert pair.d == (n - 1) * (t - 1)
        assert info["generator_count"] == gens
        # the coordinate change sends the slot points back into the cone slice
        for i in range(pair.s):
            root = pair.point_to_root(pair.slot_point(i, (0,) * pair.d))
            assert dot(root, deg_dual) == 1

    def test_computed_degrees_match(self):
        lattice, gvecs, deg, deg_dual = product_projective_lattice(2, 2)
        pair, info = normalize_cone(lattice, gvecs)
        assert info["deg_root"] == deg
        assert info["deg_dual_root"] == deg_dual

    def test_index_one_cone_over_square(self):
        # s = 1: the reference decomposition is deg_dual itself and the
        # section is deg, an interior slice point rather than a vertex
        lattice = LatticeEmbedding.full(3)
        gens = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        pair, info = normalize_cone(lattice, gens)
        assert pair.s == 1 and pair.d == 2
        assert verify_reflexive_gorenstein(pair) == (True, 1)
        assert len(pair.parts.parts[0].vertices) == 4

    def test_hull_preserved(self):
        lattice, gvecs, _, _ = product_projective_lattice(3, 3)
        pair, info = normalize_cone(lattice, gvecs)
        # root images of the split generators are cone generators
        root_gens = {pair.point_to_root(g) for g in pair.k_generators}
        for g in root_gens:
            assert cone_contains(g, gvecs)
        for g in gvecs:
            assert cone_contains(g, sorted(root_gens))


class TestIndependentSubset:
    def test_matches_greedy_rank_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 6)
            bound = rng.choice([1, 3, 9])
            rows = []
            for _ in range(rng.randint(1, 2 * n + 2)):
                if rows and rng.random() < 0.4:
                    # a dependent row: an integer combination of earlier rows
                    picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
                    coeffs = [rng.randint(-3, 3) for _ in picks]
                    combo = (sum(c * r[j] for c, r in zip(coeffs, picks)) for j in range(n))
                    rows.append(tuple(combo))
                else:
                    rows.append(tuple(rng.randint(-bound, bound) for _ in range(n)))
            assert independent_rows(rows, n) == greedy_independent_subset(rows, n)


def golden_pair(name):
    inst = parse_instance(loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
    return _pair_from_instance(inst)[0]


class TestLatticePointInequalities:
    """The inequalities that ``part_points`` and ``dual_part_points`` hand to
    the search cut out exactly the parts and dual parts: the points agree
    with a scan of each polytope's bounding box."""

    @staticmethod
    def assert_points_match_box_scan(pair):
        assert pair.part_points() == tuple(
            tuple(box_scan_lattice_points(p.vertices)) for p in pair.parts.parts
        )
        assert pair.dual_part_points() == tuple(
            tuple(box_scan_lattice_points(p.vertices)) for p in pair.dual_parts.parts
        )

    @pytest.mark.parametrize("name", GOLDEN_PARTITIONS + ("pp33", "p5-222"))
    def test_golden_pairs(self, name):
        self.assert_points_match_box_scan(golden_pair(name))

    # one decomposition of each block shape: blocks of sizes (2, 1), (3,), (1, 2)
    @pytest.mark.parametrize("index", [1, 2, 89])
    def test_renormalized_p5_222_pairs(self, index):
        pair = golden_pair("p5-222")
        dec = enumerate_decompositions(pair)[index]
        self.assert_points_match_box_scan(renormalize(pair, dec.e_tilde()))
