"""Nef-partition validation, dual partitions, pairing minima."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from doublemirror import dd, instances, nefpart, polytope
from doublemirror.errors import (
    DegeneratePartError,
    InternalError,
    OriginMissingError,
    SumNotFullDimensionalError,
)
from doublemirror.lattices import LatticeEmbedding
from doublemirror.nefpart import (
    NefPartition,
    dual_nef_partition,
    is_two_independent,
)
from doublemirror.cli import _pair_from_instance, main
from doublemirror.cones import normalize_cone
from doublemirror.instances import build_partition, loads, parse_instance
from doublemirror.polytope import cayley_dual_rays, sum_from_cayley_rays
from oracles import (
    cone_inputs,
    dual_instance,
    dual_polytope,
    halfspace_dual_parts,
    hull_vertices,
    pairing_minima,
    polytope_contains,
    polytope_from_points,
    projective_space_parts,
    validate_nef_partition,
)

Z2 = LatticeEmbedding.full(2)
CONE_INPUTS = cone_inputs()
GOLDEN = Path(__file__).parent / "golden"


def two_segment_partition():
    d1 = polytope_from_points(Z2, [(-1, 0), (0, 0), (1, 0)])
    d2 = polytope_from_points(Z2, [(0, -1), (0, 0), (0, 1)])
    return validate_nef_partition([d1, d2])


class TestValidation:
    def test_two_segments(self):
        np_ = two_segment_partition()
        assert np_.length == 2
        assert set(sum_from_cayley_rays(np_.parts, np_.cayley_rays).vertices) == {
            tuple(map(Fraction, v)) for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        }

    def test_single_part(self):
        square = polytope_from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        assert np_.length == 1

    def test_not_full_dimensional(self):
        seg = polytope_from_points(Z2, [(0, 0), (1, 0)])
        with pytest.raises(SumNotFullDimensionalError):
            validate_nef_partition([seg, seg])

    def test_origin_missing(self):
        off = polytope_from_points(Z2, [(1, 0), (2, 0), (1, 1)])
        with pytest.raises(OriginMissingError):
            validate_nef_partition([off])

    @pytest.mark.parametrize("given_rays", [False, True])
    def test_origin_missing_read_off_the_rays(self, given_rays):
        # the origin test reads a_i >= 0 off the Cayley rays, of the parts'
        # vertices or of input points with a non-vertex among them; part 2
        # misses the origin, the sum does not
        square = polytope_from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        off = polytope_from_points(Z2, [(1, 0), (1, 1)])
        parts = [square, off]
        with pytest.raises(OriginMissingError, match=r"^part 2 does not contain the origin$"):
            if given_rays:
                points = [square.vertices + ((0, 0),), off.vertices]
                nefpart.validate_nef_partition(parts, cayley_dual_rays(points))
            else:
                validate_nef_partition(parts)

    def test_origin_test_runs_no_double_description_per_part(self, monkeypatch):
        # one for the Cayley cone, unless the caller has its rays, for any
        # number of parts: the reflexivity test reads the sum's facets off
        # the rays, and no vertex of the sum is computed
        real = dd.extreme_rays
        calls = []

        def counted(constraints):
            calls.append(constraints)
            return real(constraints)

        monkeypatch.setattr(polytope, "extreme_rays", counted)
        for sizes in [(2, 2), (2, 2, 2), (2, 2, 2, 2)]:
            parts = projective_space_parts(sizes)
            calls.clear()
            validate_nef_partition(parts)
            assert len(calls) == 1
            rays = cayley_dual_rays([p.vertices for p in parts])
            calls.clear()
            nefpart.validate_nef_partition(parts, rays)
            assert len(calls) == 0

    @pytest.mark.parametrize("parts,message", [
        ([[[1, 0], [2, 0], [1, 1]]], "part 1 does not contain the origin"),
        # both faults: the origin test reads the rays of a full-dimensional
        # cone, so the dimension is found first
        ([[[1, 0], [2, 0]]], "Minkowski sum has dimension 1 < 2"),
        # both faults: the single point 0 is found before the double description
        ([[[1, 0], [2, 0], [1, 1]], [[0, 0]]], "part 2 is the single point 0"),
        # the two-segment partition with part 1 moved off the origin: the sum
        # [1, 3] x [-1, 1] misses it too, and no translation is tried
        ([[[1, 0], [3, 0]], [[0, -1], [0, 1]]], "part 1 does not contain the origin"),
    ])
    def test_rejected_inputs_exit_1(self, parts, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = {"lattice": {"ambient_rank": 2, "kind": "full"}, "nef_partition": parts}
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["nefdual", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err and len(err.splitlines()) == 1

    def test_degenerate_part(self):
        zero = polytope_from_points(Z2, [(0, 0)])
        square = polytope_from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        with pytest.raises(DegeneratePartError):
            validate_nef_partition([square, zero])


class TestDualPartition:
    def test_two_segments(self):
        # nabla_1 = conv{0, +-e1}: the origin is relative-interior, not a vertex
        np_ = two_segment_partition()
        dual = dual_nef_partition(np_)
        assert set(dual.parts[0].vertices) == {
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
        }
        assert polytope_contains(dual.parts[0], (0, 0))
        assert set(dual.parts[1].vertices) == {
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        }
        assert polytope_contains(dual.parts[1], (0, 0))

    def test_length_one_collapses_to_dual(self):
        square = polytope_from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        dual = dual_nef_partition(np_)
        assert set(dual.parts[0].vertices) == set(dual_polytope(square).vertices)

    def test_round_trip_hull(self):
        np_ = two_segment_partition()
        dual = dual_nef_partition(np_)
        dual_np = validate_nef_partition(list(dual.parts))
        double = dual_nef_partition(dual_np)
        hull1 = set(hull_vertices([v for p in double.parts for v in p.vertices]))
        hull2 = set(hull_vertices([v for p in np_.parts for v in p.vertices]))
        assert hull1 == hull2

    @pytest.mark.parametrize("label,lattice,gens,deg,deg_dual", CONE_INPUTS,
                             ids=[c[0] for c in CONE_INPUTS])
    def test_cone_inputs_match_halfspace_duals(self, label, lattice, gens, deg, deg_dual):
        # the library groups the dual Cayley rays by slot; the oracle runs one
        # halfspace vertex enumeration per part
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        dual = dual_nef_partition(pair.parts)
        assert [p.vertices for p in dual.parts] == halfspace_dual_parts(pair.parts)

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_projective_space_family_matches_halfspace_duals(self, sizes):
        np_ = validate_nef_partition(projective_space_parts(sizes))
        dual = dual_nef_partition(np_)
        assert [p.vertices for p in dual.parts] == halfspace_dual_parts(np_)

    @pytest.mark.parametrize("name", ["square", "two-segment", "pp33", "pp53", "p5-222"])
    def test_dual_sum_vertices_are_the_dual_part_vertices(self, name):
        # Conv(nabla_1 u ... u nabla_s) = dual(sum), which dual_nef_partition
        # does not check: the vertices of dual(sum) are the nonzero vertices
        # of the nablas
        inst = parse_instance(loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
        np_ = _pair_from_instance(inst)[0].parts
        nonzero = {w for p in dual_nef_partition(np_).parts for w in p.vertices if any(w)}
        total = sum_from_cayley_rays(np_.parts, np_.cayley_rays)
        assert set(dual_polytope(total).vertices) == nonzero

    def test_dual_sum_vertex_outside_the_parts_rejected(self):
        # a ray (a ; w) with a_1 + a_2 = 2 puts the vertex w / 2 into
        # dual(sum), outside Conv of the nablas; the unit-slot check rejects it
        np_ = two_segment_partition()
        for ray in [(1, 1, 1, 0), (2, 0, 1, 0)]:
            rays = tuple(sorted(ray if r == (1, 0, 1, 0) else r for r in np_.cayley_rays))
            corrupted = NefPartition(np_.parts, rays)
            assert set(dual_polytope(sum_from_cayley_rays(np_.parts, rays)).vertices) == {
                (-1, 0), (0, -1), (0, 1), (Fraction(1, 2), 0)
            }
            with pytest.raises(InternalError, match="dual Cayley ray off the unit slots"):
                dual_nef_partition(corrupted)


class TestMirrorSide:
    @pytest.mark.parametrize("name", ["square", "two-segment", "shifted-square",
                                      "shifted-two-segment", "p5-222", "pp33", "pp53"])
    def test_dual_of_the_dual_gives_back_the_parts(self, name, tmp_path, capsys):
        # the dual parts as an instance of their own: every input point is a
        # vertex, and nefdual of it reports the original parts as its dual
        assert main(["nefdual", str(GOLDEN / f"{name}.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(dual_instance(report)), encoding="utf-8")
        assert main(["nefdual", str(path)]) == 0
        again = json.loads(capsys.readouterr().out)["result"]
        assert again["parts"] == report["result"]["dual_parts"]
        assert sorted(again["dual_parts"]) == sorted(report["result"]["parts"])


class TestOneDoubleDescriptionPerCone:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["cone", "pp53.json"], 0),
            (["nefdual", "shifted-square.json"], 1),
            (["nefdual", "shifted-two-segment.json"], 1),
            (["nefdual", "square.json"], 1),
            (["bridge", "pp33.json", "--pair", "2", "3"], 0),
            (["bridge", "pp53.json", "--pair", "2", "3"], 0),
        ],
    )
    def test_cayley_dual_rays_calls(self, argv, expected, monkeypatch, capsys):
        # a partition's input points give the rays once, and a shifted
        # partition maps them across the translation; a cone instance maps
        # the rays of its normalization, and a renormalization maps them again
        real = instances.cayley_dual_rays
        calls = []

        def counted(point_sets):
            calls.append(point_sets)
            return real(point_sets)

        monkeypatch.setattr(instances, "cayley_dual_rays", counted)
        monkeypatch.chdir(GOLDEN)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the input cone and its dual: T and the sum need no facets
            (["cone", "pp53.json"], 2),
            # the Cayley cone over the input points, which gives the parts'
            # vertices, and the sum's vertices, which only the report prints
            (["nefdual", "square.json"], 2),
            (["nefdual", "two-segment.json"], 2),
            (["nefdual", "pp33.json"], 3),
            # no part, dual part or renormalized pair enumerates facets for
            # its lattice points
            (["pipeline", "pp53.json", "--samples", "20"], 2),
            (["bridge", "pp53.json", "--pair", "2", "3"], 2),
            (["bridge", "p5-222.json", "--pair", "2", "3"], 1),
            (["nefdual", "p5-222.json"], 2),
            # the translated parts reuse the rays of the first sum
            (["decompose", "shifted-square.json"], 1),
            (["verify", "p5-222.json", "--samples", "3", "--pair", "2", "3"], 1),
            (["pipeline", "square.json", "--samples", "5"], 1),
        ],
    )
    def test_extreme_rays_calls(self, argv, expected, monkeypatch, capsys):
        real = dd.extreme_rays
        calls = []

        def counted(constraints):
            calls.append(constraints)
            return real(constraints)

        for module in ("cones", "polytope"):
            monkeypatch.setattr(f"doublemirror.{module}.extreme_rays", counted)
        monkeypatch.chdir(GOLDEN)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == expected

    @pytest.mark.parametrize("label,lattice,gens,deg,deg_dual", CONE_INPUTS,
                             ids=[c[0] for c in CONE_INPUTS])
    def test_cone_rays_mapped_to_the_split_frame(self, label, lattice, gens, deg, deg_dual):
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        points = [p.vertices for p in pair.parts.parts]
        assert list(pair.parts.cayley_rays) == cayley_dual_rays(points)

    @pytest.mark.parametrize("name", ["shifted-square", "shifted-two-segment"])
    def test_rays_mapped_across_the_translation(self, name):
        inst = parse_instance(loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
        np_, note = build_partition(inst)
        assert "translated" in note
        assert list(np_.cayley_rays) == cayley_dual_rays([p.vertices for p in np_.parts])


class TestPairingMinima:
    def test_unit_vector(self):
        np_ = two_segment_partition()
        assert pairing_minima(np_, (1, 0)) == (1, 0)

    def test_zero(self):
        np_ = two_segment_partition()
        assert pairing_minima(np_, (0, 0)) == (0, 0)

    def test_dual_vertices_attain_delta(self):
        np_ = two_segment_partition()
        dual = dual_nef_partition(np_)
        for j, nabla in enumerate(dual.parts):
            for w in nabla.vertices:
                if all(x == 0 for x in w):
                    continue
                minima = pairing_minima(np_, tuple(int(x) for x in w))
                assert minima == tuple(1 if i == j else 0 for i in range(np_.length))


    @pytest.mark.parametrize(
        "name",
        ["pp33", "pp53", "square", "two-segment", "shifted-square", "shifted-two-segment", "P5"],
    )
    def test_nefdual_report_matches_oracle(self, name, tmp_path, capsys):
        # nefdual reads the minima off the slot of each dual vertex; the
        # oracle minimizes over the vertices of the parts
        if name == "P5":
            parts = projective_space_parts((2, 2, 2))
            data = {
                "lattice": {"ambient_rank": 5, "kind": "full"},
                "nef_partition": [[[int(x) for x in v] for v in p.vertices] for p in parts],
            }
            path = tmp_path / "p5.json"
            path.write_text(json.dumps(data), encoding="utf-8")
        else:
            path = GOLDEN / f"{name}.json"
        assert main(["nefdual", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        inst = parse_instance(loads(path.read_text(encoding="utf-8")))
        np_ = _pair_from_instance(inst)[0].parts
        minima = result["pairing_minima_at_dual_vertices"]
        vertices = {tuple(w) for part in result["dual_parts"] for w in part}
        assert {tuple(int(x) for x in key.split(",")) for key in minima} == vertices
        for w in vertices:
            assert minima[",".join(map(str, w))] == list(pairing_minima(np_, w))


class TestTwoIndependence:
    def test_two_segments_fail(self):
        np_ = two_segment_partition()
        flag, witness = is_two_independent(np_)
        assert not flag
        assert witness is not None

    def test_square_passes(self):
        square = polytope_from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        flag, _ = is_two_independent(np_)
        assert flag
