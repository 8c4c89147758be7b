"""Nef-partition validation, dual partitions, pairing minima."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from doublemirror import nefpart
from doublemirror.errors import (
    DegeneratePartError,
    InternalError,
    OriginMissingError,
    SumNotFullDimensionalError,
)
from doublemirror.lattices import LatticeEmbedding
from doublemirror.nefpart import (
    dual_nef_partition,
    is_two_independent,
    validate_nef_partition,
)
from doublemirror.cli import _pair_from_instance, main
from doublemirror.cones import normalize_cone
from doublemirror.instances import build_partition, loads, parse_instance
from doublemirror.polytope import Polytope, cayley_dual_rays, dual_polytope, hull_vertices
from oracles import cone_inputs, halfspace_dual_parts, pairing_minima, projective_space_parts

Z2 = LatticeEmbedding.full(2)
CONE_INPUTS = cone_inputs()
GOLDEN = Path(__file__).parent / "golden"


def two_segment_partition():
    d1 = Polytope.from_points(Z2, [(-1, 0), (0, 0), (1, 0)])
    d2 = Polytope.from_points(Z2, [(0, -1), (0, 0), (0, 1)])
    return validate_nef_partition([d1, d2])


class TestValidation:
    def test_two_segments(self):
        np_ = two_segment_partition()
        assert np_.length == 2
        assert np_.sum.vertex_set() == {
            tuple(map(Fraction, v)) for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        }

    def test_single_part(self):
        square = Polytope.from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        assert np_.length == 1

    def test_not_full_dimensional(self):
        seg = Polytope.from_points(Z2, [(0, 0), (1, 0)])
        with pytest.raises(SumNotFullDimensionalError):
            validate_nef_partition([seg, seg])

    def test_origin_missing(self):
        off = Polytope.from_points(Z2, [(1, 0), (2, 0), (1, 1)])
        with pytest.raises(OriginMissingError):
            validate_nef_partition([off])

    def test_degenerate_part(self):
        zero = Polytope.from_points(Z2, [(0, 0)])
        square = Polytope.from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        with pytest.raises(DegeneratePartError):
            validate_nef_partition([square, zero])


class TestDualPartition:
    def test_two_segments(self):
        # nabla_1 = conv{0, +-e1}: the origin is relative-interior, not a vertex
        np_ = two_segment_partition()
        dual = dual_nef_partition(np_)
        assert dual.parts[0].vertex_set() == {
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
        }
        assert dual.parts[0].contains((0, 0))
        assert dual.parts[1].vertex_set() == {
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        }
        assert dual.parts[1].contains((0, 0))

    def test_length_one_collapses_to_dual(self):
        square = Polytope.from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        dual = dual_nef_partition(np_)
        assert dual.parts[0].vertex_set() == dual_polytope(square).vertex_set()

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

    def test_dual_sum_vertex_outside_the_parts_rejected(self, monkeypatch):
        # dual(sum) of the two segments is the diamond conv{+-e1, +-e2}; a
        # stand-in with the extra vertex (1, 1) is not Conv of the nablas
        np_ = two_segment_partition()
        extra = Polytope(Z2, ((-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)))
        monkeypatch.setattr(nefpart, "dual_polytope", lambda p: extra)
        with pytest.raises(InternalError, match="Conv of dual parts differs"):
            dual_nef_partition(np_)


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
        # a cone instance maps the rays of its normalization, and a
        # renormalization maps them again; a shifted partition maps the rays
        # of its first sum across the translation
        real = nefpart.cayley_dual_rays
        calls = []

        def counted(parts):
            calls.append(parts)
            return real(parts)

        monkeypatch.setattr(nefpart, "cayley_dual_rays", counted)
        monkeypatch.chdir(GOLDEN)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == expected

    @pytest.mark.parametrize("label,lattice,gens,deg,deg_dual", CONE_INPUTS,
                             ids=[c[0] for c in CONE_INPUTS])
    def test_cone_rays_mapped_to_the_split_frame(self, label, lattice, gens, deg, deg_dual):
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        assert list(pair.parts.cayley_rays) == cayley_dual_rays(pair.parts.parts)

    @pytest.mark.parametrize("name", ["shifted-square", "shifted-two-segment"])
    def test_rays_mapped_across_the_translation(self, name):
        inst = parse_instance(loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))
        np_, note = build_partition(inst)
        assert "translated" in note
        assert list(np_.cayley_rays) == cayley_dual_rays(np_.parts)


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
        square = Polytope.from_points(Z2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        np_ = validate_nef_partition([square])
        flag, _ = is_two_independent(np_)
        assert flag
