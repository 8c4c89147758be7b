"""Frozen value records: immutability, construction, equality, hash and replace."""

import pytest

from doublemirror.bridge import bridge_skeleton, enumerate_decompositions, random_coefficients
from doublemirror.canned import two_segment_parts
from doublemirror.cones import build_cone
from doublemirror.instances import CoefficientSpec
from doublemirror.intmat import IntMatrix
from doublemirror.lattices import LatticeEmbedding
from doublemirror.laurent import RATIONAL, LaurentPoly
from doublemirror.polytope import Polytope
from doublemirror.records import replace
from oracles import polytope_from_points, validate_nef_partition

Z2 = LatticeEmbedding.full(2)
SQUARE = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def two_segment_bridge(domain):
    parts = [polytope_from_points(Z2, pts) for pts in two_segment_parts()]
    pair = build_cone(validate_nef_partition(parts))
    decs = enumerate_decompositions(pair)
    return bridge_skeleton(pair, decs[0], decs[0]).instantiate(random_coefficients(pair, domain, 3))


class TestImmutability:
    @pytest.mark.parametrize(
        "obj,name",
        [
            (IntMatrix(((1, 2),)), "data"),
            (Polytope(Z2, SQUARE), "vertices"),
            (LaurentPoly.from_dict(2, {}, RATIONAL), "_table"),
            (LaurentPoly.from_dict(2, {}, RATIONAL), "terms"),
            (Z2, "rank"),
        ],
    )
    def test_assigning_or_deleting_a_field_raises(self, obj, name):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before

    def test_new_attributes_are_refused(self):
        with pytest.raises(AttributeError):
            IntMatrix(((1,),)).extra = 1


class TestConstruction:
    def test_positional_keyword_and_default(self):
        spec = CoefficientSpec(RATIONAL, seed=3, explicit=None)
        assert (spec.domain, spec.seed, spec.explicit) == (RATIONAL, 3, None)
        poly = LaurentPoly(rank=1, terms=(), domain=7)
        assert poly._table is None and poly == LaurentPoly(1, (), 7)

    def test_default_factory_gives_each_record_its_own_value(self):
        parts = [polytope_from_points(Z2, pts) for pts in two_segment_parts()]
        a = build_cone(validate_nef_partition(parts))
        b = replace(a)
        assert a == b and a._cache is b._cache  # replace copies init fields
        assert build_cone(validate_nef_partition(parts))._cache is not a._cache

    def test_post_init_normalizes_and_rejects_ragged_rows(self):
        assert IntMatrix([[True, 2.0]]).data == ((1, 2),)
        assert replace(IntMatrix(((1, 2),)), data=[[3, 4]]).data == ((3, 4),)
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError, match="ragged"):
            replace(IntMatrix(((1, 2),)), data=((1,), (2, 3)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IntMatrix(),
            lambda: IntMatrix(((1,),), ((2,),)),
            lambda: IntMatrix(((1,),), data=((2,),)),
            lambda: IntMatrix(((1,),), rows=1),
            lambda: LaurentPoly(2, ()),
            lambda: Polytope(Z2, SQUARE, facets=[]),
        ],
    )
    def test_missing_or_unexpected_argument_raises_type_error(self, make):
        with pytest.raises(TypeError):
            make()


class TestEqualityAndHash:
    def test_compiled_table_keeps_equality_and_hash(self):
        # the cache _table stays out of equality and hash
        p, q = (LaurentPoly.from_dict(2, {(1, 0): 3, (0, -1): 2}, 7) for _ in range(2))
        before = hash(p)
        assert p.evaluate((2, 3)) == (3 * 2 + 2 * 5) % 7  # 5 = 1/3 mod 7
        assert p._table is not None and q._table is None
        assert p == q and hash(p) == before == hash(q) and len({p, q}) == 1
        assert p != LaurentPoly.from_dict(2, {(1, 0): 3}, 7) and p != p.terms

    def test_bridge_tables_stay_out_of_equality(self):
        # BridgeData holds dicts, so like any record with a dict field it has no hash
        bridge = two_segment_bridge(10007)
        fresh = replace(bridge)
        bridge.term_tables()
        assert bridge._tables is not None and fresh._tables is None
        assert bridge == fresh
        with pytest.raises(TypeError):
            hash(bridge)

    def test_repr_leaves_out_cache_fields(self):
        text = repr(Polytope(Z2, ((0, 0),)))
        assert text.startswith("Polytope(lattice=LatticeEmbedding(ambient_rank=2")
        assert "vertices=((0, 0),)" in text and "_solver" not in text
        poly = LaurentPoly.from_dict(1, {(1,): 1}, 7)
        poly.evaluate((2,))
        assert poly._table is not None and "_table" not in repr(poly)


class TestReplace:
    def test_replace_drops_compiled_tables(self):
        bridge = two_segment_bridge(10007)
        tables = bridge.term_tables()
        same = replace(bridge)
        assert same._tables is None and same.term_tables() is not tables
        with pytest.raises(TypeError):
            replace(bridge, _tables=tables)

    def test_replace_keeps_other_fields(self):
        dual = Z2.dual()
        assert (dual.kind, dual.rank) == ("full", 2) and dual == Z2
        q = LatticeEmbedding.from_kernel(IntMatrix(((1, 1, 1),)))
        assert q.dual().kind == "quotient" and q.dual().basis == q.basis
