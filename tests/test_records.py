"""Frozen value records: immutability, construction, equality, hash and replace."""

import pytest

from doublemirror.bridge import (
    Decomposition,
    bridge_skeleton,
    enumerate_decompositions,
    random_coefficients,
)
from doublemirror.canned import two_segment_parts
from doublemirror.cones import build_cone
from doublemirror.instances import CoefficientSpec, parse_instance
from doublemirror.laurent import RATIONAL, LaurentPoly
from oracles import hull_vertices, replace, validate_nef_partition

SQUARE = ((-1, -1), (-1, 1), (1, -1), (1, 1))
SQUARE_INSTANCE = {"lattice": {"ambient_rank": 2, "kind": "full"},
                   "nef_partition": [[list(v) for v in SQUARE]]}


def two_segment_bridge(domain):
    parts = [hull_vertices(pts) for pts in two_segment_parts()]
    pair = build_cone(validate_nef_partition(parts))
    decs = enumerate_decompositions(pair)
    return bridge_skeleton(pair, decs[0], decs[0]).instantiate(random_coefficients(pair, domain, 3))


class TestImmutability:
    @pytest.mark.parametrize(
        "obj,name",
        [
            (validate_nef_partition([SQUARE]), "parts"),
            (Decomposition(((0, 0),), ((0,),)), "blocks"),
            (LaurentPoly.from_dict(2, {}, RATIONAL), "_table"),
            (LaurentPoly.from_dict(2, {}, RATIONAL), "terms"),
            (parse_instance(SQUARE_INSTANCE), "rank"),
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
            Decomposition(((0, 0),), ((0,),)).extra = 1


class TestConstruction:
    def test_positional_keyword_and_default(self):
        spec = CoefficientSpec(RATIONAL, seed=3, explicit=None)
        assert (spec.domain, spec.seed, spec.explicit) == (RATIONAL, 3, None)
        poly = LaurentPoly(rank=1, terms=(), domain=7)
        assert poly._table is None and poly == LaurentPoly(1, (), 7)

    def test_default_factory_gives_each_record_its_own_value(self):
        parts = [hull_vertices(pts) for pts in two_segment_parts()]
        a = build_cone(validate_nef_partition(parts))
        b = replace(a)
        assert a == b and a._cache is b._cache  # replace copies init fields
        assert build_cone(validate_nef_partition(parts))._cache is not a._cache

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Decomposition(),
            lambda: Decomposition((), (), ()),
            lambda: Decomposition((), p=()),
            lambda: Decomposition((), (), s=1),
            lambda: LaurentPoly(2, ()),
            lambda: CoefficientSpec(RATIONAL, 0, None, facets=[]),
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
        square = validate_nef_partition([SQUARE])
        assert square.cayley_rays
        assert repr(square) == f"NefPartition(parts=({SQUARE!r},))"
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
        spec = replace(CoefficientSpec(7, seed=3, explicit={(0,): 1}), seed=4)
        assert (spec.domain, spec.seed, spec.explicit) == (7, 4, {(0,): 1})
        square = validate_nef_partition([SQUARE])
        assert replace(square).cayley_rays is square.cayley_rays
