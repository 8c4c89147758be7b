"""Decompositions, block partitions, auxiliary lattices, bridge matrices."""

import random

import pytest

from doublemirror.bridge import (
    block_partition,
    build_auxiliary_lattice,
    bridge_skeleton,
    build_bridge,
    enumerate_decompositions,
    make_decomposition,
    random_coefficients,
    solve_bridge_vectors,
)
from doublemirror.canned import product_projective_lattice, two_segment_parts
from doublemirror.cones import build_cone, normalize_cone
from doublemirror.intmat import IntMatrix, dot, vadd, vsub
from doublemirror.lattices import LatticeEmbedding
from doublemirror.laurent import RATIONAL
from doublemirror.nefpart import validate_nef_partition
from doublemirror.polytope import Polytope
from oracles import brute_force_block_partition, det_permutation


@pytest.fixture(scope="module")
def two_segment_pair():
    Z2 = LatticeEmbedding.full(2)
    parts = [Polytope.from_points(Z2, pts) for pts in two_segment_parts()]
    return build_cone(validate_nef_partition(parts))


@pytest.fixture(scope="module")
def pp33():
    lattice, gens, deg, deg_dual = product_projective_lattice(3, 3)
    pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    return pair, decs


class TestBlockPartition:
    def test_all_zero(self):
        blocks = block_partition([(0, 0), (0, 0), (0, 0)])
        assert blocks == ((0,), (1,), (2,))

    def test_two_pairs(self):
        p = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert block_partition(p) == ((0, 1), (2, 3))
        assert brute_force_block_partition(p) == ((0, 1), (2, 3))

    def test_single_block(self):
        p = [(1, 0), (0, 1), (-1, -1)]
        assert block_partition(p) == ((0, 1, 2),)

    def test_oracle_agreement_structured(self):
        # block-structured generator with the rank guard, as in the
        # acceptance suite but smaller
        rng = random.Random(123)
        for _ in range(100):
            tup, expected = _random_block_tuple(rng)
            assert block_partition(tup) == expected
            assert brute_force_block_partition(tup) == expected


def _random_block_tuple(rng, max_s=7, dim_max=4, bound=3):
    """Zero-sum tuple with planted blocks; retries until the rank matches."""
    while True:
        dim = rng.randint(1, dim_max)
        s = rng.randint(1, max_s)
        sizes = []
        remaining = s
        budget = dim
        while remaining:
            top = min(remaining, budget + 1)
            size = rng.randint(1, top)
            sizes.append(size)
            budget -= size - 1
            remaining -= size
        vectors = []
        for size in sizes:
            if size == 1:
                vectors.append([(0,) * dim])
                continue
            block = [
                tuple(rng.randint(-bound, bound) for _ in range(dim))
                for _ in range(size - 1)
            ]
            last = (0,) * dim
            for v in block:
                last = vsub(last, v)
            vectors.append(block + [last])
        order = list(range(s))
        rng.shuffle(order)
        flat = [None] * s
        pos = 0
        placed = []
        for block_vecs in vectors:
            idxs = order[pos : pos + len(block_vecs)]
            for idx, v in zip(idxs, block_vecs):
                flat[idx] = v
            placed.append(tuple(sorted(idxs)))
            pos += len(block_vecs)
        expected = tuple(sorted(placed, key=lambda b: b[0]))
        rank = IntMatrix(tuple(flat)).rank()
        if rank == s - len(sizes):
            return tuple(flat), expected


class TestEnumerate:
    def test_two_segment_single(self, two_segment_pair):
        decs = enumerate_decompositions(two_segment_pair)
        assert len(decs) == 1
        assert decs[0].is_trivial()

    def test_pp33_three(self, pp33):
        pair, decs = pp33
        assert len(decs) == 3
        assert decs[0].is_trivial()
        for dec in decs[1:]:
            assert dec.r == 1
            assert dec.block_sizes == (3,)
            # canonical form: each summand is (delta_i ; p_i) in the dual cone
            for e in dec.e_tilde():
                assert all(dot(g, e) >= 0 for g in pair.k_generators)

    def test_pp22_two(self):
        lattice, gens, deg, deg_dual = product_projective_lattice(2, 2)
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        decs = enumerate_decompositions(pair)
        assert len(decs) == 2


class TestAuxiliaryLattice:
    def test_trivial(self):
        dec = make_decomposition([(0, 0), (0, 0)])
        basis, index, row_of = build_auxiliary_lattice(dec, 2)
        assert index == 1
        assert basis == IntMatrix.identity(2)
        assert row_of == {}

    def test_contrived_index_two(self):
        dec = make_decomposition([(2, 0), (-2, 0)])
        basis, index, _ = build_auxiliary_lattice(dec, 2)
        assert index == 2
        assert abs(basis.det()) == 2

    def test_index_equals_divisor_product(self, pp33):
        pair, decs = pp33
        from doublemirror.intmat import snf

        dec = make_decomposition(tuple(vsub(b, a) for a, b in zip(decs[0].p, decs[1].p)))
        basis, index, row_of = build_auxiliary_lattice(dec, pair.d)
        rows = [dec.p[i] for i in sorted(row_of, key=row_of.get)]
        s_diag, _, _ = snf(IntMatrix(tuple(rows)))
        product = 1
        for i in range(len(rows)):
            product *= s_diag.data[i][i]
        assert index == product


class TestBridgeVectors:
    def test_pairing_tables(self, pp33):
        pair, decs = pp33
        dec = make_decomposition(decs[1].p)
        basis, _, row_of = build_auxiliary_lattice(dec, pair.d)
        w, u, p_nprime, _ = solve_bridge_vectors(dec, basis, row_of, pair.s, pair.d)
        s = pair.s
        e_rows = [tuple(1 if k == i else 0 for k in range(s)) + (0,) * pair.d for i in range(s)]
        et_rows = [e_rows[i][:s] + p_nprime[i] for i in range(s)]
        for (k, pos), vec in w.items():
            block = dec.blocks[k]
            for i in range(s):
                assert dot(vec, e_rows[i]) == 0
                expected = 1 if i == block[pos] else (-1 if i == block[0] else 0)
                assert dot(vec, et_rows[i]) == expected
        for (k, pos), vec in u.items():
            block = dec.blocks[k]
            for i in range(s):
                assert dot(vec, e_rows[i]) == (1 if i == block[pos] else 0)
                assert dot(vec, et_rows[i]) == (1 if i == block[0] else 0)

    def test_trivial_decomposition_w_empty(self, two_segment_pair):
        decs = enumerate_decompositions(two_segment_pair)
        dec = decs[0]
        basis, _, row_of = build_auxiliary_lattice(dec, two_segment_pair.d)
        w, u, _, _ = solve_bridge_vectors(dec, basis, row_of, two_segment_pair.s, two_segment_pair.d)
        assert w == {}
        assert set(u) == {(0, 0), (1, 0)}


class TestBridge:
    def test_self_pair(self, two_segment_pair):
        decs = enumerate_decompositions(two_segment_pair)
        coeffs = random_coefficients(two_segment_pair, RATIONAL, 3)
        bridge = build_bridge(two_segment_pair, decs[0], decs[0], coeffs)
        assert [len(m) for m in bridge.matrices] == [1, 1]
        assert all(bridge.identity_results.values())
        # s = 1 blocks: single entries equal the slice polynomial up to a monomial
        for k, mat in enumerate(bridge.matrices):
            assert len(mat[0][0].terms) == 3

    def test_skeleton_serves_both_fields(self, pp33):
        # --pair 2 3: the reference decomposition is nontrivial, so the
        # skeleton holds a renormalized pair
        pair, decs = pp33
        skeleton = bridge_skeleton(pair, decs[1], decs[2])
        qq = skeleton.instantiate(random_coefficients(pair, RATIONAL, 4))
        fp = skeleton.instantiate(random_coefficients(pair, 10007, 4))
        for name in ("ann_basis", "stack_e_inv", "l_coords"):
            assert getattr(qq.skeleton, name) is getattr(fp.skeleton, name)
        assert qq.pair is fp.pair is skeleton.pair
        # instantiating leaves the skeleton as a fresh build would have it
        again = build_bridge(pair, decs[1], decs[2], random_coefficients(pair, RATIONAL, 4))
        assert again.determinants == qq.determinants
        assert again.equations_etilde == qq.equations_etilde

    def test_pp33_identities(self, pp33):
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 11)
        bridge = build_bridge(pair, decs[0], decs[1], coeffs)
        assert all(bridge.identity_results.values())
        assert bridge.skeleton.sat_index == 1
        assert bridge.torus_rank == 2
        assert [len(m) for m in bridge.matrices] == [3]
        # every slice has 3 lattice points
        for (i, j), poly in bridge.slice_polys.items():
            assert len(poly.terms) == 3

    def test_pp33_nontrivial_pair(self, pp33):
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 11)
        bridge = build_bridge(pair, decs[1], decs[2], coeffs)
        assert all(bridge.identity_results.values())

    def test_determinant_cross_check(self, pp33):
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 4)
        bridge = build_bridge(pair, decs[0], decs[1], coeffs)
        for k, mat in enumerate(bridge.matrices):
            alt = det_permutation(mat, bridge.torus_rank, RATIONAL)
            assert alt.terms == bridge.determinants[k].terms

    def test_determinant_monomial_invariance(self, pp33):
        # shifting rows/columns by annihilator monomials (the u/w choice
        # freedom) changes the determinant by a single monomial factor
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 4)
        bridge = build_bridge(pair, decs[0], decs[1], coeffs)
        mat = bridge.matrices[0]
        rank = bridge.torus_rank
        rng = random.Random(0)
        row_shifts = [tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in mat]
        col_shifts = [tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in mat]
        shifted = [
            tuple(
                entry.shift(vadd(row_shifts[i], col_shifts[j]))
                for j, entry in enumerate(row)
            )
            for i, row in enumerate(mat)
        ]
        from doublemirror.bridge import det_cofactor

        new_det = det_cofactor(shifted, rank, RATIONAL)
        total = (0,) * rank
        for sh in row_shifts + col_shifts:
            total = vadd(total, sh)
        assert new_det.terms == bridge.determinants[0].shift(total).terms

    @pytest.mark.parametrize("side", ["e", "etilde"])
    def test_corrupted_stack_inverse_rejected(self, pp33, side, monkeypatch):
        # a stack inverse that passes the unimodularity check but is not the
        # inverse would push fiber points off their samples
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        pair, decs = pp33
        ann = bridge_skeleton(pair, decs[0], decs[1]).ann_basis
        adjugate = bridge_mod.adjugate
        stacks = []

        def corrupted(a):
            det, adj = adjugate(a)
            if a.data[: ann.rows] != ann.data:
                return det, adj
            stacks.append(a)
            if len(stacks) == ("e", "etilde").index(side) + 1:
                rows = [list(r) for r in adj.data]
                rows[0][0] += 1
                adj = IntMatrix(tuple(map(tuple, rows)))
            return det, adj

        monkeypatch.setattr(bridge_mod, "adjugate", corrupted)
        with pytest.raises(InternalError, match="projection of the fiber point"):
            bridge_skeleton(pair, decs[0], decs[1])
        assert len(stacks) == 2

    def test_trivial_tuple_rejected_when_sum_nonzero(self):
        from doublemirror.errors import DecompositionError

        with pytest.raises(DecompositionError):
            make_decomposition([(1, 0), (0, 1)])

    def test_slice_polynomials_standalone(self, pp33):
        # each slot's g_ij add up to its whole slot polynomial; the expected
        # terms come from the pair, not from the bridge's identity results
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 11)
        bridge = build_bridge(pair, decs[0], decs[1], coeffs)
        skeleton, s = bridge.skeleton, pair.s
        for i, slot_points in enumerate(skeleton.pair.slice_points()):
            total = bridge.slice_polys[(i, 0)]
            for j in range(1, s):
                total = total + bridge.slice_polys[(i, j)]
            expected = {
                v[:s] + tuple(dot(v[s:], row) for row in skeleton.n_prime_basis.data):
                    coeffs.value(skeleton.pair.point_to_root(v))
                for v in slot_points
            }
            assert dict(total.terms) == expected

    def test_canonical_linear_equivalence_form(self, pp33):
        # e~_i - e_i = (0 ; p_i): the lattice-level linear-equivalence statement
        pair, decs = pp33
        for dec in decs:
            for i, e in enumerate(dec.e_tilde()):
                e_i = tuple(1 if k == i else 0 for k in range(pair.s)) + (0,) * pair.d
                diff = vsub(e, e_i)
                assert diff[: pair.s] == (0,) * pair.s
                assert diff[pair.s :] == dec.p[i]
