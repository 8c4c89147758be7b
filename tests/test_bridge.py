"""Decompositions, block partitions, auxiliary lattices, bridge matrices."""

import json
import random
from pathlib import Path

import pytest

from doublemirror import bridge, cones, dd, instances, intmat, nefpart, polytope
from doublemirror.bridge import (
    Decomposition,
    block_partition,
    bridge_skeleton,
    bridge_vectors,
    enumerate_decompositions,
    make_decomposition,
    random_coefficients,
    skeleton_lattices,
)
from doublemirror.canned import two_segment_parts
from doublemirror.cli import main
from doublemirror.cones import build_cone, normalize_cone
from doublemirror.errors import InternalError
from doublemirror.evidence import fiber, fp_echelon, sample_determinantal_points
from doublemirror.instances import build_partition, parse_instance
from doublemirror.intmat import (
    adjugate,
    dot,
    hnf,
    identity,
    kernel_basis,
    matmul,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)
from doublemirror.laurent import RATIONAL, det_cofactor
from oracles import (
    bridge_identity_results,
    det_permutation,
    dual_instance,
    hull_vertices,
    is_unimodular,
    kernel_column_block_partition,
    laurent_add,
    laurent_shift,
    leibniz_det,
    m_level_complement,
    max_minor_gcd,
    one_block_decomposition,
    product_projective_cone,
    projective_space_parts,
    rational_rank,
    saturation,
    skeleton_vectors,
    slice_polynomial,
    to_mbar_prime,
    validate_nef_partition,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def two_segment_pair():
    parts = [hull_vertices(pts) for pts in two_segment_parts()]
    return build_cone(validate_nef_partition(parts))


@pytest.fixture(scope="module")
def pp33():
    rank, gens, deg, deg_dual = product_projective_cone(3, 3)
    pair, _ = normalize_cone(rank, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    return pair, decs


class TestBlockPartition:
    def test_all_zero(self):
        blocks = block_partition([(0, 0), (0, 0), (0, 0)])
        assert blocks == ((0,), (1,), (2,))

    def test_two_pairs(self):
        p = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert block_partition(p) == ((0, 1), (2, 3))
        assert kernel_column_block_partition(p) == ((0, 1), (2, 3))

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
            assert kernel_column_block_partition(tup) == expected

    @pytest.mark.parametrize("p", [[(1, 0), (1, 0), (-2, 0)], [(1,), (1,), (-1,), (-1,)]])
    def test_rank_check_rejects(self, p):
        # the first sums to zero only as a whole, so the subset rule alone
        # takes it as one block (0, 1, 2) and only the rank check rejects it;
        # the second has no unique finest partition
        with pytest.raises(InternalError, match="rank 1, not s - r = 2"):
            make_decomposition(p)

    @pytest.mark.parametrize(
        "sizes, count",
        [((2, 2, 2), 90), ((2, 2, 3), 210), (None, 36), ((1,) * 7, 5040)],
        ids=["p5-222", "p6-223", "pp33-dual", "p6-1111111"],
    )
    def test_enumerated_blocks_match_the_oracle(self, sizes, count, capsys):
        if sizes is None:
            assert main(["nefdual", str(GOLDEN / "pp33.json")]) == 0
            instance = dual_instance(json.loads(capsys.readouterr().out))
            pair = build_cone(build_partition(parse_instance(instance))[0])
        else:
            pair = build_cone(validate_nef_partition(projective_space_parts(sizes)))
        decs = enumerate_decompositions(pair)
        assert len(decs) == count
        for dec in decs:
            assert dec.blocks == kernel_column_block_partition(dec.p)

    def test_enumeration_takes_one_rank_check_per_decomposition(self, monkeypatch):
        # subset sums give the blocks: no matrix product, kernel basis or HNF,
        # and one rank count per decomposition
        pair = build_cone(validate_nef_partition(projective_space_parts((2, 2, 2))))
        pair.dual_part_points()  # the points are cached before the path
        calls = dict.fromkeys(["matmul", "kernel_basis", "hnf", "independent_rows"], 0)

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            counted = counting(name, getattr(intmat, name))
            for module in (bridge, cones, dd, instances, intmat, nefpart, polytope):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        decs = enumerate_decompositions(pair)
        assert len(decs) == 90
        assert calls == {"matmul": 0, "kernel_basis": 0, "hnf": 0, "independent_rows": 90}


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
        if rational_rank(flat) == s - len(sizes):
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
        rank, gens, deg, deg_dual = product_projective_cone(2, 2)
        pair, _ = normalize_cone(rank, gens, deg, deg_dual)
        decs = enumerate_decompositions(pair)
        assert len(decs) == 2


class TestSkeletonDecomposition:
    def test_trivial_reference_reuses_the_enumerated_blocks(self, monkeypatch):
        # with the trivial reference, q is decomposition j's own p, whose
        # blocks enumerate_decompositions has computed already
        pair = build_cone(validate_nef_partition(projective_space_parts((2, 2, 2))))
        decs = enumerate_decompositions(pair)
        real = bridge.block_partition
        calls = []

        def counted(p_vectors):
            calls.append(p_vectors)
            return real(p_vectors)

        monkeypatch.setattr(bridge, "block_partition", counted)
        for dec in decs[1:]:
            assert bridge_skeleton(pair, decs[0], dec).dec_etilde is dec
        assert len(decs) == 90 and calls == []
        # a nontrivial reference transports decomposition j, a new one
        bridge_skeleton(pair, decs[1], decs[2])
        assert len(calls) == 1


class TestOneTransformPerSkeleton:
    def test_hnf_and_adjugate_calls(self, corpus, pp33, monkeypatch):
        # one HNF of W^T with its transform, one of Ann's rows and one inside
        # the Ann row solver; adjugates of the transform, of the N' basis and
        # of the stack [Ann ; L]
        calls = dict.fromkeys(["hnf", "adjugate"], 0)

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for name in calls:
            wrapped = counting(name, getattr(intmat, name))
            monkeypatch.setattr(intmat, name, wrapped)
            monkeypatch.setattr(bridge, name, wrapped)
        pair, decs = corpus[2]  # P^5 (2,2,2)
        runs = [(pair, decs[0], dec) for dec in decs[1:]] + [(pp33[0], *pp33[1][1:3])]
        for run in runs:
            calls.update(hnf=0, adjugate=0)
            bridge_skeleton(*run)
            assert calls["hnf"] <= 3 and calls["adjugate"] <= 3


class TestAuxiliaryLattice:
    def test_trivial(self):
        dec = make_decomposition([(0, 0), (0, 0)])
        basis, index, row_of, ann, l_rows, l_coords = skeleton_lattices(dec, 2)
        assert index == 1
        assert basis == ann == identity(2)
        assert row_of == {} and l_rows == () and l_coords == ()

    def test_contrived_index_two(self):
        dec = make_decomposition([(2, 0), (-2, 0)])
        basis, index, *_ = skeleton_lattices(dec, 2)
        assert index == 2
        assert abs(leibniz_det(basis)) == 2

    def test_index_equals_divisor_product(self, pp33):
        # the product of the elementary divisors of W is the gcd of its k x k minors
        pair, decs = pp33
        dec = make_decomposition(tuple(vsub(b, a) for a, b in zip(decs[0].p, decs[1].p)))
        basis, index, row_of, *_ = skeleton_lattices(dec, pair.d)
        rows = [dec.p[i] for i in sorted(row_of, key=row_of.get)]
        assert index == max_minor_gcd(rows)

    @staticmethod
    def check_complement(w):
        # [saturation(W) ; complement] is a basis of Z^d, and the index of W
        # in its saturation is the gcd of its k x k minors.  Ann(W) is the
        # kernel of W, and L the kernel of the complement, with L . W^T as
        # its coordinates over the w
        k, d = len(w), len(w[0])
        basis, index, row_of, ann, l_rows, l_coords = skeleton_lattices(
            one_block_decomposition(w), d
        )
        assert basis[:k] == w and row_of == {i + 1: i for i in range(k)}
        assert is_unimodular(saturation(w) + basis[k:])
        assert index == max_minor_gcd(w) == abs(leibniz_det(basis))
        assert ann == kernel_basis(w)
        expected = kernel_basis(basis[k:]) if k < d else identity(d)
        assert hnf(l_rows, transform=False)[0] == expected
        assert l_coords == matmul(l_rows, transpose(w))

    @pytest.mark.parametrize("w", [((2, 0),), ((2, 2, 0), (0, 2, 4))])
    def test_complement_of_non_saturated_rows(self, w):
        self.check_complement(w)

    def test_complement_of_random_rows(self):
        rng = random.Random(29)
        for _ in range(100):
            d = rng.randint(1, 4)
            k = rng.randint(1, d)
            w = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k))
            if rational_rank(w) == len(w):
                self.check_complement(w)


@pytest.fixture(scope="module")
def corpus():
    """Pairs and decompositions of pp33, pp53 and P^5 (2,2,2)."""
    pairs = [normalize_cone(*product_projective_cone(n, 3))[0] for n in (3, 5)]
    pairs.append(build_cone(validate_nef_partition(projective_space_parts((2, 2, 2)))))
    return [(pair, enumerate_decompositions(pair)) for pair in pairs]


class TestBridgeVectors:
    @staticmethod
    def check_pairing_tables(dec, s, d):
        basis, _, row_of, *_ = skeleton_lattices(dec, d)
        w, u, p_nprime = bridge_vectors(dec, row_of, s, d)
        k = len(row_of)
        e_rows = [tuple(1 if j == i else 0 for j in range(s)) + (0,) * d for i in range(s)]
        et_rows = [e_rows[i][:s] + p_nprime[i] for i in range(s)]
        for i in range(s):
            assert matmul((p_nprime[i],), basis)[0] == dec.p[i]
        for vec in (*w.values(), *u.values()):
            assert vec[s + k :] == (0,) * (d - k)
        for (kk, pos), vec in w.items():
            block = dec.blocks[kk]
            for i in range(s):
                assert dot(vec, e_rows[i]) == 0
                expected = 1 if i == block[pos] else (-1 if i == block[0] else 0)
                assert dot(vec, et_rows[i]) == expected
        for (kk, pos), vec in u.items():
            block = dec.blocks[kk]
            for i in range(s):
                assert dot(vec, e_rows[i]) == (1 if i == block[pos] else 0)
                assert dot(vec, et_rows[i]) == (1 if i == block[0] else 0)
        assert set(u) == {(kk, pos) for kk, b in enumerate(dec.blocks) for pos in range(len(b))}
        assert set(w) == {key for key in u if key[1] >= 1}

    def test_pairing_tables(self, corpus):
        # every (1, j) pair: the reference is trivial, so q is decomposition j
        for pair, decs in corpus:
            for dec in decs:
                self.check_pairing_tables(dec, pair.s, pair.d)
        # W of index 2 in its saturation
        dec = make_decomposition([(2, 0), (-2, 0)])
        assert skeleton_lattices(dec, 2)[1] == 2
        self.check_pairing_tables(dec, 2, 2)

    def test_trivial_decomposition_w_empty(self, two_segment_pair):
        decs = enumerate_decompositions(two_segment_pair)
        dec = decs[0]
        row_of = skeleton_lattices(dec, two_segment_pair.d)[2]
        w, u, _ = bridge_vectors(dec, row_of, two_segment_pair.s, two_segment_pair.d)
        assert w == {}
        assert set(u) == {(0, 0), (1, 0)}

    def test_misread_summand_rejected(self, pp33, monkeypatch):
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        real = bridge_mod.bridge_vectors

        def wrong(dec, row_of, s, d):
            w, u, p_nprime = real(dec, row_of, s, d)
            slot = dec.blocks[0][0]
            p_nprime[slot] = vadd(p_nprime[slot], (1,) + (0,) * (d - 1))
            return w, u, p_nprime

        pair, decs = pp33
        monkeypatch.setattr(bridge_mod, "bridge_vectors", wrong)
        with pytest.raises(InternalError, match="e~ summands misread"):
            bridge_skeleton(pair, decs[0], decs[1])

    def test_gt_supports_pair_to_delta(self, corpus):
        # so the e~ equations need no shift: (delta_j ; 0) is a section of e~
        for pair, decs in corpus:
            for dec in decs:
                skeleton = bridge_skeleton(pair, decs[0], dec)
                e_tilde = skeleton.dec_etilde.e_tilde()
                for j, support in enumerate(skeleton.gt_supports):
                    for v in support:
                        assert [dot(v, e) for e in e_tilde] == [int(i == j) for i in range(pair.s)]


class TestMLevelComplement:
    """L read off the HNF transform, against its construction as a preimage lattice."""

    @staticmethod
    def spanning_rows(w_vectors, u_vectors, s):
        """The M' parts of the w, and of the u~ = u - u_lead that span L~."""
        order = sorted(w_vectors)
        w_mprime = tuple(w_vectors[key][s:] for key in order)
        ut_mprime = tuple(vsub(u_vectors[key], u_vectors[(key[0], 0)])[s:] for key in order)
        return w_mprime, ut_mprime

    def check(self, dec, s, d):
        basis, _, row_of, _, rows, coords = skeleton_lattices(dec, d)
        w_vectors, u_vectors, _ = bridge_vectors(dec, row_of, s, d)
        w_mprime, ut_mprime = self.spanning_rows(w_vectors, u_vectors, s)
        k = len(w_mprime)
        o_coords, o_rows = m_level_complement(w_mprime, basis)
        # the same lattice, and each row's M' image is its combination of the w'
        canon = [hnf(r, transform=False)[0] for r in (rows, o_rows)]
        assert canon[0] == canon[1]
        assert coords == tuple(tuple(dot(m, b) for b in basis[:k]) for m in rows)
        assert matmul(rows, transpose(basis)) == matmul(coords, w_mprime)
        # u~' = -w': L~ is -L with the same coordinates
        ot_coords, ot_rows = m_level_complement(ut_mprime, basis)
        assert ot_rows == tuple(vneg(m) for m in o_rows) and ot_coords == o_coords
        return rows, coords

    def test_against_preimage_lattice(self, corpus):
        for pair, decs in corpus:
            for dec in decs[1:]:
                skeleton = bridge_skeleton(pair, decs[0], dec)
                rows, coords = self.check(skeleton.dec_etilde, pair.s, pair.d)
                stack = skeleton.ann_basis + rows
                # the fiber map is the stack inverse times diag(I, coords)
                n_ann = len(skeleton.ann_basis)
                diag = identity(pair.d)[:n_ann] + tuple((0,) * n_ann + row for row in coords)
                assert matmul(stack, skeleton.fiber_map) == diag
        # W of index 2 in its saturation, and W spanning all of M (k = d)
        dec = make_decomposition([(2, 0), (-2, 0)])
        assert skeleton_lattices(dec, 2)[1] == 2
        assert self.check(dec, 2, 2)[0] == ((-1, 0),)
        assert self.check(make_decomposition([(1,), (-1,)]), 2, 1) == (((-1,),), ((1,),))

    @pytest.mark.parametrize("n", [3, 5])
    def test_etilde_fiber_through_negated_stack(self, n):
        # the E~ point is y and omega at L~ pushed through the inverse of
        # [Ann ; L~ rows]: the oracle's stack inverse with its L columns negated
        p = 10007

        def monomial(point, exp):
            val = 1
            for x, e in zip(point, exp):
                val = val * pow(x, e, p) % p
            return val

        pair, _ = normalize_cone(*product_projective_cone(n, 3))
        decs = enumerate_decompositions(pair)
        for dec in decs[1:]:
            skeleton = bridge_skeleton(pair, decs[0], dec)
            basis, w_vectors, u_vectors, _ = skeleton_vectors(skeleton)
            ann = skeleton.ann_basis
            w_mprime, ut_mprime = self.spanning_rows(w_vectors, u_vectors, pair.s)
            det, adj = adjugate(ann + m_level_complement(w_mprime, basis)[1])
            negated = tuple(vscale(det, row[: len(ann)] + vneg(row[len(ann) :])) for row in adj)
            lt_coords, lt_rows = m_level_complement(ut_mprime, basis)
            assert matmul(ann + lt_rows, negated) == identity(pair.d)
            bridge = skeleton.instantiate(random_coefficients(pair, p, 5))
            samples = list(sample_determinantal_points(bridge, 5, p, 7, {}))
            assert len(samples) == 5
            for sp in samples:
                omega = []
                for mat in sp.values:
                    (vec,) = fp_echelon(list(zip(*mat)), p, reduced=True)[1]
                    omega.extend(v * pow(vec[0], -1, p) % p for v in vec[1:])
                values = list(sp.y) + [monomial(omega, c) for c in lt_coords]
                expected = tuple(monomial(values, row) for row in negated)
                assert fiber(bridge, sp.y, p, "etilde", sp.values)[0] == [expected]


def check_identities(skeleton, pair, seed):
    """The skeleton's identity results, and the identities summed as
    polynomials on the matrices it builds over QQ and over F_p."""
    assert all(skeleton.identity_results.values())
    bridges = []
    for domain in (RATIONAL, 10007):
        bridge = skeleton.instantiate(random_coefficients(pair, domain, seed))
        results = bridge_identity_results(bridge)
        assert results and all(results.values())
        assert results.keys() <= skeleton.identity_results.keys()
        bridges.append(bridge)
    return bridges


class TestBridge:
    def test_self_pair(self, two_segment_pair):
        decs = enumerate_decompositions(two_segment_pair)
        skeleton = bridge_skeleton(two_segment_pair, decs[0], decs[0])
        for bridge in check_identities(skeleton, two_segment_pair, 3):
            assert [len(m) for m in bridge.matrices] == [1, 1]
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
        for name in ("ann_basis", "fiber_map"):
            assert getattr(qq.skeleton, name) is getattr(fp.skeleton, name)
        assert qq.pair is fp.pair is skeleton.pair
        # instantiating leaves the skeleton as a fresh build would have it
        again = bridge_skeleton(pair, decs[1], decs[2]).instantiate(
            random_coefficients(pair, RATIONAL, 4)
        )
        assert again.determinants == qq.determinants
        assert again.equations_etilde == qq.equations_etilde

    def test_slice_points_mapped_once_per_pair(self, pp33, monkeypatch):
        # a slice point's Mbar' exponent carries no coefficients: the skeleton
        # converts each point once and neither field converts any again
        import doublemirror.bridge as bridge_module

        pair, decs = pp33
        convert, calls = bridge_module._mbar_to_mbarprime, []
        monkeypatch.setattr(
            bridge_module, "_mbar_to_mbarprime", lambda v, *rest: calls.append(v) or convert(v, *rest)
        )
        skeleton = bridge_skeleton(pair, decs[1], decs[2])
        assert len(calls) == len(set(calls)) == sum(len(slot) for slot in pair.slice_points())
        for domain in (RATIONAL, 10007):
            skeleton.instantiate(random_coefficients(pair, domain, 4))
        assert len(calls) == len(set(calls))

    def test_pp33_identities(self, pp33):
        pair, decs = pp33
        skeleton = bridge_skeleton(pair, decs[0], decs[1])
        for bridge in check_identities(skeleton, pair, 11):
            assert bridge.skeleton.sat_index == 1
            assert bridge.torus_rank == 2
            assert [len(m) for m in bridge.matrices] == [3]
        # every slice has 3 lattice points
        for (i, j), support in skeleton_vectors(skeleton)[3].items():
            assert len(support) == 3

    def test_pp33_nontrivial_pair(self, pp33):
        pair, decs = pp33
        check_identities(bridge_skeleton(pair, decs[1], decs[2]), pair, 11)

    def test_determinant_cross_check(self, pp33):
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 4)
        bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
        for k, mat in enumerate(bridge.matrices):
            alt = det_permutation(mat, bridge.torus_rank, RATIONAL)
            assert alt.terms == bridge.determinants[k].terms

    def test_determinant_monomial_invariance(self, pp33):
        # shifting rows/columns by annihilator monomials (the u/w choice
        # freedom) changes the determinant by a single monomial factor
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 4)
        bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
        mat = bridge.matrices[0]
        rank = bridge.torus_rank
        rng = random.Random(0)
        row_shifts = [tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in mat]
        col_shifts = [tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in mat]
        shifted = [
            tuple(
                laurent_shift(entry, vadd(row_shifts[i], col_shifts[j]))
                for j, entry in enumerate(row)
            )
            for i, row in enumerate(mat)
        ]
        new_det = det_cofactor(shifted, rank, RATIONAL)
        total = (0,) * rank
        for sh in row_shifts + col_shifts:
            total = vadd(total, sh)
        assert new_det.terms == laurent_shift(bridge.determinants[0], total).terms

    @pytest.mark.parametrize("side", ["e", "etilde"])
    def test_corrupted_stack_inverse_rejected(self, pp33, side, monkeypatch):
        # a stack inverse that passes the unimodularity check but is not the
        # inverse would push fiber points off their samples.  The E side
        # corrupts a y column, the E~ side one of the L columns it negates
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        pair, decs = pp33
        clean = bridge_skeleton(pair, decs[0], decs[1])
        n_ann = len(clean.ann_basis)
        assert 0 < n_ann < pair.d
        col = 0 if side == "e" else pair.d - 1
        l_rows = skeleton_lattices(clean.dec_etilde, pair.d)[4]
        stack = clean.ann_basis + l_rows
        adjugate = bridge_mod.adjugate
        stacks = []

        def corrupted(a):
            det, adj = adjugate(a)
            if a == stack:
                stacks.append(a)
                rows = [list(r) for r in adj]
                rows[0][col] += 1
                adj = tuple(map(tuple, rows))
            return det, adj

        monkeypatch.setattr(bridge_mod, "adjugate", corrupted)
        with pytest.raises(InternalError, match="projection of the fiber point"):
            bridge_skeleton(pair, decs[0], decs[1])
        assert len(stacks) == 1

    @pytest.mark.parametrize("side", ["e", "etilde"])
    def test_corrupted_fiber_map_rejected(self, pp33, side):
        # both sides read the one fiber map, at y ++ omega and y ++ omega^-1.
        # One wrong exponent moves the fiber point off the complete
        # intersection, which the exact check of its equations rejects: the
        # E side corrupts a y column, the E~ side an omega column
        from doublemirror.errors import InternalError
        from oracles import replace

        pair, decs = pp33
        clean = bridge_skeleton(pair, decs[0], decs[1])
        col = 0 if side == "e" else pair.d - 1
        n_ann = len(clean.ann_basis)
        assert col < n_ann if side == "e" else col >= n_ann
        rows = [list(r) for r in clean.fiber_map]
        rows[0][col] += 1
        corrupted = replace(clean, fiber_map=tuple(map(tuple, rows)))
        p = 10007
        coeffs = random_coefficients(pair, p, 0)
        bridge = clean.instantiate(coeffs)
        for sp in sample_determinantal_points(bridge, 3, p, 0, {}):
            assert len(fiber(bridge, sp.y, p, side, sp.values)[0]) == 1
            with pytest.raises(InternalError, match="violates a defining equation"):
                fiber(corrupted.instantiate(coeffs), sp.y, p, side, sp.values)

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_dropped_support_point_rejected(self, pp33, side, monkeypatch):
        # a support of g_ij that misses a point leaves block row i short of
        # the points of g_i (row 0 is checked first); one of g~_j leaves
        # block column j with a point too many
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        pair, decs = pp33
        real = bridge_mod._slice_supports

        def dropped(pair2, q):
            supports, gt_supports = real(pair2, q)
            if side == "row":
                supports[(0, 1)] = supports[(0, 1)][1:]
            else:
                gt_supports = (gt_supports[0][1:],) + gt_supports[1:]
            return supports, gt_supports

        monkeypatch.setattr(bridge_mod, "_slice_supports", dropped)
        with pytest.raises(InternalError, match=f"do not partition the points of a block {side}"):
            bridge_skeleton(pair, decs[0], decs[1])

    @pytest.mark.parametrize("coord", ["e", "mprime"])
    def test_corrupted_entry_shift_rejected(self, pp33, coord, monkeypatch):
        # one entry moved by a monomial breaks its row identity.  A shift in
        # the e part is what the Ann(e, e~) conversion no longer checks
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        pair, decs = pp33
        real = bridge_mod.entry_shifts

        def corrupted(blocks, u_vectors, w_vectors):
            shifts = real(blocks, u_vectors, w_vectors)
            c = 0 if coord == "e" else pair.s
            shifts[(0, 1, 2)] = tuple(x + (i == c) for i, x in enumerate(shifts[(0, 1, 2)]))
            return shifts

        monkeypatch.setattr(bridge_mod, "entry_shifts", corrupted)
        with pytest.raises(InternalError, match=r"A_k \. w_k identity failed"):
            bridge_skeleton(pair, decs[0], decs[1])

    def test_sublattice_annihilator_rejected(self, pp33, monkeypatch):
        # a basis of an index-2 sublattice of Ann(e, e~) fails the Ann(e)'
        # split, which is not checked on its own.  Here some entry exponents
        # lie outside the sublattice, so reading them over its basis rejects it
        import doublemirror.bridge as bridge_mod
        from doublemirror.errors import InternalError

        pair, decs = pp33
        real = bridge_mod.skeleton_lattices

        def doubled(dec, d):
            basis, index, row_of, ann, l_rows, l_coords = real(dec, d)
            ann = (vscale(2, ann[0]),) + ann[1:]
            return basis, index, row_of, ann, l_rows, l_coords

        monkeypatch.setattr(bridge_mod, "skeleton_lattices", doubled)
        with pytest.raises(InternalError, match=r"entry exponent left Ann\(e, e~\)"):
            bridge_skeleton(pair, decs[0], decs[1])

    @pytest.mark.parametrize("p", [((-2, 0), (1, 0), (1, 0)), ((-2,), (1,), (1,))])
    def test_dependent_block_vectors_rejected(self, p):
        # make_decomposition's rank check rules this out, so the record is
        # built directly: two equal W rows, then more W rows than d
        dec = Decomposition(p=p, blocks=((0, 1, 2),))
        with pytest.raises(InternalError, match="block vectors are linearly dependent"):
            skeleton_lattices(dec, len(p[0]))

    def test_corrupted_transform_inverse_rejected(self, pp33, monkeypatch):
        # the last complement row, a column of u's inverse, doubled: the N'
        # basis then has twice the index of W in its saturation
        import doublemirror.bridge as bridge_mod

        pair, decs = pp33
        w = [decs[1].p[i] for block in decs[1].blocks for i in block[1:]]
        assert len(w) < pair.d
        _, u = hnf(transpose(w))
        real = bridge_mod.adjugate

        def corrupted(a):
            det, adj = real(a)
            if a == u:
                adj = tuple(r[:-1] + (2 * r[-1],) for r in adj)
            return det, adj

        monkeypatch.setattr(bridge_mod, "adjugate", corrupted)
        with pytest.raises(InternalError, match="auxiliary lattice index mismatch"):
            bridge_skeleton(pair, decs[0], decs[1])

    @pytest.mark.parametrize("corrupt, message", [
        ("drop_ann_row", r"Ann\(e, e~\) has unexpected rank"),
        ("double_l_row", r"Ann\(e\) does not split as Ann\(e,e~\) \(\+\) L"),
    ], ids=["drop_ann_row", "double_l_row"])
    def test_corrupted_split_rejected(self, pp33, corrupt, message, monkeypatch):
        # one Ann row fewer than d - k; one L row doubled, so the stack of
        # Ann and L has determinant +-2
        import doublemirror.bridge as bridge_mod

        pair, decs = pp33
        real = bridge_mod.skeleton_lattices

        def corrupted(dec, d):
            basis, index, row_of, ann, l_rows, l_coords = real(dec, d)
            if corrupt == "drop_ann_row":
                ann = ann[1:]
            else:
                l_rows = (vscale(2, l_rows[0]),) + l_rows[1:]
            return basis, index, row_of, ann, l_rows, l_coords

        monkeypatch.setattr(bridge_mod, "skeleton_lattices", corrupted)
        with pytest.raises(InternalError, match=message):
            bridge_skeleton(pair, decs[0], decs[1])

    def test_trivial_tuple_rejected_when_sum_nonzero(self):
        from doublemirror.errors import InputError

        with pytest.raises(InputError, match=r"^p vectors do not sum to zero$"):
            make_decomposition([(1, 0), (0, 1)])

    def test_slice_polynomials_standalone(self, pp33):
        # each slot's g_ij, read off the built entries, have the supports the
        # skeleton keeps and add up to its whole slot polynomial; the expected
        # terms come from the pair's points and the coefficients
        pair, decs = pp33
        coeffs = random_coefficients(pair, RATIONAL, 11)
        bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
        skeleton, s = bridge.skeleton, pair.s
        (block,) = skeleton.blocks
        _, w_vectors, u_vectors, slice_supports = skeleton_vectors(skeleton)
        assert sorted(block) == list(range(s))

        def g(i, j):
            # entry (i, j) of A_1 is X^{-u_i - w_j} g_ij, w_0 = 0
            pos_i, pos_j = block.index(i), block.index(j)
            shift = u_vectors[(0, pos_i)]
            if pos_j >= 1:
                shift = vadd(shift, w_vectors[(0, pos_j)])
            return laurent_shift(to_mbar_prime(skeleton, bridge.matrices[0][pos_i][pos_j]), shift)

        for i, slot_points in enumerate(skeleton.pair.slice_points()):
            total = g(i, 0)
            assert total == slice_polynomial(bridge, slice_supports[(i, 0)])
            for j in range(1, s):
                assert g(i, j) == slice_polynomial(bridge, slice_supports[(i, j)])
                total = laurent_add(total, g(i, j))
            assert total == slice_polynomial(bridge, slot_points)

    def test_canonical_linear_equivalence_form(self, pp33):
        # e~_i - e_i = (0 ; p_i): the lattice-level linear-equivalence statement
        pair, decs = pp33
        for dec in decs:
            for i, e in enumerate(dec.e_tilde()):
                e_i = tuple(1 if k == i else 0 for k in range(pair.s)) + (0,) * pair.d
                diff = vsub(e, e_i)
                assert diff[: pair.s] == (0,) * pair.s
                assert diff[pair.s :] == dec.p[i]


class TestComplementInvariance:
    """The reports do not depend on the transform ``skeleton_lattices`` reads
    the complement, L and Ann(e, e~) off (the argument is in its docstring)."""

    @staticmethod
    def perturbed(real_hnf, seed):
        # u -> [[I, X], [0, G]] . u with X integral and G unimodular, a row
        # swap or a sign flip making det G = -1: u . W^T = [T ; 0] still
        # holds, and the complement, L and Ann's rows before their HNF move
        # together.  Only the W^T call asks for the transform
        rng = random.Random(seed)

        def hnf_perturbed(a, transform=True):
            h, u = real_hnf(a, transform)
            if not transform:
                return h, u
            d, k = len(u), sum(1 for row in h if any(row))
            g = [[int(i == j) for j in range(d - k)] for i in range(d - k)]
            if d - k == 1:
                g[0][0] = -1
            elif d - k > 1:
                g[0], g[1] = g[1], g[0]
            for i in range(d - k):
                for j in range(i):
                    g[i] = [x + rng.randint(-2, 2) * y for x, y in zip(g[i], g[j])]
            m = tuple(
                tuple(int(i == j) for j in range(k)) + tuple(rng.randint(-3, 3) for _ in g)
                for i in range(k)
            ) + tuple((0,) * k + tuple(row) for row in g)
            changed = matmul(m, u)
            assert k == d or changed != u
            return h, changed

        return hnf_perturbed

    @pytest.mark.parametrize("name,pair", [("pp33", "1 2"), ("pp33", "2 3"), ("pp53", "1 2"),
                                           ("p5-222", "1 2"), ("p5-222", "2 3")])
    @pytest.mark.parametrize("command", [["bridge"], ["verify", "--samples", "6"]])
    def test_reports_unchanged(self, name, pair, command, monkeypatch, capsys):
        import doublemirror.bridge as bridge_mod

        monkeypatch.chdir(GOLDEN)
        argv = [command[0], f"{name}.json", "--pair", *pair.split(), *command[1:]]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        real = bridge_mod.hnf
        for seed in range(3):
            monkeypatch.setattr(bridge_mod, "hnf", self.perturbed(real, seed))
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
