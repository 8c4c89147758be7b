"""Sampling harness: D points, fibers, evidence reports, regularity probe."""

import random

import pytest

from doublemirror.bridge import build_bridge, enumerate_decompositions, random_coefficients
from doublemirror.canned import product_projective_lattice, two_segment_parts
from doublemirror.cones import build_cone, normalize_cone
from doublemirror.errors import InputError
from doublemirror.evidence import (
    NON_GENERIC,
    birationality_evidence,
    delta_regularity_probe,
    fiber,
    fp_echelon,
    sample_determinantal_points,
)
from doublemirror.laurent import LaurentPoly, fp_roots
from doublemirror.lattices import LatticeEmbedding
from doublemirror.nefpart import validate_nef_partition
from doublemirror.polytope import Polytope
from oracles import block_determinant

P = 10007


@pytest.fixture(scope="module")
def pp33_bridge():
    lattice, gens, deg, deg_dual = product_projective_lattice(3, 3)
    pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    coeffs = random_coefficients(pair, P, 0)
    return build_bridge(pair, decs[0], decs[1], coeffs)


class TestFpLinearAlgebra:
    def test_det(self):
        assert fp_echelon([[1, 2], [3, 4]], P, square=True)[1] == (4 - 6) % P
        assert fp_echelon([[1, 2], [2, 4]], P, square=True)[1] == 0

    def test_right_kernel(self):
        basis = fp_echelon([[1, 2, 3]], P, reduced=True)[2]
        assert len(basis) == 2
        for v in basis:
            assert (v[0] + 2 * v[1] + 3 * v[2]) % P == 0

    def test_kernel_of_invertible_is_empty(self):
        assert fp_echelon([[1, 0], [1, 1]], P, reduced=True)[2] == []


class TestSampling:
    def test_pp33_samples_on_locus(self, pp33_bridge):
        samples, stats = sample_determinantal_points(pp33_bridge, 25, P, 0)
        assert stats["found"] == len(samples) > 0
        for sp in samples:
            assert all(1 <= v <= P - 1 for v in sp.y)
            for block in pp33_bridge.matrices:
                mat = [[poly.evaluate(sp.y) for poly in row] for row in block]
                assert fp_echelon(mat, P, square=True)[1] == 0
            assert sp.kernel_dims == (1,)

    def test_deterministic(self, pp33_bridge):
        s1, _ = sample_determinantal_points(pp33_bridge, 10, P, 7)
        s2, _ = sample_determinantal_points(pp33_bridge, 10, P, 7)
        assert [sp.y for sp in s1] == [sp.y for sp in s2]

    def test_small_prime_rejected(self, pp33_bridge):
        with pytest.raises(InputError):
            sample_determinantal_points(pp33_bridge, 1, 97, 0)

    def test_wrong_domain_rejected(self, pp33_bridge):
        with pytest.raises(InputError):
            sample_determinantal_points(pp33_bridge, 1, 65537, 0)


class TestLineRestriction:
    # the sampler takes det A_1 on a line from the determinant ``instantiate``
    # built; the oracle evaluates block 0 at the point and eliminates
    @pytest.mark.parametrize("n,i,j", [(3, 1, 2), (3, 2, 3), (5, 1, 2)])
    def test_matches_block_determinant(self, n, i, j):
        lattice, gens, deg, deg_dual = product_projective_lattice(n, 3)
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        decs = enumerate_decompositions(pair)
        bridge = build_bridge(pair, decs[i - 1], decs[j - 1], random_coefficients(pair, P, 0))
        block0, dd = bridge.matrices[0], bridge.torus_rank
        rng = random.Random(100 * n + 10 * i + j)
        roots_seen = 0
        for _ in range(8):
            free = rng.randrange(dd)
            fixed = tuple(rng.randrange(1, P) if k != free else 1 for k in range(dd))
            offset, coeffs = bridge.determinants[0].restrict_to_line(fixed, free)

            def point(t):
                return tuple(t if k == free else fixed[k] for k in range(dd))

            for _ in range(3):
                t = rng.randrange(1, P)
                value = pow(t, offset, P) * sum(c * pow(t, k, P) for k, c in enumerate(coeffs))
                assert value % P == block_determinant(block0, point(t), P)
            for t in fp_roots(coeffs, P) if coeffs else ():
                assert block_determinant(block0, point(t), P) == 0
                roots_seen += 1
        assert roots_seen > 0


class TestFiber:
    def test_off_locus_empty(self, pp33_bridge):
        # a random torus point is almost surely off D; find one explicitly
        y = (1, 1)
        mat = [[poly.evaluate(y) for poly in row] for row in pp33_bridge.matrices[0]]
        if fp_echelon(mat, P, square=True)[1] == 0:
            y = (2, 5)
        assert fiber(pp33_bridge, y, P, side="e") == []

    def test_fiber_points_satisfy_equations(self, pp33_bridge):
        samples, _ = sample_determinantal_points(pp33_bridge, 10, P, 1)
        for sp in samples:
            for side in ("e", "etilde"):
                pts = fiber(pp33_bridge, sp.y, P, side=side)
                assert pts != NON_GENERIC
                assert len(pts) == 1
                eqs = (
                    pp33_bridge.equations_e if side == "e" else pp33_bridge.equations_etilde
                )
                for eq in eqs:
                    assert eq.evaluate(pts[0]) == 0

    def test_off_torus_rejected(self, pp33_bridge):
        with pytest.raises(InputError):
            fiber(pp33_bridge, (0, 1), P)

    def test_rank_deficient_marks_non_generic(self, pp33_bridge):
        # kernel-dimension >= 2 must surface as the non-generic marker:
        # craft a bridge whose matrix vanishes identically at every point
        import dataclasses

        zero = LaurentPoly.zero(pp33_bridge.torus_rank, P)
        crafted = dataclasses.replace(
            pp33_bridge, matrices=(((zero, zero), (zero, zero)),)
        )
        assert fiber(crafted, (1, 1), P, side="e") == NON_GENERIC


class TestEvidence:
    def test_pp33_report(self, pp33_bridge):
        report = birationality_evidence(pp33_bridge, 40, P, 0)
        assert report.samples_on_d == 40
        assert report.fiber_histogram_e.get("1") == 40
        assert report.fiber_histogram_etilde.get("1") == 40
        assert report.verdict
        assert report.delta_regular_pass_rate == "1/1"

    def test_determinism(self, pp33_bridge):
        r1 = birationality_evidence(pp33_bridge, 15, P, 3)
        r2 = birationality_evidence(pp33_bridge, 15, P, 3)
        assert r1.payload() == r2.payload()

    def test_side_symmetry(self):
        # swapping the decompositions swaps the histograms, same seed
        lattice, gens, deg, deg_dual = product_projective_lattice(3, 3)
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        decs = enumerate_decompositions(pair)
        coeffs = random_coefficients(pair, P, 0)
        fwd = build_bridge(pair, decs[1], decs[2], coeffs)
        bwd = build_bridge(pair, decs[2], decs[1], coeffs)
        r_fwd = birationality_evidence(fwd, 20, P, 5)
        r_bwd = birationality_evidence(bwd, 20, P, 5)
        assert r_fwd.samples_on_d == r_bwd.samples_on_d
        assert r_fwd.fiber_histogram_e == r_bwd.fiber_histogram_etilde
        assert r_fwd.fiber_histogram_etilde == r_bwd.fiber_histogram_e

    def test_two_segment_warns_not_two_independent(self):
        Z2 = LatticeEmbedding.full(2)
        parts = [Polytope.from_points(Z2, pts) for pts in two_segment_parts()]
        pair = build_cone(validate_nef_partition(parts))
        decs = enumerate_decompositions(pair)
        coeffs = random_coefficients(pair, P, 0)
        bridge = build_bridge(pair, decs[0], decs[0], coeffs)
        report = birationality_evidence(bridge, 10, P, 0)
        assert any("2-independent" in w for w in report.warnings)
        assert any("not proven" in w for w in report.warnings)


class TestDeltaRegularity:
    def test_full_rank_on_fibers(self, pp33_bridge):
        samples, _ = sample_determinantal_points(pp33_bridge, 10, P, 2)
        points = []
        for sp in samples:
            points.extend(fiber(pp33_bridge, sp.y, P, side="e"))
        rate = delta_regularity_probe(pp33_bridge, points, P, side="e")
        assert rate == 1

    def test_duplicated_equation_fails(self, pp33_bridge):
        # craft a system with f2 = X^delta f1: the logarithmic Jacobian rows
        # become proportional at common zeros, so the probe must report 0
        import dataclasses

        d = pp33_bridge.pair.d
        eq1 = pp33_bridge.equations_e[0]
        shifted = eq1.shift((1, 0, 0, 0))
        crafted = dataclasses.replace(
            pp33_bridge, equations_e=(eq1, shifted, shifted.shift((0, 1, 0, 0)))
        )
        # common zeros of all three equations = zeros of eq1
        pts = []
        from doublemirror.laurent import SplitMix64

        rng = SplitMix64(9)
        while len(pts) < 5:
            fixed = tuple(rng.nonzero_mod(P) if i else 1 for i in range(d))
            lo, coeffs = eq1.restrict_to_line(fixed, 0)
            from doublemirror.laurent import fp_roots

            for root in fp_roots(coeffs, P):
                pts.append(tuple(root if i == 0 else fixed[i] for i in range(d)))
                break
        rate = delta_regularity_probe(crafted, pts, P, side="e")
        assert rate == 0
