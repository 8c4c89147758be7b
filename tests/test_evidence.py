"""Sampling harness: D points, fibers, evidence reports, regularity probe."""

import random
import weakref
from fractions import Fraction

import pytest

from doublemirror import evidence
from doublemirror.bridge import bridge_skeleton, enumerate_decompositions, random_coefficients
from doublemirror.canned import two_segment_parts
from doublemirror.cones import build_cone, normalize_cone
from doublemirror.errors import InputError
from doublemirror.evidence import (
    LINE_TRIES,
    NON_GENERIC,
    SamplePoint,
    birationality_evidence,
    fiber,
    fp_echelon,
    sample_determinantal_points,
)
from doublemirror.laurent import LaurentPoly, TermTable, fp_roots
from doublemirror.lattices import LatticeEmbedding
from oracles import (
    block_determinant,
    delta_regularity_probe,
    laurent_shift,
    leibniz_det,
    polytope_from_points,
    product_projective_lattice,
    validate_nef_partition,
)

P = 10007


def pipeline_bridge(n, t, prime, seed):
    """The F_p bridge that ``pipeline`` builds for the pair (1, 2) of pp(n, t)."""
    pair, _ = normalize_cone(*product_projective_lattice(n, t))
    decs = enumerate_decompositions(pair)
    coeffs = random_coefficients(pair, prime, seed)
    return bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)


@pytest.fixture(scope="module")
def pp33_bridge():
    return pipeline_bridge(3, 3, P, 0)


class TestFpLinearAlgebra:
    def test_det(self):
        # the sampler's test for det != 0 is full rank
        assert fp_echelon([[1, 2], [3, 4]], P)[0] == 2
        assert fp_echelon([[1, 2], [2, 4]], P)[0] == 1
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 4)
            mat = [[rng.choice([0, 1, P - 1]) for _ in range(n)] for _ in range(n)]
            assert (fp_echelon(mat, P)[0] == n) == (leibniz_det(mat) % P != 0)

    def test_right_kernel(self):
        basis = fp_echelon([[1, 2, 3]], P, reduced=True)[1]
        assert len(basis) == 2
        for v in basis:
            assert (v[0] + 2 * v[1] + 3 * v[2]) % P == 0

    def test_kernel_of_invertible_is_empty(self):
        assert fp_echelon([[1, 0], [1, 1]], P, reduced=True)[1] == []


class TestSampling:
    def test_pp33_samples_on_locus(self, pp33_bridge):
        stats = {}
        samples = list(sample_determinantal_points(pp33_bridge, 25, P, 0, stats))
        assert stats["found"] == len(samples) > 0
        for sp in samples:
            assert all(1 <= v <= P - 1 for v in sp.y)
            for block in pp33_bridge.matrices:
                mat = [[poly.evaluate(sp.y) for poly in row] for row in block]
                assert leibniz_det(mat) % P == 0
            assert [len(mat) - fp_echelon(mat, P)[0] for mat in sp.values] == [1]

    def test_deterministic(self, pp33_bridge):
        s1 = list(sample_determinantal_points(pp33_bridge, 10, P, 7, {}))
        s2 = list(sample_determinantal_points(pp33_bridge, 10, P, 7, {}))
        assert [sp.y for sp in s1] == [sp.y for sp in s2]

    def test_a_sample_may_draw_more_than_line_tries_lines(self):
        # at this prime and seed sample 30 meets D only on its 13th line;
        # the run-wide budget of LINE_TRIES lines per sample still finds it
        p, seed = 1000003, 210103
        bridge, stats = pipeline_bridge(3, 3, p, seed), {}
        samples = list(sample_determinantal_points(bridge, 60, p, seed, stats))
        assert len(samples) == stats["found"] == 60
        assert stats["line_tries"] <= LINE_TRIES * 60

    def test_fewer_samples_are_a_prefix(self, pp33_bridge):
        # each sample draws from its own stream, so asking for more samples
        # leaves the first ones unchanged
        many = list(sample_determinantal_points(pp33_bridge, 60, P, 210103, {}))
        few = list(sample_determinantal_points(pp33_bridge, 30, P, 210103, {}))
        assert many[:30] == few

    def test_empty_d_spends_the_whole_budget(self):
        # pp(2, 3) has torus rank 1 and, at this seed, det A_1 has no root in
        # F_p*: every sample fails, and the run draws exactly the budget
        bridge = pipeline_bridge(2, 3, P, 0)
        assert bridge.torus_rank == 1
        stats = {}
        samples = list(sample_determinantal_points(bridge, 20, P, 0, stats))
        assert samples == [] and stats["line_tries"] == LINE_TRIES * 20
        assert stats["warnings"] == ["D is finite (rank-one torus) and has no F_p*-point"]

    def test_evidence_holds_at_most_two_samples(self, pp33_bridge, monkeypatch):
        # each sample's fibers are counted and dropped before the next line
        # is drawn: the loop's last sample and the one being built
        live = {"now": 0, "peak": 0}

        def dropped():
            live["now"] -= 1

        def counted(**fields):
            sp = SamplePoint(**fields)
            weakref.finalize(sp, dropped)
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            return sp

        monkeypatch.setattr(evidence, "SamplePoint", counted)
        report = birationality_evidence(pp33_bridge, 200, P, 0)
        assert report.samples_on_d == 200
        assert 1 <= live["peak"] <= 2

    def test_small_prime_rejected(self, pp33_bridge):
        with pytest.raises(InputError):
            next(sample_determinantal_points(pp33_bridge, 1, 97, 0, {}))

    def test_wrong_domain_rejected(self, pp33_bridge):
        with pytest.raises(InputError):
            next(sample_determinantal_points(pp33_bridge, 1, 65537, 0, {}))


class TestLineRestriction:
    # the sampler takes det A_1 on a line from the determinant ``instantiate``
    # built; the oracle evaluates block 0 at the point and eliminates
    @pytest.mark.parametrize("n,i,j", [(3, 1, 2), (3, 2, 3), (5, 1, 2)])
    def test_matches_block_determinant(self, n, i, j):
        lattice, gens, deg, deg_dual = product_projective_lattice(n, 3)
        pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
        decs = enumerate_decompositions(pair)
        coeffs = random_coefficients(pair, P, 0)
        bridge = bridge_skeleton(pair, decs[i - 1], decs[j - 1]).instantiate(coeffs)
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
        if leibniz_det(mat) % P == 0:
            y = (2, 5)
        assert fiber(pp33_bridge, y, P, side="e") == ([], 0)

    def test_fiber_points_satisfy_equations(self, pp33_bridge):
        samples = list(sample_determinantal_points(pp33_bridge, 10, P, 1, {}))
        for sp in samples:
            for side in ("e", "etilde"):
                pts, regular = fiber(pp33_bridge, sp.y, P, side=side)
                assert pts != NON_GENERIC
                assert len(pts) == 1
                assert regular == 1
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
        from doublemirror.records import replace

        zero = LaurentPoly.from_dict(pp33_bridge.torus_rank, {}, P)
        crafted = replace(
            pp33_bridge, matrices=(((zero, zero), (zero, zero)),)
        )
        assert fiber(crafted, (1, 1), P, side="e") == (NON_GENERIC, 0)


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
        fwd = bridge_skeleton(pair, decs[1], decs[2]).instantiate(coeffs)
        bwd = bridge_skeleton(pair, decs[2], decs[1]).instantiate(coeffs)
        r_fwd = birationality_evidence(fwd, 20, P, 5)
        r_bwd = birationality_evidence(bwd, 20, P, 5)
        assert r_fwd.samples_on_d == r_bwd.samples_on_d
        assert r_fwd.fiber_histogram_e == r_bwd.fiber_histogram_etilde
        assert r_fwd.fiber_histogram_etilde == r_bwd.fiber_histogram_e

    def test_degenerate_equations_lower_pass_rate(self, pp33_bridge):
        # the crafted system of TestDeltaRegularity.test_duplicated_equation_fails,
        # run end to end: its fiber points still satisfy every equation, but
        # the logarithmic Jacobian of the E side never has full rank
        from doublemirror.records import replace

        eq1 = pp33_bridge.equations_e[0]
        shifted = laurent_shift(eq1, (1, 0, 0, 0))
        crafted = replace(
            pp33_bridge, equations_e=(eq1, shifted, laurent_shift(shifted, (0, 1, 0, 0)))
        )
        report = birationality_evidence(crafted, 12, P, 0)
        assert report.samples_on_d == 12
        assert report.fiber_histogram_e == {"1": 12}
        assert report.fiber_histogram_etilde == {"1": 12}
        assert Fraction(report.delta_regular_pass_rate) < 1
        assert report.delta_regular_pass_rate == "1/2"

    def test_non_generic_samples_in_report(self, pp33_bridge):
        # the crafted bridge of TestFiber.test_rank_deficient_marks_non_generic:
        # every sample has a two-dimensional kernel on both sides
        from doublemirror.records import replace

        zero = LaurentPoly.from_dict(pp33_bridge.torus_rank, {}, P)
        crafted = replace(
            pp33_bridge, matrices=(((zero, zero), (zero, zero)),)
        )
        report = birationality_evidence(crafted, 6, P, 0)
        assert report.samples_on_d == 6
        assert report.fiber_histogram_e == {NON_GENERIC: 6}
        assert report.fiber_histogram_etilde == {NON_GENERIC: 6}
        assert report.delta_regular_pass_rate is None
        assert "non-generic samples excluded from the birationality verdict" in report.warnings
        assert report.verdict is False

    def test_two_segment_warns_not_two_independent(self):
        Z2 = LatticeEmbedding.full(2)
        parts = [polytope_from_points(Z2, pts) for pts in two_segment_parts()]
        pair = build_cone(validate_nef_partition(parts))
        decs = enumerate_decompositions(pair)
        coeffs = random_coefficients(pair, P, 0)
        bridge = bridge_skeleton(pair, decs[0], decs[0]).instantiate(coeffs)
        report = birationality_evidence(bridge, 10, P, 0)
        assert any("2-independent" in w for w in report.warnings)
        assert any("not proven" in w for w in report.warnings)


class TestEvaluationCounts:
    def test_one_evaluation_per_block_and_one_pass_per_fiber_point(self, pp33_bridge, monkeypatch):
        # each block is evaluated by one table call at a D point, for the
        # kernel dimensions and both fibers; each equation system by one table
        # call at a fiber point, for the exactness check and the log-Jacobian
        # rows together; no polynomial of either is evaluated on its own
        blocks, systems = pp33_bridge.term_tables()
        polys = {id(f) for block in pp33_bridge.matrices for row in block for f in row}
        polys |= {id(eq) for eq in pp33_bridge.equations_e + pp33_bridge.equations_etilde}
        calls = {"block": 0, "system": 0, "alone": 0}
        real_values = TermTable.values
        real_pass = TermTable.values_and_log_gradients
        real_compiled = LaurentPoly._compiled

        def values(self, *args):
            calls["block"] += any(self is t for t in blocks)
            return real_values(self, *args)

        def values_and_log_gradients(self, *args):
            calls["system"] += any(self is t for t in systems.values())
            return real_pass(self, *args)

        def compiled(self):
            calls["alone"] += id(self) in polys
            return real_compiled(self)

        monkeypatch.setattr(TermTable, "values", values)
        monkeypatch.setattr(TermTable, "values_and_log_gradients", values_and_log_gradients)
        monkeypatch.setattr(LaurentPoly, "_compiled", compiled)
        report = birationality_evidence(pp33_bridge, 20, P, 0)
        assert report.fiber_histogram_e == report.fiber_histogram_etilde == {"1": 20}
        assert calls == {"block": 20 * len(pp33_bridge.matrices), "system": 20 * 2, "alone": 0}

    def test_replaced_equations_are_compiled_again(self, pp33_bridge):
        # the crafted system of TestDeltaRegularity.test_duplicated_equation_fails,
        # built after the original bridge compiled its tables: the fiber must
        # be checked against the new equations, whose Jacobian is degenerate
        from doublemirror.records import replace

        (sp,) = list(sample_determinantal_points(pp33_bridge, 1, P, 2, {}))
        assert fiber(pp33_bridge, sp.y, P, "e", sp.values)[1] == 1
        eq1 = pp33_bridge.equations_e[0]
        shifted = laurent_shift(eq1, (1, 0, 0, 0))
        crafted = replace(
            pp33_bridge, equations_e=(eq1, shifted, laurent_shift(shifted, (0, 1, 0, 0)))
        )
        assert crafted.term_tables() is not pp33_bridge.term_tables()
        points, regular = fiber(crafted, sp.y, P, "e", sp.values)
        assert len(points) == 1 and regular == 0


class TestDeltaRegularity:
    def test_full_rank_on_fibers(self, pp33_bridge):
        samples = list(sample_determinantal_points(pp33_bridge, 10, P, 2, {}))
        points = []
        for sp in samples:
            points.extend(fiber(pp33_bridge, sp.y, P, side="e")[0])
        rate = delta_regularity_probe(pp33_bridge, points, P, side="e")
        assert rate == 1

    def test_duplicated_equation_fails(self, pp33_bridge):
        # craft a system with f2 = X^delta f1: the logarithmic Jacobian rows
        # become proportional at common zeros, so the probe must report 0
        from doublemirror.records import replace

        d = pp33_bridge.pair.d
        eq1 = pp33_bridge.equations_e[0]
        shifted = laurent_shift(eq1, (1, 0, 0, 0))
        crafted = replace(
            pp33_bridge, equations_e=(eq1, shifted, laurent_shift(shifted, (0, 1, 0, 0)))
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
