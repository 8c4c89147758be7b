"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import json
import random
import time

import pytest

from doublemirror.bridge import (
    block_partition,
    bridge_skeleton,
    enumerate_decompositions,
    random_coefficients,
)
from doublemirror.canned import two_segment_parts
from doublemirror.cli import main as cli_main
from doublemirror.cones import build_cone, normalize_cone
from doublemirror.evidence import fiber, sample_determinantal_points
from doublemirror.instances import dumps, example_instance
from doublemirror.intmat import (
    RowSolver,
    dot,
    hnf,
    kernel_basis,
    matmul,
    vsub,
)
from doublemirror.laurent import RATIONAL
from doublemirror.polytope import sum_from_cayley_rays
from oracles import (
    bridge_identity_results,
    delta_regularity_probe,
    dual_polytope,
    hull_vertices,
    is_reflexive,
    is_unimodular,
    kernel_column_block_partition,
    laurent_shift,
    max_minor_gcd,
    mul_vec,
    pairwise_minkowski_sum,
    product_projective_basis,
    product_projective_cone,
    replace,
    validate_nef_partition,
    verify_reflexive_gorenstein,
)
from test_bridge import _random_block_tuple
from test_intmat import is_row_hnf, same_row_span


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


@pytest.fixture(scope="module")
def pp53():
    rank, gens, deg, deg_dual = product_projective_cone(5, 3)
    pair, info = normalize_cone(rank, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    return product_projective_basis(5, 3), pair, info, decs


@pytest.fixture(scope="module")
def corpus():
    """(name, pair, decompositions) for the full test corpus."""
    parts = [hull_vertices(pts) for pts in two_segment_parts()]
    two_seg = build_cone(validate_nef_partition(parts))
    items = [("two-segment", two_seg, enumerate_decompositions(two_seg))]
    for n, t in ((2, 2), (3, 3)):
        rank, gens, deg, deg_dual = product_projective_cone(n, t)
        pair, _ = normalize_cone(rank, gens, deg, deg_dual)
        items.append((f"product-projective({n},{t})", pair, enumerate_decompositions(pair)))
    return items


def test_criterion_1_structural_reproduction(pp53, tmp_path, capsys):
    started = time.monotonic()
    basis, pair, info, decs = pp53

    instance = example_instance("product-projective", 5, 3)
    assert len(instance["cone"]["generators"]) == 125
    assert len(basis) == 13
    assert info["generator_count"] == 125
    assert len(decs) == 3

    # the same counts through the CLI surface
    inst_path = tmp_path / "pp53.json"
    inst_path.write_text(dumps(instance), encoding="utf-8")
    assert cli_main(["decompose", str(inst_path), "--output", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    cli_report = json.loads((tmp_path / "d.json").read_text())
    assert cli_report["result"]["count"] == 3
    assert cli_report["result"]["normalization"]["generator_count"] == 125

    assert pair.s == 5 and pair.d == 8
    coeffs = random_coefficients(pair, RATIONAL, seed=0)
    bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
    assert bridge.skeleton.dec_etilde.r == 1
    assert [len(m) for m in bridge.matrices] == [5]

    # det A_1 is a degree-5 form on the rank-4 torus: at most C(9,4) terms,
    # every coordinate width at most 5 and attained
    det = bridge.determinants[0]
    assert bridge.torus_rank == 4
    assert 0 < len(det.terms) <= 126
    widths = [
        det.exponent_range(c)[1] - det.exponent_range(c)[0] for c in range(4)
    ]
    assert max(widths) == 5 and all(w <= 5 for w in widths)

    # entries match A_1(z) = (sum_k c_ijk z_k) up to row/column monomial
    # rescaling: supports are translates of one 5-point set, with the
    # translation additive in (row, column)
    mat = bridge.matrices[0]
    base = {}
    diff_sets = set()
    for i in range(5):
        for j in range(5):
            support = sorted(e for e, _ in mat[i][j].terms)
            assert len(support) == 5
            rep = support[0]
            base[(i, j)] = rep
            diff_sets.add(tuple(vsub(e, rep) for e in support))
    assert len(diff_sets) == 1
    for i in range(5):
        for j in range(5):
            lhs = vsub(vsub(base[(i, j)], base[(0, j)]), vsub(base[(i, 0)], base[(0, 0)]))
            assert all(x == 0 for x in lhs)

    # slice supports carry the triple-index structure of the 125 generators:
    # fixing the row fixes one ambient index block, the column another, and
    # the five terms run over the third
    part_points = bridge.pair.part_points()
    q = bridge.skeleton.dec_etilde.p
    triples = {}
    for i in range(5):
        for j in range(5):
            pts = [
                m
                for m in part_points[i]
                if dot(m, q[j]) == 1 - (1 if i == j else 0)
            ]
            assert len(pts) == 5
            ambients = []
            for m in pts:
                root = bridge.pair.point_to_root(bridge.pair.slot_point(i, m))
                amb = matmul((root,), basis)[0]
                supp = tuple(sorted(k for k, x in enumerate(amb) if x == 1))
                assert len(supp) == 3 and all(x in (0, 1) for x in amb)
                ambients.append(tuple(s % 5 for s in supp))
            blocks_fixed = [len({a[axis] for a in ambients}) for axis in range(3)]
            triples[(i, j)] = blocks_fixed
    for key, fixed in triples.items():
        assert sorted(fixed) == [1, 1, 5]

    # coefficients in each entry are exactly the assigned slice values
    for i in range(5):
        for j in range(5):
            entry_coeffs = sorted(c for _e, c in mat[i][j].terms)
            expected = sorted(
                coeffs.value(bridge.pair.point_to_root(bridge.pair.slot_point(i, m)))
                for m in part_points[i]
                if dot(m, q[j]) == 1 - (1 if i == j else 0)
            )
            assert entry_coeffs == expected

    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(
        "criterion 1: (5,3) structure (rank 13, 125 generators, 3 decompositions, 5x5 matrix)",
        True,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_birationality_evidence(pp53, tmp_path):
    started = time.monotonic()
    basis, pair, info, decs = pp53
    from doublemirror.evidence import birationality_evidence

    skeleton = bridge_skeleton(pair, decs[0], decs[1])
    for prime in (10007, 65537):
        bridge = skeleton.instantiate(random_coefficients(pair, prime, seed=0))
        report = birationality_evidence(bridge, 100, prime, 0)
        assert report.samples_on_d == 100
        assert report.fiber_histogram_e.get("1", 0) >= 95
        assert report.fiber_histogram_etilde.get("1", 0) >= 95
        assert report.verdict

        # every reconstructed fiber point satisfies all five defining
        # equations exactly over F_p (re-checked here independently of the
        # internal assertion)
        samples = list(sample_determinantal_points(bridge, 10, prime, 0, {}))
        for sp in samples:
            for side, eqs in (
                ("e", bridge.equations_e),
                ("etilde", bridge.equations_etilde),
            ):
                for pt in fiber(bridge, sp.y, prime, side=side)[0]:
                    assert all(eq.evaluate(pt) == 0 for eq in eqs)
                    assert len(eqs) == 5
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(
        "criterion 2: (5,3) fiber cardinality 1 on both sides at p=10007 and p=65537",
        True,
        f"{elapsed:.1f}s",
    )


def test_criterion_3_symbolic_identities(pp53, corpus):
    started = time.monotonic()
    checked = 0
    cases = []
    for name, pair, decs in corpus:
        if len(decs) == 1:
            cases.append((name, pair, decs[0], decs[0]))
        else:
            for a, b in itertools.combinations(range(len(decs)), 2):
                cases.append((name, pair, decs[a], decs[b]))
    _, pair53, _, decs53 = pp53
    cases.append(("product-projective(5,3)", pair53, decs53[0], decs53[1]))
    cases.append(("product-projective(5,3)", pair53, decs53[1], decs53[2]))
    for name, pair, dec_a, dec_b in cases:
        skeleton = bridge_skeleton(pair, dec_a, dec_b)
        assert all(skeleton.identity_results.values()), name
        # the skeleton checked them on exponents; sum the built polynomials
        for domain in (RATIONAL, 10007):
            bridge = skeleton.instantiate(random_coefficients(pair, domain, seed=20260810))
            results = bridge_identity_results(bridge)
            assert all(results.values()), (name, domain)
            assert results.keys() <= skeleton.identity_results.keys()
            checked += len(results)
    elapsed = time.monotonic() - started
    _report(
        "criterion 3: symbolic matrix and coefficient-partition identities exact",
        True,
        f"{checked} polynomial identities over {len(cases)} pairs and two fields, {elapsed:.1f}s",
    )


def test_criterion_4_block_partition_oracle():
    started = time.monotonic()
    rng = random.Random(20260810)
    agreements = 0
    for _ in range(500):
        tup, expected = _random_block_tuple(rng, max_s=7, dim_max=4, bound=3)
        assert block_partition(tup) == kernel_column_block_partition(tup) == expected
        agreements += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _report(
        "criterion 4: subset-stripping block partition equals kernel-column oracle",
        agreements == 500,
        f"500 tuples, {elapsed:.1f}s",
    )


def test_criterion_5_duality_properties(pp53, corpus):
    started = time.monotonic()
    _, pair53, _, decs53 = pp53
    all_pairs = list(corpus) + [("product-projective(5,3)", pair53, decs53)]

    reflexive_count = 0
    for name, pair, decs in all_pairs:
        # Prop 2.6: build_cone + verification gives (true, s)
        assert verify_reflexive_gorenstein(pair) == (True, pair.s), name

        # double-dual identity on the reflexive sum and its dual
        total = sum_from_cayley_rays(pair.parts.parts, pair.parts.cayley_rays)
        for poly in (total, dual_polytope(total)):
            cert = is_reflexive(poly)
            assert cert.is_reflexive, name
            dd = dual_polytope(dual_polytope(poly))
            assert set(dd) == set(poly), name
            reflexive_count += 1

        # Prop 2.5 on every enumerated decomposition: sum of slices minus deg
        # is reflexive in Ann(e~) and its dual is the projected T
        s_verts = pair.s_vertices()
        t_verts = [tuple(int(x) for x in w) for w in pair.k_dual_generators]
        for dec in decs:
            e_tilde = dec.e_tilde()
            ann = kernel_basis(e_tilde)
            slice_polys = []
            for e in e_tilde:
                verts = [v for v in s_verts if dot(v, e) == 1]
                assert verts, name
                slice_polys.append(hull_vertices(verts))
            # the slices live in the degree hyperplanes, so their sum is
            # lower-dimensional and only the hull oracle forms it
            total_slice = [vsub(v, pair.deg) for v in pairwise_minkowski_sum(slice_polys)]
            z_verts = []
            ann_solver = RowSolver(ann)
            for v in total_slice:
                z = ann_solver.solve(tuple(int(x) for x in v))
                assert z is not None, name
                z_verts.append(z)
            shifted = hull_vertices(z_verts)
            cert = is_reflexive(shifted)
            assert cert.is_reflexive, name
            reflexive_count += 1

            projected_t = [tuple(dot(row, w) for row in ann) for w in t_verts]
            t_bar = set(hull_vertices(projected_t)) if ann else set()
            dual_verts = set(dual_polytope(shifted)) if ann else set()
            assert dual_verts == t_bar, name
    elapsed = time.monotonic() - started
    _report(
        "criterion 5: double duality, Prop 2.5 slice reflexivity, Prop 2.6 index",
        True,
        f"{reflexive_count} reflexivity certificates, {elapsed:.1f}s",
    )


def test_criterion_6_lattice_algebra_oracles():
    started = time.monotonic()
    rng = random.Random(987654321)
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        h, u = hnf(a)
        assert is_unimodular(u)
        assert matmul(u, a) == h
        assert is_row_hnf(h)
        assert same_row_span(a, h)

        kern = kernel_basis(a)
        for row in kern:
            assert all(x == 0 for x in mul_vec(a, row))
        if kern:
            assert max_minor_gcd(kern) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(
        "criterion 6: HNF/kernel/saturation oracles on 1000 random matrices",
        True,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_delta_regularity():
    prime = 10007
    rank, gens, deg, deg_dual = product_projective_cone(3, 3)
    pair, _ = normalize_cone(rank, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    coeffs = random_coefficients(pair, prime, seed=42)
    bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
    samples = list(sample_determinantal_points(bridge, 30, prime, 0, {}))
    points = []
    for sp in samples:
        points.extend(fiber(bridge, sp.y, prime, side="e")[0])
    assert points
    rate = delta_regularity_probe(bridge, points, prime, side="e")
    assert rate == 1

    # crafted degenerate instance: equations proportional up to monomials
    eq1 = bridge.equations_e[0]
    crafted = replace(
        bridge,
        equations_e=(
            eq1, laurent_shift(eq1, (1, 0, 0, 0)), laurent_shift(eq1, (0, 1, 0, 0))
        ),
    )
    from doublemirror.laurent import SplitMix64, fp_roots

    rng = SplitMix64(1)
    degenerate_pts = []
    while len(degenerate_pts) < 10:
        fixed = tuple(rng.nonzero_mod(prime) if i else 1 for i in range(bridge.pair.d))
        lo, cs = eq1.restrict_to_line(fixed, 0)
        for root in fp_roots(cs, prime):
            degenerate_pts.append(
                tuple(root if i == 0 else fixed[i] for i in range(bridge.pair.d))
            )
            if len(degenerate_pts) >= 10:
                break
    bad_rate = delta_regularity_probe(crafted, degenerate_pts, prime, side="e")
    assert bad_rate == 0
    _report(
        "criterion 7: Jacobian rank s at 100% of fiber points; crafted degenerate rate 0",
        True,
        f"{len(points)} fiber points",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    instance_path = tmp_path / "pp53.json"
    instance_path.write_text(
        dumps(example_instance("product-projective", 5, 3)), encoding="utf-8"
    )
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"report{run}.json"
        code = cli_main(
            [
                "verify",
                str(instance_path),
                "--samples",
                "100",
                "--prime",
                "10007",
                "--seed",
                "0",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["result"]["evidence"]["samples_on_d"] == 100
    _report("criterion 8: byte-identical evidence reports across runs", True)
