"""Byte-identity against stored reports.

The files under ``tests/golden/`` are fixed references: a change that claims
identical output must reproduce them exactly.  Regenerate them only on
purpose, when the report schema changes, from inside ``tests/golden``:

    python -m doublemirror.cli verify pp33.json --pair 1 2 --samples 30 \\
        --prime 10007 --seed 3 --output verify-pp33-p10007.json
    python -m doublemirror.cli nefdual square.json --output nefdual-square.json
    python -m doublemirror.cli bridge pp33.json --pair 2 3 \\
        --output bridge-pp33-pair23.json

``two-segment.json`` and ``square.json`` are the bundled examples as written
by ``doublemirror example``; ``triangle.json`` is a one-part partition
whose sum is not reflexive and no translate of it is, so ``nefdual`` exits 1
and its error line pins the facet it names.  ``shifted-square.json`` is
the square [0, 2]^2, whose sum becomes reflexive only after the partition is
translated by -(1, 1), so its ``nefdual`` report pins that search.
``shifted-two-segment.json`` is the two-segment partition with its first
part moved by (1, 0), so its report pins the note of a partition with more
than one part that is translated by moving its first part.
``pp33-rational.json`` is pp33 with explicit rational coefficients, most of
them not integers, so its ``bridge`` report pins the determinant over QQ
with fractional entries.
``pp33-p10007-values.json`` is pp33 with the values
``random_coefficients(pair, 10007, 5)`` draws written out over F_10007 and
seed 5, so its reports pin a bridge over the explicit prime, evidence at a
``--prime`` that matches it, and the seed read from the file.
``p5-222.json`` is the nef-partition (2, 2, 2) of P^5, ``conv(0, E_i)`` over
consecutive pairs of the fan vertices, as built by
``oracles.projective_space_parts((2, 2, 2))``.
``pp33-dual.json`` is the mirror side of pp33, ``oracles.dual_instance`` of
its ``nefdual`` report.  Its (1, 2) pair has two blocks, [1] and [2, 3], and
finds no point of D, so ``verify-pp33-dual-p10007.json`` pins that defect;
a fix of the two-block bridge regenerates that one report on purpose.
``bridge-digests.json`` holds the SHA-256 of the ``bridge`` report of every
(1, j) pair of p5-222 and pp33-dual and of (2, j) for j = 3...12, the
renormalizing path.  Regenerate it with ``bridge_digests`` below.
``rank-zero.json`` is the two-part partition {0, 1}, {0, -1} of Z^1: its
(1, 2) bridge has torus rank 0, so ``verify-rank-zero.json`` pins the
warning that the determinantal locus is empty.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from doublemirror.bridge import bridge_skeleton, enumerate_decompositions, random_coefficients
from doublemirror.cli import main
from doublemirror.cones import normalize_cone
from doublemirror.evidence import sample_determinantal_points
from doublemirror.instances import dumps, loads, parse_instance
from oracles import product_projective_cone

GOLDEN = Path(__file__).parent / "golden"

# (instance, prime, samples, seed)
VERIFY_CASES = [
    ("pp33", 10007, 30, 3),
    ("pp33", 65537, 30, 5),
    ("pp33", 1000003, 30, 7),
    ("pp53", 10007, 20, 2),
    # p = 101 pins the empty-fiber branches: an E fiber and two E~ fibers
    # come back empty, and the second run's verdict is false
    ("pp33", 101, 20, 3),
    ("pp53", 101, 20, 2),
]


@pytest.mark.parametrize("name,prime,samples,seed", VERIFY_CASES)
def test_verify_report_matches_golden(name, prime, samples, seed, monkeypatch, capsys):
    # the report echoes the file argument, so run from the golden directory
    monkeypatch.chdir(GOLDEN)
    args = ["verify", f"{name}.json", "--pair", "1", "2", "--samples", str(samples),
            "--prime", str(prime), "--seed", str(seed)]
    assert main(args) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / f"verify-{name}-p{prime}.json").read_bytes()
    assert out.encode("utf-8") == expected


# (command, instance, extra flags); golden file is f"{command}-{instance}.json"
COMMAND_CASES = [
    # one decomposition: the pipeline stops before the bridge stage
    ("pipeline", "square", []),
    # explicit rational values, most of them not integers
    ("bridge", "pp33-rational", ["--pair", "1", "2"]),
    *[(cmd, name, []) for cmd in ("nefdual", "cone", "decompose")
      for name in ("two-segment", "square", "pp33")],
    ("bridge", "pp33", ["--pair", "1", "2"]),
    ("nefdual", "shifted-square", []),
    ("nefdual", "shifted-two-segment", []),
    *[(cmd, "pp53", []) for cmd in ("cone", "decompose", "nefdual")],
    *[(cmd, "p5-222", []) for cmd in ("decompose", "nefdual")],
    ("decompose", "pp33-dual", []),
]


@pytest.mark.parametrize("command,name,extra", COMMAND_CASES)
def test_command_report_matches_golden(command, name, extra, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main([command, f"{name}.json", *extra]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{command}-{name}.json").read_bytes()


# (golden file, argv); --pair 2 3 renormalizes to a nontrivial reference
# decomposition, which --pair 1 2 never does
RUN_30 = ["--samples", "30", "--prime", "10007", "--seed", "3"]
NAMED_CASES = [
    ("bridge-pp33-pair23", ["bridge", "pp33.json", "--pair", "2", "3"]),
    ("bridge-pp53-pair23", ["bridge", "pp53.json", "--pair", "2", "3"]),
    ("verify-pp33-pair23-p10007", ["verify", "pp33.json", "--pair", "2", "3", *RUN_30]),
    ("pipeline-pp33-p10007", ["pipeline", "pp33.json", *RUN_30]),
    ("pipeline-pp53-p10007", ["pipeline", "pp53.json", *RUN_30]),
    # three parts: --pair 2 3 renormalizes a three-part partition, and the
    # (1, 2) bridge has two blocks, so sampling finds no point of D
    ("bridge-p5-222-pair23", ["bridge", "p5-222.json", "--pair", "2", "3"]),
    ("verify-p5-222-p10007",
     ["verify", "p5-222.json", "--pair", "1", "2", "--samples", "20", "--prime", "10007"]),
    # the mirror side of pp33: two blocks, and no point of D is found
    ("verify-pp33-dual-p10007",
     ["verify", "pp33-dual.json", "--pair", "1", "2", "--samples", "20", "--prime", "10007"]),
    # explicit rational values: the bridge, then no finite-field evidence
    ("pipeline-pp33-rational", ["pipeline", "pp33-rational.json"]),
    # explicit values over F_10007 serve the bridge and the evidence alike
    ("bridge-pp33-p10007-values", ["bridge", "pp33-p10007-values.json"]),
    ("verify-pp33-p10007-values", ["verify", "pp33-p10007-values.json", "--samples", "20"]),
    ("pipeline-pp33-p10007-values", ["pipeline", "pp33-p10007-values.json", "--samples", "20"]),
    # torus rank 0: the determinants are constants, and D is empty
    ("verify-rank-zero", ["verify", "rank-zero.json", "--pair", "1", "2", "--samples", "5"]),
]


@pytest.mark.parametrize("golden,argv", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_named_report_matches_golden(golden, argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{golden}.json").read_bytes()


# (argv, the one stderr line); the exit code is 1 and stdout stays empty
ERROR_CASES = [
    (["nefdual", "triangle.json"],
     "error: Minkowski sum of the parts is not reflexive: its facet <x, (-1,-2)> >= -2"
     " has offset 2, not 1\n"),
]


@pytest.mark.parametrize("argv,err", ERROR_CASES, ids=[" ".join(c[0]) for c in ERROR_CASES])
def test_error_line_matches_golden(argv, err, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


# instance -> its decomposition count; bridge-digests.json pins these pairs
DIGEST_CASES = {"p5-222.json": 90, "pp33-dual.json": 36}


def bridge_digests(name, count):
    """``"i j"`` -> SHA-256 of the ``bridge`` report, for every (1, j) and
    for (2, j) with j = 3...12, run from the golden directory."""
    pairs = [(1, j) for j in range(2, count + 1)] + [(2, j) for j in range(3, 13)]
    digests = {}
    for i, j in pairs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(["bridge", name, "--pair", str(i), str(j)]) == 0
        digests[f"{i} {j}"] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_bridge_reports_match_golden_digests(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    golden = json.loads((GOLDEN / "bridge-digests.json").read_text(encoding="utf-8"))
    assert bridge_digests(name, DIGEST_CASES[name]) == golden[name]


# every instance file some case reads
INSTANCES = sorted(
    {f"{name}.json" for name, *_ in VERIFY_CASES}
    | {f"{name}.json" for _, name, _ in COMMAND_CASES}
    | {argv[1] for _, argv in NAMED_CASES}
    | {argv[1] for argv, _ in ERROR_CASES}
    | set(DIGEST_CASES)
)


def test_every_golden_file_is_checked():
    # each file is an instance some case reads or a report some case compares
    reports = {f"verify-{name}-p{prime}.json" for name, prime, *_ in VERIFY_CASES}
    reports |= {f"{command}-{name}.json" for command, name, _ in COMMAND_CASES}
    reports |= {f"{golden}.json" for golden, _ in NAMED_CASES}
    reports |= {"samples-pp33.json", "bridge-digests.json"}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(set(INSTANCES) | reports)


@pytest.mark.parametrize("name", INSTANCES)
def test_digest_is_sha256_of_the_canonical_input(name):
    # digest() hashes with the interpreter's built-in SHA-256, not hashlib's
    instance = parse_instance(loads((GOLDEN / name).read_text(encoding="utf-8")))
    expected = hashlib.sha256(dumps(instance.canonical).encode("utf-8")).hexdigest()
    assert instance.digest() == expected


def test_sampled_points_match_golden():
    # the reports carry only histograms; this pins the exact D points chosen
    golden = json.loads((GOLDEN / "samples-pp33.json").read_text(encoding="utf-8"))
    rank, gens, deg, deg_dual = product_projective_cone(3, 3)
    pair, _ = normalize_cone(rank, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    for prime, expected in golden.items():
        p = int(prime)
        coeffs = random_coefficients(pair, p, 0)
        bridge = bridge_skeleton(pair, decs[0], decs[1]).instantiate(coeffs)
        stats = {}
        samples = list(sample_determinantal_points(bridge, 30, p, 11, stats))
        assert stats["line_tries"] == expected["line_tries"]
        assert [list(s.y) for s in samples] == expected["points"]
