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
by ``doublemirror example``; ``triangle.json`` is a non-reflexive polytope
whose reflexivity witness is rational, so its ``dualize`` report pins how
rational and integral coordinates are printed.
"""

import json
from pathlib import Path

import pytest

from doublemirror.bridge import build_bridge, enumerate_decompositions, random_coefficients
from doublemirror.canned import product_projective_lattice
from doublemirror.cli import main
from doublemirror.cones import normalize_cone
from doublemirror.evidence import sample_determinantal_points

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
    ("dualize", "triangle", []),
    ("dualize", "square", []),
    *[(cmd, name, []) for cmd in ("nefdual", "cone", "decompose")
      for name in ("two-segment", "square", "pp33")],
    ("bridge", "pp33", ["--pair", "1", "2"]),
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
    ("verify-pp33-pair23-p10007", ["verify", "pp33.json", "--pair", "2", "3", *RUN_30]),
    ("pipeline-pp33-p10007", ["pipeline", "pp33.json", *RUN_30]),
]


@pytest.mark.parametrize("golden,argv", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_named_report_matches_golden(golden, argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{golden}.json").read_bytes()


def test_sampled_points_match_golden():
    # the reports carry only histograms; this pins the exact D points chosen
    golden = json.loads((GOLDEN / "samples-pp33.json").read_text(encoding="utf-8"))
    lattice, gens, deg, deg_dual = product_projective_lattice(3, 3)
    pair, _ = normalize_cone(lattice, gens, deg, deg_dual)
    decs = enumerate_decompositions(pair)
    for prime, expected in golden.items():
        p = int(prime)
        bridge = build_bridge(pair, decs[0], decs[1], random_coefficients(pair, p, 0))
        samples, stats = sample_determinantal_points(bridge, 30, p, 11)
        assert stats["line_tries"] == expected["line_tries"]
        assert [list(s.y) for s in samples] == expected["points"]
