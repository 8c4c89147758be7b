"""Seeded mutation fuzzing of nef-partition instances through ``nefdual``.

Each mutation perturbs the part vertices of a valid nef-partition, so that
the sum stops being reflexive or full-dimensional or a part loses the
origin.  Whatever comes out, the run must end with exit code 0 or 1 and one
line: the report on success, the message otherwise.
"""

import json
import random
from pathlib import Path

import pytest

from doublemirror.cli import main
from doublemirror.cones import normalize_cone
from doublemirror.instances import dumps
from oracles import product_projective_lattice

GOLDEN = Path(__file__).parent / "golden"


def _golden_parts(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["nef_partition"]


def _pp33_parts():
    pair, _ = normalize_cone(*product_projective_lattice(3, 3))
    return [[list(v) for v in part.vertices] for part in pair.parts.parts]


def _nudge(parts, rng):
    part = rng.choice(parts)
    vertex = rng.choice(part)
    vertex[rng.randrange(len(vertex))] += rng.choice((-2, -1, 1, 2))


def _scale(parts, rng):
    part = rng.choice(parts)
    i = rng.randrange(len(part))
    part[i] = [rng.choice((2, 3)) * x for x in part[i]]


def _drop(parts, rng):
    part = rng.choice(parts)
    if len(part) > 1:
        part.pop(rng.randrange(len(part)))


def _shift(parts, rng):
    part = rng.choice(parts)
    step = [rng.choice((-1, 0, 1)) for _ in part[0]]
    for vertex in part:
        for j, x in enumerate(step):
            vertex[j] += x


def _flatten(parts, rng):
    j = rng.randrange(len(parts[0][0]))
    for part in parts:
        for vertex in part:
            vertex[j] = 0


def _collapse(parts, rng):
    i = rng.randrange(len(parts))
    parts[i] = [[0] * len(parts[i][0])]


# nudging is listed twice: it is the mildest change and the likeliest to
# leave a partition that is still valid or only just invalid
MUTATIONS = (_nudge, _nudge, _scale, _drop, _shift, _flatten, _collapse)


@pytest.mark.parametrize("name,runs", [("square", 60), ("two-segment", 60), ("pp33", 15)])
def test_mutated_partitions_end_in_one_line(name, runs, tmp_path, capsys):
    base = _pp33_parts() if name == "pp33" else _golden_parts(name)
    rank = len(base[0][0])
    rng = random.Random(f"nefdual-{name}")
    path = tmp_path / "mutated.json"
    messages = set()
    for _ in range(runs):
        parts = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 3)):
            rng.choice(MUTATIONS)(parts, rng)
        data = {"lattice": {"ambient_rank": rank, "kind": "full"}, "nef_partition": parts}
        path.write_text(dumps(data), encoding="utf-8")
        code = main(["nefdual", str(path)])
        out, err = capsys.readouterr()
        # exit 0-3 is the contract; a perturbed vertex list is bad input, not
        # an internal fault, so here only 0 and 1 occur
        assert code in (0, 1), parts
        assert "Traceback" not in err, parts
        if code == 0:
            assert len(out.splitlines()) == 1, parts
            json.loads(out)
        else:
            assert out == "" and len(err.splitlines()) == 1, parts
            messages.add(err)
    # the mutations reach each kind of invalid input
    assert any("not reflexive" in m for m in messages), messages
    assert any("does not contain the origin" in m for m in messages), messages
    assert any("Minkowski sum has dimension" in m for m in messages), messages
