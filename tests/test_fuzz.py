"""Mutation fuzzing of instance files.

The seeded tests perturb the part vertices of a valid nef-partition, so
that the sum stops being reflexive or full-dimensional or a part loses the
origin, and run ``nefdual``.  The property tests, which need hypothesis,
mutate the small golden instances and run every command that reads an
instance: one at any JSON path, the other only in the part vertices and cone
generators, so that its documents get past the parser into the geometry.
Whatever comes out, the run must end with exit code 0 or 1 and one line: the
report on success, the message otherwise.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from doublemirror import cli
from doublemirror.cli import main
from doublemirror.cones import normalize_cone
from doublemirror.instances import dumps
from oracles import product_projective_cone

GOLDEN = Path(__file__).parent / "golden"


def _golden_parts(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["nef_partition"]


def _pp33_parts():
    pair, _ = normalize_cone(*product_projective_cone(3, 3))
    return [[list(v) for v in part] for part in pair.parts.parts]


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


# the small golden instances: cones over a kernel lattice, one with explicit
# rational coefficients, partitions with and without a translation, and a
# one-part partition that is not reflexive in any translate
FUZZED_INSTANCES = ("pp33", "pp33-rational", "square", "two-segment", "shifted-square", "triangle")
FUZZED_COMMANDS = (["nefdual"], ["cone"], ["decompose"], ["bridge"], ["verify", "--samples", "2"])
# keys of the instance schema, so that an added key is often a meaningful one
SCHEMA_KEYS = ("lattice", "ambient_rank", "kind", "equations", "relations", "nef_partition",
               "polytope", "cone", "generators", "deg", "deg_dual", "coefficients", "field",
               "prime", "seed", "values", "rational", "full", "kernel", "quotient")


def _json_paths(node, path=()):
    """Every path in a JSON document below the root, leaves before their parents."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))
        yield path + (key,)


def _json_values(st):
    """Any JSON value: small and big integers, other types, vectors and nesting."""
    small = st.integers(-3, 3)
    big = st.sampled_from([2**31, -(2**63), 10**30, -(10**40) - 1])
    vector = st.lists(st.one_of(small, big), max_size=5)
    leaf = st.one_of(small, big, st.booleans(), st.none(), st.floats(), st.text(max_size=4),
                     st.sampled_from(SCHEMA_KEYS + ("1/2", "0/0", "-7/3")))
    return st.one_of(
        leaf,
        vector,
        st.lists(vector, max_size=4),
        st.lists(st.lists(vector, max_size=3), max_size=3),
        st.dictionaries(st.sampled_from(SCHEMA_KEYS), st.one_of(leaf, vector), max_size=2),
        st.recursive(leaf, lambda inner: st.lists(inner, max_size=2), max_leaves=6),
    )


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _json_nudge(doc, data, st):
    """Move one integer by a little, or scale it by a big factor."""
    paths = [p for p in _json_paths(doc) if type(_node(doc, p)) is int]
    if paths:
        path = data.draw(st.sampled_from(paths))
        step = data.draw(st.sampled_from([1, -1, 2, -2, 10**20]))
        x = _node(doc, path)
        _node(doc, path[:-1])[path[-1]] = x * step if step > 2 else x + step


def _json_replace(doc, data, st):
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    _node(doc, path[:-1])[path[-1]] = data.draw(_json_values(st))


def _json_copy(doc, data, st):
    """Put a copy of one node in the place of another: same shapes, wrong places."""
    paths = list(_json_paths(doc))
    source, target = data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(paths))
    _node(doc, target[:-1])[target[-1]] = json.loads(json.dumps(_node(doc, source)))


def _json_delete(doc, data, st):
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    del _node(doc, path[:-1])[path[-1]]


def _json_insert(doc, data, st):
    """Add a schema key to an object, or an element to a list."""
    paths = [p for p in [()] + list(_json_paths(doc)) if isinstance(_node(doc, p), (dict, list))]
    target = _node(doc, data.draw(st.sampled_from(paths)))
    value = data.draw(_json_values(st))
    if isinstance(target, dict):
        target[data.draw(st.sampled_from(SCHEMA_KEYS))] = value
    else:
        target.insert(data.draw(st.integers(0, len(target))), value)


def _json_relattice(doc, data, st):
    """Make the lattice a kernel or a quotient, with equations or relations
    whose rows have mostly the right length, sometimes ragged."""
    lattice = doc.get("lattice")
    rank = lattice.get("ambient_rank") if isinstance(lattice, dict) else None
    if type(rank) is not int or not 0 <= rank <= 16:
        return
    length = st.sampled_from([rank, rank, rank, rank - 1, rank + 1, 0])
    row = length.flatmap(lambda n: st.lists(st.integers(-2, 2), min_size=max(n, 0),
                                            max_size=max(n, 0)))
    # other kinds come from the mutations that replace a value
    kind = lattice["kind"] = data.draw(st.sampled_from(["kernel", "quotient"]))
    # mostly the key the kind reads
    keys = ["equations", "relations"] if kind == "kernel" else ["relations", "equations"]
    lattice[data.draw(st.sampled_from(keys))] = data.draw(st.lists(row, max_size=3))


def _json_recoefficient(doc, data, st):
    """Give the instance a coefficient spec: field, seed and values."""
    spec = doc.setdefault("coefficients", {})
    if not isinstance(spec, dict):
        return
    spec["field"] = data.draw(st.one_of(
        st.just("rational"),
        st.fixed_dictionaries({"prime": st.sampled_from([2, 3, 4, 101, 10007, 0, -5, 2**61 - 1])}),
        _json_values(st),
    ))
    spec["seed"] = data.draw(st.one_of(st.integers(-(2**70), 2**70), _json_values(st)))
    values = spec.get("values")
    if isinstance(values, dict) and values:
        key = data.draw(st.sampled_from(sorted(values)))
        values[key] = data.draw(st.one_of(st.sampled_from(["0", "1/0", "x", "3/7"]),
                                          _json_values(st)))
    elif data.draw(st.booleans()):
        spec["values"] = data.draw(st.dictionaries(
            st.sampled_from(["0,0", "1,0", "0,0,1,0,0,0,0", "a"]), _json_values(st), max_size=2))


# the mildest mutations first: hypothesis draws them most often and shrinks to them
JSON_MUTATIONS = (_json_nudge, _json_relattice, _json_recoefficient, _json_replace, _json_copy,
                  _json_delete, _json_insert)


def _run_commands(path, doc):
    """Every command on the file at ``path``, with the one-line contract."""
    for command in FUZZED_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path)] + command[1:])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1), (command, doc, err)
        assert "internal error" not in err, (command, doc, err)
        if code == 0:
            assert len(out.splitlines()) == 1, (command, doc)
        else:
            assert out == "" and len(err.splitlines()) == 1, (command, doc, err)


def test_mutated_golden_instances_end_in_one_line(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    originals = {name: (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
                 for name in FUZZED_INSTANCES}
    path = tmp_path / "mutated.json"

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.data())
    def check(data):
        doc = json.loads(originals[data.draw(st.sampled_from(FUZZED_INSTANCES))])
        for _ in range(data.draw(st.integers(1, 3))):
            # all but an insertion need a path below the root
            mutations = JSON_MUTATIONS if doc else (_json_insert,)
            data.draw(st.sampled_from(mutations))(doc, data, st)
        path.write_text(json.dumps(doc), encoding="utf-8")
        _run_commands(path, doc)

    check()


def _geometry_nudge(doc, data, st):
    """Move one integer of a part vertex by a little, or a cone generator by
    the difference of two generators, which keeps it in the lattice and at
    height one."""
    if "nef_partition" in doc:
        paths = [p for p in _json_paths(doc["nef_partition"]) if len(p) == 3]
        i, j, k = data.draw(st.sampled_from(paths))
        doc["nef_partition"][i][j][k] += data.draw(st.sampled_from([1, -1, 2, -2]))
    else:
        gens = doc["cone"]["generators"]
        a, b, c = (data.draw(st.integers(0, len(gens) - 1)) for _ in range(3))
        sign = data.draw(st.sampled_from([1, -1]))
        gens[a] = [x + sign * (y - z) for x, y, z in zip(gens[a], gens[b], gens[c])]


def _part_translate(doc, data, st):
    """Translate one whole part by a small vector."""
    if "nef_partition" not in doc:
        return _geometry_nudge(doc, data, st)
    part = data.draw(st.sampled_from(doc["nef_partition"]))
    step = data.draw(st.lists(st.integers(-2, 2), min_size=len(part[0]), max_size=len(part[0])))
    for vertex in part:
        vertex[:] = [x + t for x, t in zip(vertex, step)]


# partitions of one, two and three parts, translated or not, and a cone over
# a kernel lattice
GEOMETRY_INSTANCES = ("pp33", "square", "two-segment", "shifted-square", "shifted-two-segment",
                      "triangle", "p5-222")


def test_nudged_geometry_ends_in_one_line(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    originals = {name: (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
                 for name in GEOMETRY_INSTANCES}
    path = tmp_path / "nudged.json"
    # the stages each document reached, over any of the commands
    reached, counts = set(), {"parsed": 0, "decomposed": 0}

    real_parse, real_enumerate = cli.parse_instance, cli.enumerate_decompositions

    def parse(doc):
        instance = real_parse(doc)
        reached.add("parsed")
        return instance

    def enumerate_decompositions(pair):
        reached.add("decomposed")  # entered, whether or not it returns
        return real_enumerate(pair)

    monkeypatch.setattr(cli, "parse_instance", parse)
    monkeypatch.setattr(cli, "enumerate_decompositions", enumerate_decompositions)

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.data())
    def check(data):
        doc = json.loads(originals[data.draw(st.sampled_from(GEOMETRY_INSTANCES))])
        for _ in range(data.draw(st.integers(1, 2))):
            data.draw(st.sampled_from((_geometry_nudge, _part_translate)))(doc, data, st)
        path.write_text(json.dumps(doc), encoding="utf-8")
        reached.clear()
        _run_commands(path, doc)
        for name in reached:
            counts[name] += 1

    check()
    # every document gets past the parser (120 of 120 with hypothesis 6.155.2)
    # and some reach the decompositions (28)
    assert counts["parsed"] >= 100 and counts["decomposed"] >= 20, counts
