"""CLI commands: parsing, reports, determinism, exit codes."""

import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from doublemirror.cli import main
from doublemirror.cones import normalize_cone
from doublemirror.instances import build_partition, dumps, example_instance, loads, parse_instance
from doublemirror import intmat
from doublemirror.polytope import cayley_dual_rays, sum_facets
from oracles import facets, hull_vertices, product_projective_cone


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture()
def two_segment_file(tmp_path):
    return write_instance(tmp_path, example_instance("two-segment"))


SQUARE = [[1, 1], [1, -1], [-1, 1], [-1, -1]]


def patch_identity(monkeypatch, fn):
    """Replace ``intmat.identity`` with ``fn`` in every module that imports it."""
    modules = [module for name, module in sys.modules.items() if name.startswith("doublemirror")
               and getattr(module, "identity", None) is intmat.identity]
    assert "doublemirror.cones" in {module.__name__ for module in modules}
    for module in modules:
        monkeypatch.setattr(module, "identity", fn)


def one_part(vertices):
    """A polytope as an instance: the nef-partition of one part."""
    return {"lattice": {"ambient_rank": len(vertices[0]), "kind": "full"},
            "nef_partition": [vertices]}


@pytest.fixture()
def square_file(tmp_path):
    return write_instance(tmp_path, one_part(SQUARE))


class TestDualize:
    """The polar dual of a polytope is ``nefdual`` of its one-part partition."""

    def test_square(self, square_file, capsys):
        code, out = run_cli(["nefdual", square_file], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert sorted(map(tuple, result["dual_parts"][0])) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_not_reflexive_with_witness(self, tmp_path, capsys):
        # the triangle of tests/golden/triangle.json: no translate of it is
        # reflexive, and the one error line names a facet (w, b) with b != 1
        triangle = [[2, 0], [0, 1], [-1, -1]]
        assert main(["nefdual", write_instance(tmp_path, one_part(triangle))]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        match = re.search(r"its facet <x, \(([-\d,]+)\)> >= (-?\d+) has offset", captured.err)
        w, b = tuple(int(x) for x in match.group(1).split(",")), -int(match.group(2))
        assert b != 1
        assert (w, b) in facets(hull_vertices(triangle))

    def test_simplex(self, tmp_path, capsys):
        path = write_instance(tmp_path, one_part([[-1, -1], [1, 0], [0, 1]]))
        code, out = run_cli(["nefdual", path], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert sorted(map(tuple, result["dual_parts"][0])) == [
            (-1, -1),
            (-1, 2),
            (2, -1),
        ]


class TestParsing:
    def test_floats_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"lattice": {"ambient_rank": 2}, "nef_partition": [[[1.5, 0]]]}')
        assert main(["nefdual", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: floating point numbers are not accepted")

    def test_big_integers_as_strings(self):
        data = {
            "lattice": {"ambient_rank": 1, "kind": "full"},
            "nef_partition": [[["-9223372036854775809"], ["9223372036854775809"]]],
        }
        inst = parse_instance(loads(dumps(data)))
        assert inst.parts[0] == ((-9223372036854775809,), (9223372036854775809,))

    def test_payload_checked_before_the_lattice_is_built(self, tmp_path, capsys, monkeypatch):
        # a kernel lattice costs a Hermite form of its equations, which grows
        # with the ambient rank; a payload of the wrong length must be
        # rejected before it is computed
        import doublemirror.instances as instances

        def kernel_basis(rows):
            raise AssertionError("kernel basis computed before the payload was checked")

        monkeypatch.setattr(instances, "kernel_basis", kernel_basis)
        data = {"lattice": {"ambient_rank": 3, "kind": "kernel", "equations": [[1, 1, 1]]},
                "cone": {"generators": [[0, 0]]}}
        assert main(["cone", write_instance(tmp_path, data)]) == 1
        assert capsys.readouterr().err == "error: ambient vector has wrong length\n"

    def test_full_lattice_builds_no_matrix(self, tmp_path, capsys, monkeypatch):
        # a full lattice's coordinates are the ambient ones: a matching
        # one-point payload in rank 1500 must not cost an n x n matrix
        built = []
        identity = intmat.identity

        def recording_identity(n):
            built.append(n)
            return identity(n)

        patch_identity(monkeypatch, recording_identity)
        data = one_part([[1] + [0] * 1499])
        assert main(["nefdual", write_instance(tmp_path, data)]) == 1
        assert capsys.readouterr().err == "error: Minkowski sum has dimension 0 < 1500\n"
        assert [n for n in built if n >= 1000] == []

    def test_round_trip_canonical(self, two_segment_file):
        with open(two_segment_file, encoding="utf-8") as fh:
            text = fh.read()
        inst = parse_instance(loads(text))
        again = dumps(inst.canonical)
        assert parse_instance(loads(again)).digest() == inst.digest()


VALUES_HEAD = '"values":{"0,0,1,0,0,0,0":1741,'


class TestStrictKeys:
    """The parser reads every key of an instance or rejects the file: a key
    it would drop or overwrite without a word exits 1 on every command."""

    @pytest.mark.parametrize("command", ["nefdual", "cone", "decompose", "bridge", "verify",
                                         "pipeline"])
    @pytest.mark.parametrize("name,old,new,message", [
        ("square", '{"lattice":', '{"coeficients":{"seed":3},"lattice":',
         "unknown key 'coeficients' in the instance;"
         " expected one of coefficients, lattice, nef_partition"),
        ("square", '"kind":"full"}', '"kind":"full","equatons":[[1,0]]}',
         "unknown key 'equatons' in a 'full' lattice; expected one of ambient_rank, kind"),
        ("pp33", '"kind":"kernel"', '"kind":"kernel","relations":[]',
         "unknown key 'relations' in a 'kernel' lattice;"
         " expected one of ambient_rank, equations, kind"),
        ("pp33", '"cone":{', '"cone":{"degdual":[],',
         "unknown key 'degdual' in 'cone'; expected one of deg, deg_dual, generators"),
        ("pp33-rational", '"seed":0', '"sed":0',
         "unknown key 'sed' in 'coefficients'; expected one of field, seed, values"),
        ("pp33-p10007-values", '{"prime":10007}', '{"prime":10007,"p":5}',
         "unknown key 'p' in coefficients.field; expected one of prime"),
        ("square", "]]]}", ']]],"lattice":{"ambient_rank":2}}',
         "key 'lattice' appears twice in one JSON object"),
        ("pp33-p10007-values", VALUES_HEAD, VALUES_HEAD + '"0,0,1,0,0,0,0":1742,',
         "key '0,0,1,0,0,0,0' appears twice in one JSON object"),
        ("pp33-p10007-values", VALUES_HEAD, VALUES_HEAD + '"00,0,1,0,0,0,0":1742,',
         "coefficient keys '0,0,1,0,0,0,0' and '00,0,1,0,0,0,0' name one point"),
    ], ids=["top-level", "lattice", "kind", "cone", "coefficients", "field", "repeated",
            "repeated-value", "two-spellings"])
    def test_unread_key_is_an_input_error(self, command, name, old, new, message, tmp_path,
                                          capsys):
        text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert text.count(old) == 1
        path = tmp_path / "instance.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_every_golden_instance_and_example_parses(self):
        for path in sorted(GOLDEN.glob("*.json")):
            data = loads(path.read_text(encoding="utf-8"))
            if "lattice" in data:
                parse_instance(data)
        for args in [("square",), ("two-segment",), ("product-projective", 3, 3)]:
            parse_instance(loads(dumps(example_instance(*args))))


class TestPipeline:
    def test_two_segment_notice(self, two_segment_file, capsys):
        code, out = run_cli(["pipeline", two_segment_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["count"] == 1
        assert "notice" in report["result"]
        assert any("no nontrivial double mirror" in w for w in report["warnings"])

    def test_strict_escalates(self, two_segment_file, capsys):
        code, _ = run_cli(["pipeline", two_segment_file, "--strict"], capsys)
        assert code == 2

    def test_pp33(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(
            ["pipeline", inst, "--samples", "20", "--seed", "0"], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 3
        assert result["cone"]["index"] == 3
        assert result["bridge"]["identities_pass"] is True
        assert result["evidence"]["samples_on_d"] == 20
        assert result["evidence"]["fiber_histogram_e"] == {"1": 20}

    def test_pair_out_of_range(self, two_segment_file, capsys):
        code, _ = run_cli(["pipeline", two_segment_file, "--pair", "1", "5"], capsys)
        assert code == 1

    def test_one_skeleton_per_run(self, tmp_path, monkeypatch, capsys):
        import doublemirror.cli as cli

        calls = []
        real = cli.bridge_skeleton

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "bridge_skeleton", counted)
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(["pipeline", inst, "--samples", "5", "--seed", "0"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["bridge"]["identities_pass"] is True
        assert len(calls) == 1


class TestSubcommands:
    def test_nefdual(self, two_segment_file, capsys):
        code, out = run_cli(["nefdual", two_segment_file], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["dual_parts"]) == 2
        assert result["pairing_minima_at_dual_vertices"]["1,0"] == [1, 0]

    def test_cone(self, two_segment_file, capsys):
        code, out = run_cli(["cone", two_segment_file], capsys)
        result = json.loads(out)["result"]
        assert result["reflexive_gorenstein"] is True
        assert result["index"] == 2

    def test_decompose(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(["decompose", inst], capsys)
        result = json.loads(out)["result"]
        assert result["count"] == 3
        assert result["decompositions"][0]["trivial"] is True
        assert result["decompositions"][1]["r"] == 1

    def test_bridge(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(["bridge", inst, "--pair", "1", "2"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["identities_pass"] is True
        assert result["matrix_sizes"] == [3]
        assert result["coefficient_field"] == "rational"

    def test_verify_second_pair(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(
            ["verify", inst, "--pair", "2", "3", "--samples", "5"], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["pair"] == [2, 3]
        assert result["evidence"]["samples_on_d"] == 5


    def test_rank_one_torus_without_samples_warns_finite_d(self, tmp_path, capsys):
        # (2,3) has torus rank 1: the one line is the whole torus, and its
        # det A_1 has no root in F_p* at this seed
        inst = write_instance(tmp_path, example_instance("product-projective", 2, 3))
        code, out = run_cli(
            ["pipeline", inst, "--samples", "20", "--prime", "10007", "--seed", "0"], capsys
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bridge"]["torus_rank"] == 1
        evidence = result["evidence"]
        assert evidence["samples_on_d"] == 0
        assert evidence["warnings"][0] == "D is finite (rank-one torus) and has no F_p*-point"
        assert not any("dimension excess" in w for w in evidence["warnings"])


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        _, out1 = run_cli(["verify", inst, "--samples", "10", "--seed", "1"], capsys)
        _, out2 = run_cli(["verify", inst, "--samples", "10", "--seed", "1"], capsys)
        assert out1 == out2

    def test_output_file_lf(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("two-segment"))
        out_path = tmp_path / "report.json"
        code, _ = run_cli(["cone", inst, "--output", str(out_path)], capsys)
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_pretty_report_is_the_compact_one_indented(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        texts = []
        for flags in ([], ["--pretty"]):
            out_path = tmp_path / f"report{len(flags)}.json"
            assert main(["pipeline", "pp33.json", *flags, "--output", str(out_path)]) == 0
            texts.append(out_path.read_bytes().decode("utf-8"))
        compact, pretty = texts
        report = json.loads(compact)
        assert json.loads(pretty) == report
        assert pretty == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert pretty.startswith('{\n  "args": {\n    "')
        assert "\r" not in pretty and pretty.endswith("}\n") and not pretty.endswith("\n\n")


def explicit_two_segment(tmp_path, field):
    """The two-segment example with one explicit value per slice point."""
    from doublemirror.bridge import slice_root_keys
    from doublemirror.cones import build_cone
    from doublemirror.instances import build_partition

    data = example_instance("two-segment")
    np_, _ = build_partition(parse_instance(loads(dumps(data))))
    keys = slice_root_keys(build_cone(np_))
    data["coefficients"] = {
        "field": field,
        "seed": 0,
        "values": {",".join(str(x) for x in k): 1 + i for i, k in enumerate(keys)},
    }
    return write_instance(tmp_path, data)


class TestExplicitCoefficients:
    def test_verify_with_explicit_values(self, tmp_path, capsys):
        path = explicit_two_segment(tmp_path, {"prime": 10007})
        code, out = run_cli(["verify", path, "--pair", "1", "1", "--samples", "5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["evidence"]["prime"] == 10007

    def test_bridge_over_the_explicit_prime(self, tmp_path, capsys):
        path = explicit_two_segment(tmp_path, {"prime": 10007})
        code, out = run_cli(["bridge", path, "--pair", "1", "1"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["coefficient_field"] == {"prime": 10007}

    def test_explicit_field_must_be_prime(self, tmp_path, capsys):
        path = explicit_two_segment(tmp_path, {"prime": 10001})
        assert main(["bridge", path, "--pair", "1", "1"]) == 1
        assert capsys.readouterr().err == "error: 10001 is not prime\n"

    def test_pipeline_over_the_explicit_prime(self, tmp_path, capsys):
        path = explicit_two_segment(tmp_path, {"prime": 10007})
        code, out = run_cli(["pipeline", path, "--pair", "1", "1", "--samples", "5"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bridge"]["coefficient_field"] == {"prime": 10007}
        assert result["evidence"]["prime"] == 10007
        # a different --prime is an input error, as in verify
        argv = ["pipeline", path, "--pair", "1", "1", "--prime", "65537"]
        assert run_cli(argv, capsys)[0] == 1

    def test_pipeline_with_explicit_rational_values(self, tmp_path, capsys):
        path = explicit_two_segment(tmp_path, "rational")
        code, out = run_cli(["pipeline", path, "--pair", "1", "1", "--samples", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["bridge"]["coefficient_field"] == "rational"
        assert "evidence" not in report["result"]
        assert any("evidence skipped" in w for w in report["warnings"])

    def test_field_mismatch_rejected(self, tmp_path, capsys):
        data = example_instance("two-segment")
        data["coefficients"] = {"field": "rational", "seed": 0, "values": {"1,0,0,0": 2}}
        path = write_instance(tmp_path, data)
        code, _ = run_cli(["verify", path, "--pair", "1", "1", "--samples", "2"], capsys)
        assert code == 1

    def test_incomplete_map_rejected(self, tmp_path, capsys):
        data = example_instance("two-segment")
        data["coefficients"] = {"field": {"prime": 10007}, "values": {"1,0,0,0": 2}}
        path = write_instance(tmp_path, data)
        code, _ = run_cli(["verify", path, "--pair", "1", "1", "--samples", "2"], capsys)
        assert code == 1


GOLDEN = Path(__file__).parent / "golden"
MISMATCH = "error: explicit coefficients are over a different field than requested\n"


def golden_values(tmp_path, change):
    """``pp33-p10007-values.json`` with its coefficients edited by ``change``."""
    data = loads((GOLDEN / "pp33-p10007-values.json").read_text(encoding="utf-8"))
    change(data["coefficients"])
    return write_instance(tmp_path, data)


def drop_one_value(spec):
    del spec["values"][min(spec["values"])]


def one_zero_value(spec):
    spec["values"][min(spec["values"])] = 0


def field_10001(spec):
    spec["field"] = {"prime": 10001}


def all_values_one(spec):
    # det A_1 of the (1, 2) bridge vanishes when every coefficient is 1
    spec["values"] = dict.fromkeys(spec["values"], 1)


# (argv run in tests/golden, bridge_skeleton calls, fields instantiated over)
WORK = [
    (["bridge", "pp33.json"], 1, ["QQ"]),
    (["verify", "pp33.json", "--samples", "5"], 1, [10007]),
    (["pipeline", "pp33.json", "--samples", "5"], 1, ["QQ", 10007]),
    (["pipeline", "pp33-rational.json"], 1, ["QQ"]),
    (["bridge", "pp33-p10007-values.json"], 1, [10007]),
    (["verify", "pp33-p10007-values.json", "--samples", "5"], 1, [10007]),
    (["pipeline", "pp33-p10007-values.json", "--samples", "5"], 1, [10007]),
    (["pipeline", "square.json"], 0, []),
]


class TestWorkPerCommand:
    """Skeletons built and the fields each is instantiated over, per command.

    Every coefficient check runs before ``bridge_skeleton``, so an input
    error in the coefficients builds no skeleton at all.
    """

    @pytest.mark.parametrize("argv,skeletons,fields", WORK, ids=[" ".join(c[0][:2]) for c in WORK])
    def test_golden_inputs(self, argv, skeletons, fields, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        assert self.work(argv, monkeypatch) == (0, skeletons, fields)

    @pytest.mark.parametrize("argv", [
        ["verify", "pp33-rational.json", "--samples", "5"],
        ["pipeline", "pp33-p10007-values.json", "--samples", "5", "--prime", "65537"],
    ])
    def test_field_mismatch(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        assert self.work(argv, monkeypatch) == (1, 0, [])
        assert capsys.readouterr().err == MISMATCH

    @pytest.mark.parametrize("change,command,flags,error", [
        (drop_one_value, "bridge", [], "error: coefficient map must cover exactly the slice points"),
        (one_zero_value, "verify", ["--samples", "5"], "error: coefficient at (0, 0, 1, 0, 0, 0, 0) is zero"),
        # the bridge is built over the explicit field, so it must be prime
        (field_10001, "bridge", [], "error: 10001 is not prime"),
        # the field check comes first: these values would make det A_1 vanish
        (all_values_one, "pipeline", ["--prime", "65537"], MISMATCH),
    ], ids=["missing value", "zero value", "non-prime field", "degenerate values"])
    def test_explicit_values_checked_first(self, change, command, flags, error, tmp_path,
                                           monkeypatch, capsys):
        path = golden_values(tmp_path, change)
        assert self.work([command, path, *flags], monkeypatch) == (1, 0, [])
        assert capsys.readouterr().err.startswith(error)

    @pytest.mark.parametrize("field", [{"prime": 10007}, "rational"])
    @pytest.mark.parametrize("command", ["bridge", "verify", "pipeline"])
    def test_field_without_values_rejected(self, command, field, tmp_path, monkeypatch, capsys):
        # the field names the values' field: without values no command reads it
        data = loads((GOLDEN / "pp33.json").read_text(encoding="utf-8"))
        data["coefficients"] = {"field": field, "seed": 0}
        path = write_instance(tmp_path, data)
        assert self.work([command, path], monkeypatch) == (1, 0, [])
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: coefficients.field names the field of")

    def test_degenerate_values_reach_the_skeleton(self, tmp_path, monkeypatch, capsys):
        path = golden_values(tmp_path, all_values_one)
        assert self.work(["bridge", path], monkeypatch) == (1, 1, [10007])
        err = capsys.readouterr().err
        assert err == "error: det A_1 vanished for these coefficients; resample advised\n"

    @staticmethod
    def work(argv, monkeypatch):
        """Exit code, ``bridge_skeleton`` calls and the fields instantiated over."""
        import doublemirror.cli as cli
        from doublemirror.bridge import BridgeSkeleton

        skeletons, fields = [], []
        build, instantiate = cli.bridge_skeleton, BridgeSkeleton.instantiate

        def counted_build(*args):
            skeletons.append(args)
            return build(*args)

        def counted_instantiate(self, coeffs):
            fields.append(coeffs.domain)
            return instantiate(self, coeffs)

        monkeypatch.setattr(cli, "bridge_skeleton", counted_build)
        monkeypatch.setattr(BridgeSkeleton, "instantiate", counted_instantiate)
        code = main(argv)
        return code, len(skeletons), fields


class TestExample:
    def test_product_projective_53(self, capsys):
        code, out = run_cli(["example", "product-projective", "--n", "5", "--t", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["cone"]["generators"]) == 125
        inst = parse_instance(data)
        assert inst.rank == 13

    def test_small_sizes(self, capsys):
        for n, t, rank, gens in [(3, 3, 7, 27), (2, 2, 3, 4)]:
            code, out = run_cli(
                ["example", "product-projective", "--n", str(n), "--t", str(t)], capsys
            )
            data = json.loads(out)
            assert len(data["cone"]["generators"]) == gens
            assert parse_instance(data).rank == rank

    def test_bad_parameters(self, capsys):
        code, _ = run_cli(["example", "product-projective", "--n", "1", "--t", "3"], capsys)
        assert code == 1

    @pytest.mark.parametrize("n,t", [(2, 40), (10**9, 2), (2, 10**9)])
    def test_too_many_generators_rejected(self, n, t, capsys):
        # rejected before any generator list or large power is built
        tracemalloc.start()
        try:
            code = main(["example", "product-projective", "--n", str(n), "--t", str(t)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "at most 100000" in captured.err
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", ["two-segment", "square"])
    @pytest.mark.parametrize("flag", ["--n", "--t"])
    def test_fixed_example_refuses_family_flags(self, name, flag, capsys):
        assert main(["example", name]) == 0
        capsys.readouterr()
        assert main(["example", name, flag, "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"{name} takes no --n or --t" in captured.err

    def test_family_under_the_bound_accepted(self, capsys):
        code, out = run_cli(["example", "product-projective", "--n", "3", "--t", "10"], capsys)
        assert code == 0
        assert len(json.loads(out)["cone"]["generators"]) == 3**10


class TestFlagValidation:
    def test_negative_samples_rejected(self, two_segment_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", two_segment_file, "--samples", "-5"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--samples" in err


    @pytest.mark.parametrize(
        "flags,name",
        [(["--prime", "100"], "--prime"), (["--prime", "10001"], "--prime"),
         (["--pair", "0", "1"], "--pair"), (["--pair", "1", "-2"], "--pair")],
    )
    def test_rejected_before_the_instance_is_read(self, flags, name, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        for command in ("verify", "pipeline") if name == "--prime" else ("bridge", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, missing, *flags])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and name in err

    @pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
    def test_seed_outside_64_bits_rejected(self, seed, two_segment_file, capsys):
        # SplitMix64 keeps 64 bits of its seed: 2**64 would run as seed 0 and
        # -1 as 2**64 - 1, under a report that names the seed given
        for command in ("bridge", "verify", "pipeline"):
            with pytest.raises(SystemExit) as exc:
                main([command, two_segment_file, "--seed", seed])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "--seed" in err and "2**64" in err

    @pytest.mark.parametrize("seed", [1 << 64, -1, str(1 << 64)])
    def test_instance_seed_outside_64_bits_rejected(self, seed, tmp_path, capsys):
        data = dict(example_instance("two-segment"), coefficients={"seed": seed})
        path = write_instance(tmp_path, data)
        for command in ("bridge", "verify", "pipeline"):
            assert main([command, path]) == 1
            assert capsys.readouterr().err == "error: coefficients.seed must lie in [0, 2**64)\n"

    def test_largest_seed_accepted(self, tmp_path, capsys):
        top = (1 << 64) - 1
        data = example_instance("product-projective", 3, 3)
        code, out = run_cli(["bridge", write_instance(tmp_path, data), "--seed", str(top)], capsys)
        assert code == 0 and json.loads(out)["result"]["seed"] == top
        data["coefficients"] = {"seed": str(top)}
        code, out = run_cli(["bridge", write_instance(tmp_path, data)], capsys)
        assert code == 0 and json.loads(out)["result"]["seed"] == top

    def test_uncertifiable_prime_rejected_before_the_instance_is_read(self, tmp_path, capsys):
        assert main(["pipeline", str(tmp_path / "missing.json"), "--prime", str((1 << 89) - 1)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cannot certify" in err


FULL2 = '{"lattice":{"ambient_rank":2,"kind":"full"},'
# (id, argv, the text of in.json or None for no file, the one stderr line after "error: ")
INPUT_ERROR_LINES = [
    ("truncated JSON", ["nefdual", "in.json"], "{",
     "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
    ("top-level list", ["nefdual", "in.json"], "[]", "instance file must be a JSON object"),
    ("lattice not an object", ["nefdual", "in.json"], '{"lattice":5,"nef_partition":[[[0,0]]]}',
     "'lattice' must be an object"),
    ("empty part", ["nefdual", "in.json"], FULL2 + '"nef_partition":[[]]}',
     "part 1 must be a non-empty vertex list"),
    ("cone without generators", ["cone", "in.json"], FULL2 + '"cone":{}}',
     "'cone' must be an object with a 'generators' list"),
    ("boolean coordinate", ["nefdual", "in.json"], FULL2 + '"nef_partition":[[[true,0]]]}',
     "part 1 vertex: expected an integer, got a boolean"),
    ("coefficient key", ["bridge", "in.json"],
     FULL2 + '"nef_partition":[[[0,0]]],"coefficients":{"values":{"a,b":1}}}',
     "coefficient key 'a,b' is not comma-separated integers"),
    ("coefficient 1/0", ["bridge", "in.json"],
     FULL2 + '"nef_partition":[[[0,0]]],"coefficients":{"values":{"0,0":"1/0"}}}',
     "coefficient 0,0: '1/0' is not an exact rational"),
    ("coefficient list", ["bridge", "in.json"],
     FULL2 + '"nef_partition":[[[0,0]]],"coefficients":{"values":{"0,0":[1]}}}',
     "coefficient 0,0: expected an integer or 'num/den' string"),
    ("generators off height one", ["cone", "in.json"],
     FULL2 + '"cone":{"generators":[[1,0],[0,1],[1,2]]}}',
     "generators do not lie on an integral height-one hyperplane"),
    ("deg_dual off height one", ["cone", "in.json"],
     FULL2 + '"cone":{"generators":[[1,0],[1,1]],"deg_dual":[2,0]}}',
     "supplied deg_dual does not support the generators at height one"),
    ("missing file", ["cone", "missing.json"], None,
     "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    ("example without --n and --t", ["example", "product-projective"], None,
     "product-projective requires --n and --t"),
    ("unknown example", ["example", "nope"], None, "unknown example 'nope'"),
]


class TestNoTraceback:
    @pytest.mark.parametrize("argv,text,line", [c[1:] for c in INPUT_ERROR_LINES],
                             ids=[c[0] for c in INPUT_ERROR_LINES])
    def test_input_error_line(self, argv, text, line, tmp_path, monkeypatch, capsys):
        # every input error is one InputError, so its message is what tells it apart
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "in.json").write_text(text, encoding="utf-8")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {line}\n"

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000, encoding="utf-8")
        assert main(["cone", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "nested too deeply" in err

    def test_unexpected_exception_exits_3(self, two_segment_file, monkeypatch, capsys):
        import doublemirror.cli as cli

        def boom(_args):
            raise ZeroDivisionError("first line\nsecond line")

        monkeypatch.setitem(cli.COMMANDS, "cone", boom)
        assert main(["cone", two_segment_file]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: unexpected ZeroDivisionError at test_cli.py:")
        assert err.rstrip().endswith(": first line second line")

    def test_internal_error_in_a_translated_candidate_exits_3(self, tmp_path, monkeypatch, capsys):
        import doublemirror.instances as instances
        from doublemirror.errors import InternalError

        real = instances.validate_nef_partition
        calls = []

        def broken_after_the_first(parts, rays):
            calls.append(parts)
            if len(calls) == 1:
                return real(parts, rays)  # not reflexive: the translation search starts
            raise InternalError("candidate check broke")

        monkeypatch.setattr(instances, "validate_nef_partition", broken_after_the_first)
        data = {"lattice": {"ambient_rank": 2, "kind": "full"},
                "nef_partition": [[[0, 0], [2, 0], [0, 2], [2, 2]]]}
        assert main(["nefdual", write_instance(tmp_path, data)]) == 3
        assert capsys.readouterr().err == "internal error: candidate check broke\n"
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"cone": {"generators": 5}},
            {"nef_partition": 5},
            {"nef_partition": [[[0, 0]]],
             "lattice": {"ambient_rank": 2, "kind": "kernel", "equations": 5}},
            {"nef_partition": [[[0, 0]]],
             "lattice": {"ambient_rank": 2, "kind": "quotient", "relations": 5}},
            {"nef_partition": [[[0, 0]]], "coefficients": {"values": [1, 2]}},
            {"nef_partition": [[[0, 0]]],
             "coefficients": {"field": {"prime": 0}, "values": {"0,0": 1}}},
        ],
    )
    def test_hostile_json_is_an_input_error(self, payload, tmp_path, capsys):
        data = {"lattice": {"ambient_rank": 2, "kind": "full"}, **payload}
        assert main(["nefdual", write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_cone_index_equal_to_rank_is_an_input_error(self, tmp_path, capsys):
        # deg_dual = (1, 0) and deg = (1, 1): index 2 in rank 2 leaves d = 0
        data = {"lattice": {"ambient_rank": 2, "kind": "full"},
                "cone": {"generators": [[1, 0], [1, 1]]}}
        assert main(["cone", write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cone index 2 equals its rank")

    def test_cone_without_generators_is_an_input_error(self, tmp_path, capsys):
        # the rank comes from the lattice, not from a generator, so an empty
        # list is a flat cone rather than an index out of range
        data = {"lattice": {"ambient_rank": 2, "kind": "full"}, "cone": {"generators": []}}
        assert main(["cone", write_instance(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: cone is not full-dimensional\n"

    @pytest.mark.parametrize(
        "command, payload",
        [("cone", {"cone": {"generators": [[1, 0], [1, 1]]}}),
         ("nefdual", {"nef_partition": [[[0, 0]]]})],
    )
    def test_rank_zero_lattice_is_an_input_error(self, command, payload, tmp_path, capsys):
        data = {"lattice": {"ambient_rank": 2, "kind": "kernel", "equations": [[1, 0], [0, 1]]}}
        data.update(payload)
        assert main([command, write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err == "error: the kernel lattice has rank 0; a positive rank is required\n"

    @pytest.mark.parametrize("kind,key,noun", [("kernel", "equations", "equation"),
                                                ("quotient", "relations", "relation")])
    def test_ragged_lattice_rows_are_an_input_error(self, kind, key, noun, tmp_path, capsys):
        # a full first row and an empty second one: every row is checked
        data = {"lattice": {"ambient_rank": 3, "kind": kind, key: [[1, -1, 0], []]},
                "nef_partition": [[[0, 0, 0]]]}
        assert main(["nefdual", write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {noun} rows must have length ambient_rank\n"

    @pytest.mark.parametrize("command", ["nefdual", "cone", "decompose", "bridge", "verify",
                                         "pipeline"])
    def test_polytope_payload_is_an_input_error(self, command, tmp_path, capsys):
        # a polytope is written as a one-part nef_partition; the bare vertex
        # list is no payload of any command
        data = {"lattice": {"ambient_rank": 2, "kind": "full"}, "polytope": SQUARE}
        assert main([command, write_instance(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: exactly one of 'nef_partition', 'cone' is required"
            " (a polytope is a one-part 'nef_partition')\n"
        )

    def test_generator_off_the_kernel_lattice(self, tmp_path, capsys):
        data = {"lattice": {"ambient_rank": 3, "kind": "kernel", "equations": [[1, 1, 1]]},
                "cone": {"generators": [[1, 0, 0]]}}
        assert main(["cone", write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err == "error: vector does not lie in the kernel lattice\n"

    def test_unwritable_output_is_an_input_error(self, two_segment_file, tmp_path, capsys):
        assert main(["cone", two_segment_file, "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")


class TestShiftedPartitions:
    TWO_SEGMENT = [[[-1, 0], [1, 0]], [[0, -1], [0, 1]]]

    @pytest.mark.parametrize(
        "parts",
        [
            [[[0, 0], [2, 0]], [[0, -1], [0, 1]]],
            [[[0, -1], [0, 1]], [[0, 0], [2, 0]]],
            [[[-1, 0], [1, 0]], [[0, 0], [0, 2]]],
            [[[0, 0], [0, 2]], [[-1, 0], [1, 0]]],
        ],
    )
    def test_accepted_in_any_part_order(self, parts, tmp_path, capsys):
        data = {"lattice": {"ambient_rank": 2, "kind": "full"}, "nef_partition": parts}
        code, out = run_cli(["nefdual", write_instance(tmp_path, data)], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert sorted(result["parts"]) == self.TWO_SEGMENT

    def test_shift_split_over_the_parts(self, tmp_path, capsys):
        # u = (1, 1) lies in neither part, so each part moves
        data = {"lattice": {"ambient_rank": 2, "kind": "full"},
                "nef_partition": [[[0, 0], [2, 0]], [[0, 0], [0, 2]]]}
        code, out = run_cli(["nefdual", write_instance(tmp_path, data)], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["parts"] == self.TWO_SEGMENT
        assert result["normalization"]["shift"] == "parts translated by -(1,0), -(0,1)"

    def test_every_order_of_shifted_pp33_parts(self):
        pair, _ = normalize_cone(*product_projective_cone(3, 3))
        parts = [[list(v) for v in part] for part in pair.parts.parts]
        lattice = {"ambient_rank": pair.d, "kind": "full"}
        base, _ = build_partition(parse_instance({"lattice": lattice, "nef_partition": parts}))
        runs = 0
        for i, part in enumerate(parts):
            for v in part:
                if not any(v):
                    continue
                shifted = [p if k != i else [[a - b for a, b in zip(w, v)] for w in p]
                           for k, p in enumerate(parts)]
                for order in itertools.permutations(range(len(parts))):
                    data = {"lattice": lattice, "nef_partition": [shifted[k] for k in order]}
                    np_, note = build_partition(parse_instance(data))
                    s = len(parts)
                    assert sum_facets(s, np_.cayley_rays) == sum_facets(s, base.cayley_rays)
                    assert list(np_.cayley_rays) == cayley_dual_rays(np_.parts)
                    if order[0] == i:
                        moved = ",".join(str(-x) for x in v)
                        assert note == f"partition translated by -({moved})"
                    runs += 1
        assert runs == 144

    def test_scaled_projective_sum_exits_without_a_search(self, tmp_path, monkeypatch, capsys):
        # 3 conv(0, E_i) for P^7 (4,4), E_1 and E_2 splitting the fan vertices
        # e_1, ..., e_7, -(e_1 + ... + e_7): no translate of the sum is reflexive
        import doublemirror.instances as instances

        real = instances.validate_nef_partition
        calls = []

        def counted(parts, rays):
            calls.append(parts)
            return real(parts, rays)

        monkeypatch.setattr(instances, "validate_nef_partition", counted)
        rays = [[int(i == j) for j in range(7)] for i in range(7)] + [[-1] * 7]
        parts = [[[0] * 7] + [[3 * x for x in r] for r in block] for block in (rays[:4], rays[4:])]
        data = {"lattice": {"ambient_rank": 7, "kind": "full"}, "nef_partition": parts}
        assert main(["nefdual", write_instance(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "not reflexive" in err
        assert len(calls) <= 2


class TestLargePrimes:
    @pytest.mark.parametrize("prime", [2147483659, (1 << 61) - 1])
    def test_verify(self, prime, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        code, out = run_cli(
            ["verify", inst, "--pair", "1", "2", "--samples", "30", "--prime", str(prime)], capsys
        )
        assert code == 0
        evidence = json.loads(out)["result"]["evidence"]
        assert evidence["verdict"] is True and evidence["samples_on_d"] == 30

    def test_prime_beyond_certified_range(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example_instance("product-projective", 3, 3))
        assert main(["verify", inst, "--prime", str((1 << 89) - 1)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1


def run_python(argv):
    """A fresh interpreter that imports the package from this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = run_python(["-m", "doublemirror.cli", "example", "two-segment"])
        assert out.returncode == 0
        assert json.loads(out.stdout)["nef_partition"]

    def test_dualize_is_no_subcommand(self, square_file):
        # nefdual is the one polar-dual path
        out = run_python(["-m", "doublemirror.cli", "dualize", square_file])
        assert out.returncode == 1 and out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and "invalid choice: 'dualize'" in out.stderr

    def test_import_does_not_load_numpy(self):
        # start-up pays only for what a run needs: no test-only dependency,
        # no `traceback` (main names the failing line without it), and no
        # `dataclasses` or the `inspect` it imports (records are declared without it),
        # and no `hashlib`, whose `_hashlib` loads OpenSSL for the one input digest
        heavy = (
            "numpy", "sympy", "hypothesis", "traceback", "dataclasses", "inspect",
            "hashlib", "_hashlib",
        )
        code = f"import sys, doublemirror.cli; print([m for m in {heavy!r} if m in sys.modules])"
        out = run_python(["-c", code])
        assert out.returncode == 0
        assert out.stdout.strip() == "[]"

    def test_digest_falls_back_to_hashlib(self):
        # an interpreter without the built-in SHA-256 modules still digests,
        # through hashlib, to the same bytes
        code = (
            "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from doublemirror.instances import example_instance, parse_instance\n"
            "digest = parse_instance(example_instance('square')).digest()\n"
            "print('hashlib' in sys.modules, digest)"
        )
        out = run_python(["-c", code])
        assert out.returncode == 0
        expected = parse_instance(example_instance("square")).digest()
        assert out.stdout.split() == ["True", expected]
