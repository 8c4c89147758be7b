"""Command-line interface: exact pipeline from instance files to reports.

Subcommands: nefdual, cone, decompose, bridge, verify, pipeline, example.
A reflexive polytope is a one-part nef-partition, so ``nefdual`` prints its
polar dual.  Reports are UTF-8 JSON with sorted keys and LF endings; identical
inputs and flags produce byte-identical output (timing goes to stderr only).
Exit codes: 0 success, 1 input error, 2 warnings escalated under --strict,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .bridge import bridge_skeleton, enumerate_decompositions, random_coefficients, slice_root_keys
from .cones import build_cone, normalize_cone
from .errors import InputError, InternalError
from .evidence import MIN_PRIME, birationality_evidence
from .instances import (
    Instance,
    build_partition,
    dumps,
    example_instance,
    loads,
    parse_instance,
)
from .laurent import MASK64, RATIONAL, CoefficientAssignment, is_prime
from .polytope import sum_from_cayley_rays


def _load_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_instance(loads(text))


def _pair_from_instance(instance: Instance):
    """Cone pair plus normalization info for either input mode."""
    if instance.kind == "nef_partition":
        np_, note = build_partition(instance)
        pair = build_cone(np_)
        info = {"input_mode": "nef_partition"}
        if note:
            info["shift"] = note
        return pair, info
    pair, norm = normalize_cone(
        instance.rank, instance.cone_generators, instance.cone_deg, instance.cone_deg_dual
    )
    info = {"input_mode": "cone"}
    info.update(norm)
    return pair, info


def _front(args):
    """The instance, its cone pair, normalization info and decompositions."""
    instance = _load_instance(args.file)
    pair, info = _pair_from_instance(instance)
    return instance, pair, info, enumerate_decompositions(pair)


def _pair_bridges(args, instance, pair, decs, *fields):
    """The selected pair (i, j), the seed and its bridges, one per field.

    A field of None is the explicit values' field, else QQ.  Explicit values
    make one bridge that serves every field, so any other field is an input
    error.  The seed is --seed, else the file's, else 0.  Every coefficient
    check runs before the one skeleton is built, so bad values never reach
    the bridge.
    """
    i, j = args.pair or (1, 2)
    if not (1 <= i <= len(decs) and 1 <= j <= len(decs)):
        raise InputError(f"pair index out of range: {len(decs)} decompositions available")
    spec = instance.coefficients
    seed = args.seed
    if seed is None:
        seed = spec.seed if spec is not None else 0
    if spec is not None and spec.explicit is not None:
        if any(field not in (None, spec.domain) for field in fields):
            raise InputError("explicit coefficients are over a different field than requested")
        keys = set(slice_root_keys(pair))
        given = set(spec.explicit)
        if given != keys:
            missing = sorted(keys - given)[:3]
            extra = sorted(given - keys)[:3]
            raise InputError(
                f"coefficient map must cover exactly the slice points; missing {missing}, extra {extra}"
            )
        coeffs = [CoefficientAssignment.explicit(spec.explicit, spec.domain)]
    else:
        domains = (RATIONAL if field is None else field for field in fields)
        coeffs = [random_coefficients(pair, domain, seed) for domain in domains]
    skeleton = bridge_skeleton(pair, decs[i - 1], decs[j - 1])
    return (i, j), seed, [skeleton.instantiate(c) for c in coeffs]


def _decomposition_payload(decs):
    items = []
    for dec in decs:
        items.append(
            {
                "p": dec.p,
                "e_tilde": dec.e_tilde(),
                "blocks": [[i + 1 for i in block] for block in dec.blocks],
                "r": dec.r,
                "block_sizes": list(dec.block_sizes),
                "trivial": dec.is_trivial(),
            }
        )
    return {"count": len(decs), "decompositions": items}


def _bridge_payload(bridge, pair_idx, seed):
    skeleton = bridge.skeleton
    domain = bridge.coeffs.domain
    dets = []
    for det in bridge.determinants:
        ranges = [det.exponent_range(c) for c in range(bridge.torus_rank)]
        dets.append(
            {
                "terms": len(det.terms),
                "exponent_ranges": [list(r) for r in ranges],
            }
        )
    return {
        "pair": list(pair_idx),
        "coefficient_field": "rational" if domain == RATIONAL else {"prime": domain},
        "seed": seed,
        "saturation_index": skeleton.sat_index,
        "torus_rank": bridge.torus_rank,
        "blocks": [[i + 1 for i in b] for b in skeleton.blocks],
        "matrix_sizes": [len(m) for m in bridge.matrices],
        "identity_results": {k: bool(v) for k, v in sorted(skeleton.identity_results.items())},
        "identities_pass": all(skeleton.identity_results.values()),
        "determinants": dets,
        "diagonal_witness": list(bridge.diag_witness),
        "warnings": list(bridge.warnings),
    }


def cmd_nefdual(args):
    instance = _load_instance(args.file)
    pair, info = _pair_from_instance(instance)
    np_ = pair.parts
    # dual_nef_partition checked that the minima at a vertex w != 0 of
    # nabla_j are delta_ij, and all minima at w = 0 are 0
    minima = {}
    for j, nabla in enumerate(pair.dual_parts):
        for w in nabla:
            key = ",".join(map(str, w))
            minima[key] = [int(i == j and any(w)) for i in range(pair.s)]
    result = {
        "normalization": info,
        "parts": np_.parts,
        "sum_vertices": sum_from_cayley_rays(np_.parts, np_.cayley_rays),
        "dual_parts": pair.dual_parts,
        "pairing_minima_at_dual_vertices": minima,
    }
    return result, [], instance


def cmd_cone(args):
    instance = _load_instance(args.file)
    pair, info = _pair_from_instance(instance)
    # build_cone admits only pairs that pass the reflexive Gorenstein check
    result = {
        "normalization": info,
        "reflexive_gorenstein": True,
        "index": pair.s,
        "s": pair.s,
        "d": pair.d,
        "k_generator_count": len(pair.k_generators),
        "k_dual_generator_count": len(pair.k_dual_generators),
        "deg": list(pair.deg),
        "deg_dual": list(pair.deg_dual),
    }
    return result, [], instance


def cmd_decompose(args):
    instance, pair, info, decs = _front(args)
    result = {"normalization": info}
    result.update(_decomposition_payload(decs))
    warnings = []
    if len(decs) == 1:
        warnings.append("no nontrivial double mirror: only the trivial decomposition exists")
    return result, warnings, instance


def cmd_bridge(args):
    instance, pair, info, decs = _front(args)
    pair_idx, seed, (bridge,) = _pair_bridges(args, instance, pair, decs, None)
    result = {"normalization": info}
    result.update(_bridge_payload(bridge, pair_idx, seed))
    return result, list(bridge.warnings), instance


def cmd_verify(args):
    instance, pair, info, decs = _front(args)
    pair_idx, seed, (bridge,) = _pair_bridges(args, instance, pair, decs, args.prime)
    report = birationality_evidence(bridge, args.samples, args.prime, seed)
    result = {"normalization": info, "pair": list(pair_idx), "evidence": report.payload()}
    return result, list(report.warnings), instance


def cmd_pipeline(args):
    instance, pair, info, decs = _front(args)
    result = {
        "normalization": info,
        "cone": {
            "reflexive_gorenstein": True,
            "index": pair.s,
            "s": pair.s,
            "d": pair.d,
            "k_generator_count": len(pair.k_generators),
        },
        "dual_parts": pair.dual_parts,
    }
    result.update(_decomposition_payload(decs))
    warnings = []
    if len(decs) == 1 and args.pair is None:
        warnings.append("no nontrivial double mirror: only the trivial decomposition exists")
        result["notice"] = "pipeline stopped before the bridge stage"
        return result, warnings, instance
    # explicit rational values leave no field for the evidence stage
    spec = instance.coefficients
    rational = spec is not None and spec.explicit is not None and spec.domain == RATIONAL
    fields = (None,) if rational else (None, args.prime)
    pair_idx, seed, bridges = _pair_bridges(args, instance, pair, decs, *fields)
    result["bridge"] = _bridge_payload(bridges[0], pair_idx, seed)
    warnings.extend(bridges[0].warnings)
    if rational:
        warnings.append("explicit coefficients are rational: finite-field evidence skipped")
        result["notice"] = "pipeline stopped before the evidence stage"
        return result, warnings, instance
    report = birationality_evidence(bridges[-1], args.samples, args.prime, seed)
    result["evidence"] = report.payload()
    warnings.extend(w for w in report.warnings if w not in warnings)
    return result, warnings, instance


def cmd_example(args):
    data = example_instance(args.name, n=args.n, t=args.t)
    return data, [], None


COMMANDS = {
    "nefdual": cmd_nefdual,
    "cone": cmd_cone,
    "decompose": cmd_decompose,
    "bridge": cmd_bridge,
    "verify": cmd_verify,
    "pipeline": cmd_pipeline,
    "example": cmd_example,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line on stderr, exit code 1."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def sample_count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def seed_value(text):
    """A seed in [0, 2**64): SplitMix64 keeps 64 bits, so a seed outside would alias another."""
    value = int(text)
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {value}")
    return value


def pair_index(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"decomposition indices start at 1, got {value}")
    return value


def prime_field(text):
    """A prime >= MIN_PRIME; ``is_prime`` rejects primes it cannot certify."""
    value = int(text)
    if value < MIN_PRIME or not is_prime(value):
        raise argparse.ArgumentTypeError(f"must be a prime >= {MIN_PRIME}, got {value}")
    return value


def build_parser():
    parser = _Parser(
        prog="doublemirror",
        description="Exact toric double-mirror constructions and finite-field evidence",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="instance JSON file")
        p.add_argument("--pretty", action="store_true", help="indented output")
        p.add_argument("--strict", action="store_true", help="escalate warnings to exit code 2")
        p.add_argument("--output", help="write the report to this path")

    for name in ("nefdual", "cone", "decompose"):
        add_common(sub.add_parser(name))

    for name in ("bridge", "verify", "pipeline"):
        p = sub.add_parser(name)
        add_common(p)
        p.add_argument("--pair", nargs=2, type=pair_index, metavar=("I", "J"), default=None)
        p.add_argument("--seed", type=seed_value, default=None)
        if name != "bridge":
            p.add_argument("--samples", type=sample_count, default=100)
            p.add_argument("--prime", type=prime_field, default=10007)

    p = sub.add_parser("example")
    p.add_argument("name", help="two-segment | square | product-projective")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    add_common(p, with_file=False)
    return parser


def _args_echo(args):
    skip = {"command", "pretty", "output"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        echo[key] = value
    return echo


def main(argv=None) -> int:
    try:
        # a prime too large to certify raises InputError while parsing
        return _run(build_parser().parse_args(argv))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # no traceback may escape main; name where it was raised
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        detail = " ".join(str(exc).split())
        name = type(exc).__name__
        print(f"internal error: unexpected {name} at {where}: {detail}", file=sys.stderr)
        return 3


def _run(args) -> int:
    started = time.monotonic()
    result, warnings, instance = COMMANDS[args.command](args)
    if args.command == "example":
        text = dumps(result, pretty=args.pretty)
    else:
        report = {
            "command": args.command,
            "args": _args_echo(args),
            "input_digest": instance.digest() if instance is not None else None,
            "result": result,
            "warnings": list(warnings),
        }
        text = dumps(report, pretty=args.pretty)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(f"{args.command}: {elapsed:.2f}s", file=sys.stderr)
    if warnings and args.strict:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
