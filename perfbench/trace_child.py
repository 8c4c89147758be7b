"""Traced in-process run of `doublemirror.cli.main`.

Wraps, from outside the package, the module attributes through which one
layer calls the next, runs the CLI once in this process and writes the
spans, counters and the report it printed.  The package source is not
edited: a wrapper replaces the name in the calling module only, so a call
is traced exactly when it crosses the boundary listed in BOUNDARIES.

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/trace_child.py SPANS.json REPORT.json -- pipeline FILE ...
"""

import contextlib
import importlib
import io
import json
import sys
import time

# (span name, calling module, attribute the caller looks up).  "as called
# from cones" entries patch only `cones`, so polytope-internal calls of the
# same function stay inside their caller's self time.
BOUNDARIES = [
    ("instances.parse", "cli", "loads"),
    ("instances.parse", "cli", "parse_instance"),
    ("cones.normalize_cone", "cli", "normalize_cone"),
    ("cones.build_cone", "cli", "build_cone"),
    ("cones.build_cone", "cones", "build_cone"),
    ("cones.build_cone", "bridge", "build_cone"),
    ("cones.verify_reflexive_gorenstein", "cli", "verify_reflexive_gorenstein"),
    ("cones.verify_reflexive_gorenstein", "cones", "verify_reflexive_gorenstein_data"),
    ("polytope.lattice_points", "cones", "lattice_points"),
    ("polytope.hull_vertices", "cones", "hull_vertices"),
    ("dd.extreme_rays", "cones", "extreme_rays"),
    ("nefpart.validate_nef_partition", "cones", "validate_nef_partition"),
    ("nefpart.dual_nef_partition", "cones", "dual_nef_partition"),
    ("bridge.enumerate_decompositions", "cli", "enumerate_decompositions"),
    ("bridge.random_coefficients", "cli", "random_coefficients"),
    ("bridge.build_bridge", "cli", "build_bridge"),
    ("evidence.birationality_evidence", "cli", "birationality_evidence"),
    ("evidence.sample_determinantal_points", "evidence", "sample_determinantal_points"),
    ("fpkernels.scan_roots", "evidence", "scan_roots"),
    ("evidence.fp_det", "evidence", "fp_det"),
    ("evidence.fp_right_kernel", "evidence", "fp_right_kernel"),
    ("evidence.fiber", "evidence", "fiber"),
    ("evidence.delta_regularity_probe", "evidence", "delta_regularity_probe"),
    ("cli.dumps", "cli", "dumps"),
]


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            span = [span_name(name, args), self.stack[-1] if self.stack else None, 0.0, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def span_name(name, args):
    """The coefficient draw is split by field: QQ for the symbolic bridge, F_p for sampling."""
    if name == "bridge.random_coefficients" and len(args) > 1:
        return name + ("_qq" if args[1] == "QQ" else "_fp")
    return name


def _after_sampling(tracer, _args, result):
    stats = result[1] if isinstance(result, tuple) and len(result) == 2 else {}
    if isinstance(stats, dict):
        tracer.count("evidence.line_tries", stats.get("line_tries", 0))
        tracer.count("evidence.samples_found", stats.get("found", 0))


def _after_scan(tracer, args, _result):
    # Computed op count: the scan evaluates the polynomial at every point of F_p*.
    tracer.count("fpkernels.points_scanned", int(args[1]) - 1)


AFTER = {
    "evidence.sample_determinantal_points": _after_sampling,
    "fpkernels.scan_roots": _after_scan,
}


def install(tracer):
    """Patch every boundary that exists; return the names of those that do not."""
    absent = []
    for name, module, attr in BOUNDARIES:
        try:
            mod = importlib.import_module("doublemirror." + module)
        except ImportError:
            absent.append(f"{name} ({module}.{attr})")
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            absent.append(f"{name} ({module}.{attr})")
            continue
        setattr(mod, attr, tracer.wrap(name, fn))
    return absent


def main(argv):
    spans_path, report_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json REPORT.json -- CLI-ARGS...")
    import doublemirror.cli as cli

    tracer = Tracer()
    absent = install(tracer)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_args)
    total = time.perf_counter() - start
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(out.getvalue())
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "total_s": total,
                "absent": absent,
                "counters": tracer.counters,
                "spans": [
                    {"name": n, "parent": p, "start": s - start, "end": e - start}
                    for n, p, s, e in tracer.spans
                ],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
