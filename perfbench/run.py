#!/usr/bin/env python3
"""Benchmark of `doublemirror pipeline` as a user runs it.

Each measured unit is one child process
    python -m doublemirror.cli pipeline INSTANCE --samples N --prime P --seed S
started from the repository root with PYTHONPATH=src (no install, nothing
under src/ edited).  Children run one at a time; a run cycles through a few
pipeline seeds derived from --seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics: the wall time of a pipeline child
from spawn to exit (median per seed, mean over seeds), the median wall time
of a child that only imports `doublemirror.cli` (set-up every user pays), and
the peak RSS of a pipeline child from `os.wait4`.  --trace 1 does the same
runs, then one traced in-process run (perfbench/trace_child.py), and prints
the per-layer metrics: self time and call counts per layer, work counters,
import times and the tracing overhead.

Every pipeline run is checked (exit code, JSON, the report's own invariants,
byte-identity with the first report of its seed); a run that fails any check
counts in `failed`.  The last stdout line is the result object; the line
before it holds the environment, report digests, per-child records and, when
traced, the self-time table and the dominant-layer check.  Side files go to
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "out")
CLI_SOURCE = os.path.join("src", "doublemirror", "cli.py")

# Import-only children run before each pipeline child, so set-up is sampled
# over the same stretch of time as the pipeline.
SETUP_PER_PIPELINE = 2
IMPORTTIME_REPEATS = 3
# A run must end within 180 s; stop starting children well before that.
RUN_DEADLINE_S = 160.0


@dataclass(frozen=True)
class Workload:
    n: int
    t: int
    samples: int
    prime: int
    # Distinct pipeline seeds per run.  Line tries, and with them the time of
    # the evidence stage, vary from seed to seed; averaging over several seeds
    # keeps run-to-run spread low where that stage dominates.
    seeds: int
    # Span names that make up the layer this workload was chosen to stress.
    dominant: tuple
    why: str


WORKLOADS = {
    "pp53-p10007": Workload(
        5, 3, 100, 10007, 3, ("cones.normalize_cone",),
        "(5,3) instance, 125 generators: exact polytope work in cone normalization dominates",
    ),
    "pp33-p1000003": Workload(
        3, 3, 60, 1000003, 5, ("fpkernels.scan_roots",),
        "(3,3) at a large prime: the O(p) root scan of F_p* dominates time and peak RSS",
    ),
    "pp33-p10007-dense": Workload(
        3, 3, 1500, 10007, 3,
        ("evidence.fiber", "evidence.delta_regularity_probe", "evidence.fp_det", "evidence.fp_right_kernel"),
        "(3,3), many cheap lines at a small prime: F_p elimination, fibers and the regularity probe dominate",
    ),
}

# Per-layer metrics: (name, unit, kind, source).  kind "self" sums the self
# time of the named span, "calls" counts its spans, "counter" reads a counter
# of the traced run; the rest are computed in per_layer_metrics.
PER_LAYER = [
    ("instances.parse_s", "s", "self", "instances.parse"),
    ("cones.normalize_cone_s", "s", "self", "cones.normalize_cone"),
    ("cones.build_cone_s", "s", "self", "cones.build_cone"),
    ("cones.verify_reflexive_gorenstein_s", "s", "self", "cones.verify_reflexive_gorenstein"),
    ("polytope.lattice_points_s", "s", "self", "polytope.lattice_points"),
    ("polytope.hull_vertices_s", "s", "self", "polytope.hull_vertices"),
    ("dd.extreme_rays_s", "s", "self", "dd.extreme_rays"),
    ("dd.extreme_rays_calls", "count", "calls", "dd.extreme_rays"),
    ("nefpart.validate_nef_partition_s", "s", "self", "nefpart.validate_nef_partition"),
    ("nefpart.dual_nef_partition_s", "s", "self", "nefpart.dual_nef_partition"),
    ("bridge.enumerate_decompositions_s", "s", "self", "bridge.enumerate_decompositions"),
    ("bridge.random_coefficients_qq_s", "s", "self", "bridge.random_coefficients_qq"),
    ("bridge.random_coefficients_fp_s", "s", "self", "bridge.random_coefficients_fp"),
    ("bridge.build_bridge_s", "s", "self", "bridge.build_bridge"),
    ("bridge.build_bridge_calls", "count", "calls", "bridge.build_bridge"),
    ("evidence.birationality_evidence_s", "s", "self", "evidence.birationality_evidence"),
    ("evidence.sample_determinantal_points_s", "s", "self", "evidence.sample_determinantal_points"),
    ("evidence.line_tries", "count", "counter", "evidence.line_tries"),
    ("evidence.line_yield", "ratio", "line_yield", None),
    ("fpkernels.scan_roots_s", "s", "self", "fpkernels.scan_roots"),
    ("fpkernels.scan_roots_calls", "count", "calls", "fpkernels.scan_roots"),
    ("fpkernels.points_scanned", "count", "counter", "fpkernels.points_scanned"),
    ("evidence.fp_det_s", "s", "self", "evidence.fp_det"),
    ("evidence.fp_det_calls", "count", "calls", "evidence.fp_det"),
    ("evidence.fiber_s", "s", "self", "evidence.fiber"),
    ("evidence.fiber_calls", "count", "calls", "evidence.fiber"),
    ("evidence.fp_right_kernel_s", "s", "self", "evidence.fp_right_kernel"),
    ("evidence.delta_regularity_probe_s", "s", "self", "evidence.delta_regularity_probe"),
    ("cli.dumps_s", "s", "self", "cli.dumps"),
    ("import.doublemirror_cli_s", "s", "import", "doublemirror.cli"),
    ("import.fpkernels_s", "s", "import", "doublemirror.fpkernels"),
    ("import.numpy_s", "s", "import", "numpy"),
    ("trace.total_s", "s", "trace_total", None),
    ("trace.overhead_s", "s", "trace_overhead", None),
]

# Run once before any timed child: importing the CLI writes the bytecode
# caches, and the versions it prints describe the measured environment.
ENV_PROBE = """
import json, platform
import doublemirror.cli
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
try:
    from doublemirror import fpkernels
    backend = fpkernels.BACKEND
except ImportError:
    backend = None
print(json.dumps({"python": platform.python_version(), "numpy": numpy_version,
                  "fpkernels_backend": backend}))
"""


def product_projective_instance(n, t):
    """Instance JSON for the cone over sums u_{i_1} + ... + u_{i_t}, one index per block.

    The lattice is Z^{nt} cut down to equal block sums; deg is the all-ones
    functional and deg_dual the sum over the first block.
    """
    ambient = n * t
    equations = []
    for j in range(1, t):
        row = [0] * ambient
        for i in range(n):
            row[i] = 1
            row[j * n + i] = -1
        equations.append(row)
    generators = []
    for flat in range(n**t):
        vec = [0] * ambient
        for j in range(t):
            vec[j * n + (flat // n ** (t - 1 - j)) % n] = 1
        generators.append(vec)
    return {
        "lattice": {"ambient_rank": ambient, "kind": "kernel", "equations": equations},
        "cone": {
            "generators": sorted(generators),
            "deg": [1] * ambient,
            "deg_dual": [1] * n + [0] * (ambient - n),
        },
    }


def check_report(text, wl, seed):
    """Problems with one pipeline report (empty when it is correct)."""
    try:
        result = json.loads(text)["result"]
        cone, bridge, ev = result["cone"], result["bridge"], result["evidence"]
        problems = []
        if cone["reflexive_gorenstein"] is not True:
            problems.append("cone is not reflexive Gorenstein")
        if result["count"] != 3:
            problems.append(f"decomposition count {result['count']} != 3")
        if bridge["identities_pass"] is not True:
            problems.append("bridge identities fail")
        if (ev["prime"], ev["seed"]) != (wl.prime, seed):
            problems.append("evidence prime or seed differs from the flags")
        if not ev["samples_requested"] == ev["samples_on_d"] == wl.samples:
            problems.append(f"{ev['samples_on_d']} of {wl.samples} samples found on D")
        if ev["verdict"] is not True:
            problems.append("birationality verdict is false")
        for side in ("fiber_histogram_e", "fiber_histogram_etilde"):
            # At finite p a sampled point's fiber can leave the torus with
            # probability O(1/p), so a few "0" entries are correct output;
            # every sample must still land in "0" or "1".
            hist = ev[side]
            if not set(hist) <= {"0", "1"} or sum(hist.values()) != wl.samples:
                problems.append(f"{side} {hist} is not a 0/1 count of {wl.samples} samples")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, stdout_path, stderr_path, env, timeout):
    """Run argv to completion; return (wall s, CPU s, exit code, peak RSS in MB).

    A child still running after `timeout` seconds is killed and reported with
    a negative exit code.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(max(timeout, 1.0), _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.wait4(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


class Runner:
    """Spawns children from the repository root and keeps their records."""

    def __init__(self, env, started):
        self.env = env
        self.started = started
        self.records = []

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, kind, argv, tag):
        out = os.path.join(OUT, f"{tag}.out")
        err = os.path.join(OUT, f"{tag}.err")
        wall, cpu, code, rss = spawn(argv, out, err, self.env, self.remaining())
        with open(out, "rb") as fh:
            stdout = fh.read()
        record = {
            "kind": kind, "wall_s": wall, "cpu_s": cpu, "exit": code, "peak_rss_mb": rss, "problems": [],
        }
        if code != 0:
            with open(err, "rb") as fh:
                tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-1:]
            record["problems"].append(f"exit code {code}: {' '.join(tail)}")
        self.records.append(record)
        return record, stdout


def pipeline_args(instance, wl, seed):
    return [
        "pipeline", instance, "--samples", str(wl.samples),
        "--prime", str(wl.prime), "--seed", str(seed),
    ]


def check_pipeline_run(record, stdout, wl, seed, references):
    """Add report problems to a pipeline record; each seed's first good report is its reference."""
    if record["exit"] == 0:
        record["problems"].extend(check_report(stdout, wl, seed))
    if seed in references and stdout != references[seed]:
        record["problems"].append("report bytes differ from the first report of this seed")
    if not record["problems"]:
        references.setdefault(seed, stdout)


def measure_pipelines(runner, py, instance, wl, seeds, seconds, references):
    """Pipeline children cycling through `seeds` until `seconds` have passed.

    Returns (pipeline records, set-up records).  The first seed always runs
    twice, so every run checks byte-identity.
    """
    begin = time.perf_counter()
    runs, setup = [], []
    while True:
        typical = 0.0  # time of one pass of this loop
        if runs:
            typical = statistics.median(r["wall_s"] for r in runs) + sum(
                r["wall_s"] for r in setup[-SETUP_PER_PIPELINE:]
            )
        if len(runs) > len(seeds) and time.perf_counter() - begin + typical > seconds:
            break
        if runs and runner.remaining() < 2 * typical + 5:
            break
        for _ in range(SETUP_PER_PIPELINE):
            record, _ = runner.run("setup", [py, "-c", "import doublemirror.cli"], f"setup-{len(setup)}")
            setup.append(record)
        seed = seeds[len(runs) % len(seeds)]
        argv = [py, "-m", "doublemirror.cli"] + pipeline_args(instance, wl, seed)
        record, stdout = runner.run("pipeline", argv, f"pipeline-{len(runs)}")
        record["seed"] = seed
        check_pipeline_run(record, stdout, wl, seed, references)
        runs.append(record)
    return runs, setup


def mean_of_seed_medians(runs, key):
    """Median over each seed's runs, then the mean over seeds, so every seed weighs the same."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def import_times(stderr_text):
    """Cumulative seconds per module from `python -X importtime` output."""
    times = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            times[fields[2].strip()] = int(fields[1]) / 1e6
    return times


def _self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_tables(trace, skip=None):
    """Self time and call count per span name; time outside every span is "(cli, unwrapped)"."""
    spans = trace["spans"]
    self_time = {"(cli, unwrapped)": trace["total_s"]}
    calls = {}
    for i, (s, own) in enumerate(zip(spans, _self_times(spans))):
        if s["parent"] is None:
            self_time["(cli, unwrapped)"] -= s["end"] - s["start"]
        if skip is not None and skip[i]:
            continue
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    return self_time, calls


def dominant_layer(trace, names):
    """Does the layer made of `names` take more time than any span name outside it?

    The layer's time is the total time of its outermost spans, so it includes
    everything they call; every other span name counts with its self time.
    """
    spans = trace["spans"]
    inside = []
    layer_time = 0.0
    for s in spans:  # a parent always precedes its children
        parent_inside = s["parent"] is not None and inside[s["parent"]]
        inside.append(parent_inside or s["name"] in names)
        if inside[-1] and not parent_inside:
            layer_time += s["end"] - s["start"]
    others, _ = span_tables(trace, skip=inside)
    runner_up = max(others.items(), key=lambda kv: kv[1])
    return {
        "layer": list(names),
        "layer_s": layer_time,
        "layer_share": layer_time / trace["total_s"],
        "largest_other": runner_up[0],
        "largest_other_s": runner_up[1],
        "ok": layer_time > runner_up[1],
    }


def per_layer_metrics(trace, imports, untraced_work_s):
    self_time, calls = span_tables(trace)
    counters = trace["counters"]
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "self":
            value = self_time.get(source, 0.0)
        elif kind == "calls":
            value = calls.get(source, 0)
        elif kind == "counter":
            value = counters.get(source, 0)
        elif kind == "import":
            value = imports.get(source, 0.0)
        elif kind == "line_yield":
            tries = counters.get("evidence.line_tries", 0)
            value = counters.get("evidence.samples_found", 0) / tries if tries else 0.0
        elif kind == "trace_total":
            value = trace["total_s"]
        else:
            value = trace["total_s"] - untraced_work_s
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    os.chdir(ROOT)
    if not os.path.isfile(CLI_SOURCE):
        print(f"error: {CLI_SOURCE} not found; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    instance = os.path.join(OUT, f"{args.workload}.json")
    with open(instance, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(product_projective_instance(wl.n, wl.t), fh, sort_keys=True)

    env = dict(os.environ, PYTHONPATH="src")
    runner = Runner(env, started)
    py = sys.executable
    problems = []

    record, stdout = runner.run("probe", [py, "-c", ENV_PROBE], "probe")
    problems.extend(record["problems"])
    try:
        environment = json.loads(stdout)
    except ValueError:
        environment = {}
    environment["nproc"] = len(os.sched_getaffinity(0))
    environment["note"] = (
        "fpkernels_backend 'python' is the numpy fallback; the compiled kernel is not measured"
    )

    seeds = [args.seed * 100 + i for i in range(wl.seeds)]
    references = {}
    runs, setup = measure_pipelines(runner, py, instance, wl, seeds, args.seconds, references)
    problems.extend(p for r in setup for p in r["problems"])
    good = [r for r in runs if not r["problems"]] or runs
    e2e = {
        "pipeline_s": {"value": mean_of_seed_medians(good, "wall_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(r["wall_s"] for r in setup), "unit": "s"},
        "peak_rss_mb": {"value": mean_of_seed_medians(good, "peak_rss_mb"), "unit": "MB"},
    }
    detail = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "command": ["python", "-m", "doublemirror.cli"] + pipeline_args(instance, wl, seeds[0]),
        "pipeline_seeds": seeds,
        "environment": environment,
        "report_sha256": {s: hashlib.sha256(text).hexdigest() for s, text in sorted(references.items())},
        "pipeline_runs": len(runs),
    }

    metrics = e2e
    if args.trace:
        imports = []
        for i in range(IMPORTTIME_REPEATS):
            runner.run("importtime", [py, "-X", "importtime", "-c", "import doublemirror.cli"], f"importtime-{i}")
            with open(os.path.join(OUT, f"importtime-{i}.err"), encoding="utf-8") as fh:
                imports.append(import_times(fh.read()))
        median_imports = {
            mod: statistics.median(t.get(mod, 0.0) for t in imports)
            for mod in ("doublemirror.cli", "doublemirror.fpkernels", "numpy")
        }
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        report_path = os.path.join(OUT, "traced-report.json")
        record, _ = runner.run(
            "traced",
            [py, os.path.join("perfbench", "trace_child.py"), spans_path, report_path, "--"]
            + pipeline_args(instance, wl, seeds[0]),
            "traced",
        )
        record["seed"] = seeds[0]
        runs.append(record)
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit, _, _ in PER_LAYER}
        if record["exit"] == 0:
            with open(report_path, "rb") as fh:
                check_pipeline_run(record, fh.read(), wl, seeds[0], references)
            with open(spans_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            first_seed = [r["wall_s"] for r in runs if r["kind"] == "pipeline" and r["seed"] == seeds[0]]
            untraced = statistics.median(first_seed) - e2e["setup_s"]["value"]
            metrics = per_layer_metrics(trace, median_imports, untraced)
            self_time, calls = span_tables(trace)
            detail["spans_file"] = spans_path
            detail["absent_spans"] = trace["absent"]
            detail["self_time_table"] = [
                {"layer": name, "self_s": t, "calls": calls.get(name, 0)}
                for name, t in sorted(self_time.items(), key=lambda kv: -kv[1])
            ]
            detail["dominant"] = dominant_layer(trace, wl.dominant)
            if not detail["dominant"]["ok"]:
                print(f"warning: {args.workload} is not dominated by {wl.dominant}", file=sys.stderr)

    failed = sum(1 for r in runs if r["problems"])
    detail["runs"] = runner.records
    detail["problems"] = problems + sorted({p for r in runs for p in r["problems"]})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
