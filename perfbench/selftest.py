#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs perfbench/run.py inside throwaway checkouts under perfbench/out/selftest
whose `doublemirror.cli` is a stand-in that prints a canned pipeline report,
and checks that a tampered report, a nonzero exit and a report that changes
between runs are each counted as failed runs rather than dropped.  Also checks
that run.py refuses to run without the package source, and that the metrics
it prints are the ones BENCHMARK.json names.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")
sys.path.insert(0, HERE)

import run  # noqa: E402

WORKLOAD = "pp33-p10007-dense"
WL = run.WORKLOADS[WORKLOAD]
SEED = 7

# Stand-in CLI: prints REPORT with the seed it was given and returns EXIT;
# with DRIFT set, every report after the first (runs are counted in a file)
# carries a field that differs from run to run.
FAKE_CLI = '''
import json, os, sys
REPORT, EXIT, DRIFT = {report!r}, {exit_code!r}, {drift!r}


def main(argv):
    counter = os.path.join(os.path.dirname(__file__), "runs")
    runs = int(open(counter).read()) if os.path.exists(counter) else 0
    open(counter, "w").write(str(runs + 1))
    report = json.loads(REPORT)
    report["result"]["evidence"]["seed"] = int(argv[argv.index("--seed") + 1])
    if DRIFT and runs:
        report["result"]["drift"] = runs
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\\n")
    return EXIT


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
'''


def good_report():
    n = WL.samples
    return {
        "command": "pipeline",
        "result": {
            "cone": {"reflexive_gorenstein": True},
            "count": 3,
            "bridge": {"identities_pass": True},
            "evidence": {
                "prime": WL.prime,
                "seed": SEED,
                "samples_requested": n,
                "samples_on_d": n,
                "fiber_histogram_e": {"0": 1, "1": n - 1},
                "fiber_histogram_etilde": {"1": n},
                "verdict": True,
            },
        },
    }


def fake_checkout(name, report=None, exit_code=0, drift=False):
    """A checkout holding BENCHMARK.json, perfbench/ and, given a report, a stand-in package."""
    root = os.path.join(SCRATCH, name)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.join(root, "perfbench"))
    for fname in ("run.py", "trace_child.py"):
        shutil.copy(os.path.join(HERE, fname), os.path.join(root, "perfbench", fname))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if report is not None:
        pkg = os.path.join(root, "src", "doublemirror")
        os.makedirs(pkg)
        open(os.path.join(pkg, "__init__.py"), "w").close()
        with open(os.path.join(pkg, "cli.py"), "w") as fh:
            fh.write(FAKE_CLI.format(report=json.dumps(report), exit_code=exit_code, drift=drift))
    return root


def bench(root, trace=0):
    """Exit code and result object (None when no result line was printed)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class CheckReport(unittest.TestCase):
    def test_good_report_passes(self):
        self.assertEqual(run.check_report(json.dumps(good_report()), WL, SEED), [])

    def test_each_tampering_is_caught(self):
        tamperings = [
            ("cone", "reflexive_gorenstein", False),
            (None, "count", 2),
            ("bridge", "identities_pass", False),
            ("evidence", "samples_on_d", WL.samples - 1),
            ("evidence", "verdict", False),
            ("evidence", "seed", SEED + 1),
            ("evidence", "fiber_histogram_e", {"1": WL.samples - 1, "non_generic": 1}),
            ("evidence", "fiber_histogram_etilde", {"1": WL.samples - 1}),
        ]
        for section, key, value in tamperings:
            report = good_report()
            (report["result"][section] if section else report["result"])[key] = value
            with self.subTest(key=key, value=value):
                self.assertNotEqual(run.check_report(json.dumps(report), WL, SEED), [])

    def test_unreadable_report(self):
        self.assertNotEqual(run.check_report(b"not json", WL, SEED), [])
        self.assertNotEqual(run.check_report(b'{"result": {}}', WL, SEED), [])


class FailuresAreCounted(unittest.TestCase):
    def assert_all_failed(self, root):
        code, result = bench(root)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], WL.seeds + 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_correct_program(self):
        code, result = bench(fake_checkout("good", good_report()))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_tampered_report(self):
        report = good_report()
        report["result"]["evidence"]["verdict"] = False
        self.assert_all_failed(fake_checkout("tampered", report))

    def test_nonzero_exit(self):
        self.assert_all_failed(fake_checkout("exit3", good_report(), exit_code=3))

    def test_reports_that_differ_between_runs(self):
        code, result = bench(fake_checkout("drift", good_report(), drift=True))
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # each seed's first report is its reference; every repeat differs from it
        self.assertEqual(result["failed"], result["attempted"] - WL.seeds)

    def test_refuses_without_package_source(self):
        code, result = bench(fake_checkout("empty"))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class MetricNames(unittest.TestCase):
    def test_output_matches_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        root = fake_checkout("names", good_report())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench(root, trace)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[key]},
            )


if __name__ == "__main__":
    unittest.main()
