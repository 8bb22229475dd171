#!/usr/bin/env python3
"""Fixture tests for scripts/bench_compare.py and scripts/bench_merge.py.

Each case builds small pam-bench/v1 documents and checks the documented
exit-code contract: 0 pass, 1 regression/missing record, 2 schema error.
Registered with CTest (see tests/CMakeLists.txt); also runs standalone:

    python3 tests/test_bench_compare.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(REPO_ROOT, "scripts", "bench_compare.py")
MERGE = os.path.join(REPO_ROOT, "scripts", "bench_merge.py")


def make_doc(records, quick=True, nproc=4):
    return {
        "schema": "pam-bench/v1",
        "bench": "pam-bench-suite",
        "git_describe": "test",
        "build_type": "Release",
        "compiler": "GNU 12",
        "build_flags": "-O3",
        "quick": quick,
        "nproc": nproc,
        "records": records,
    }


def make_record(case="c", metric="m", kind="throughput", value=100.0,
                params=None, unit="/s"):
    return {
        "bench": "b",
        "case": case,
        "params": params or {},
        "metric": metric,
        "kind": kind,
        "value": value,
        "unit": unit,
        "repeats": 1,
    }


class BenchToolingTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def compare(self, old_doc, new_doc, *extra):
        old = self.write("old.json", old_doc)
        new = self.write("new.json", new_doc)
        return subprocess.run(
            [sys.executable, COMPARE, old, new, *extra],
            capture_output=True, text=True)

    def test_identity_passes(self):
        doc = make_doc([make_record(value=100.0),
                        make_record(metric="lat", kind="latency",
                                    value=50.0, unit="ns")])
        result = self.compare(doc, copy.deepcopy(doc))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_improvement_passes(self):
        old = make_doc([make_record(value=100.0)])
        new = make_doc([make_record(value=150.0)])  # +50% throughput
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("improve", result.stdout)

    def test_small_noise_passes(self):
        old = make_doc([make_record(value=100.0),
                        make_record(metric="lat", kind="latency",
                                    value=100.0, unit="ns")])
        new = make_doc([make_record(value=95.0),  # -5% throughput: noise
                        make_record(metric="lat", kind="latency",
                                    value=108.0, unit="ns")])  # +8%: noise
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_throughput_regression_fails(self):
        old = make_doc([make_record(value=100.0)])
        new = make_doc([make_record(value=85.0)])  # -15% > 10% threshold
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stderr)

    def test_latency_increase_fails(self):
        old = make_doc([make_record(kind="latency", value=100.0, unit="ns")])
        new = make_doc([make_record(kind="latency", value=120.0, unit="ns")])
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_ungated_kinds_never_fail(self):
        for kind in ("count", "ratio", "info"):
            old = make_doc([make_record(kind=kind, value=100.0, unit="x")])
            new = make_doc([make_record(kind=kind, value=5.0, unit="x")])
            result = self.compare(old, new)
            self.assertEqual(result.returncode, 0,
                             f"{kind}: " + result.stdout + result.stderr)

    def test_missing_record_fails(self):
        old = make_doc([make_record(), make_record(metric="extra")])
        new = make_doc([make_record()])
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("MISSING", result.stderr)

    def test_new_record_passes(self):
        old = make_doc([make_record()])
        new = make_doc([make_record(), make_record(metric="extra")])
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("NEW", result.stdout)

    def test_custom_threshold(self):
        old = make_doc([make_record(value=100.0)])
        new = make_doc([make_record(value=85.0)])  # -15%
        result = self.compare(old, new, "--threshold", "0.20")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_malformed_schema_fails_with_2(self):
        old = make_doc([make_record()])
        bad = {"schema": "nonsense"}
        result = self.compare(old, bad)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)

    def test_bad_record_kind_fails_with_2(self):
        old = make_doc([make_record()])
        bad = make_doc([make_record(kind="speediness")])
        result = self.compare(old, bad)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)

    def test_quick_mismatch_warns_but_compares(self):
        old = make_doc([make_record()], quick=True)
        new = make_doc([make_record()], quick=False)
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("quick-mode mismatch", result.stderr)

    def test_nproc_mismatch_warns_but_compares(self):
        old = make_doc([make_record()], nproc=4)
        new = make_doc([make_record()], nproc=16)
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("nproc mismatch", result.stderr)

    def test_header_without_nproc_still_validates(self):
        old = make_doc([make_record()])
        del old["nproc"]
        result = self.compare(old, make_doc([make_record()]))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("nproc mismatch", result.stderr)

    def test_bad_nproc_fails_with_2(self):
        for bad in ("4", -1, 2.5, True):
            new = make_doc([make_record()])
            new["nproc"] = bad
            result = self.compare(make_doc([make_record()]), new)
            self.assertEqual(result.returncode, 2,
                             f"{bad!r}: " + result.stdout + result.stderr)

    def test_merge_combines_and_sorts(self):
        a = make_doc([make_record(case="z"), make_record(case="a")])
        a["bench"] = "bench_a"
        b = make_doc([make_record(case="m", metric="other")])
        b["bench"] = "bench_b"
        out = os.path.join(self.tmp.name, "merged.json")
        result = subprocess.run(
            [sys.executable, MERGE, self.write("a.json", a),
             self.write("b.json", b), "--out", out],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(out, encoding="utf-8") as fh:
            merged = json.load(fh)
        self.assertEqual(merged["bench"], "pam-bench-suite")
        self.assertEqual(merged["nproc"], 4)
        self.assertEqual(list(merged)[-2:], ["nproc", "records"])
        self.assertEqual([r["case"] for r in merged["records"]],
                         ["a", "m", "z"])

    def test_merge_rejects_duplicate_identity(self):
        a = make_doc([make_record()])
        b = make_doc([make_record()])
        result = subprocess.run(
            [sys.executable, MERGE, self.write("a.json", a),
             self.write("b.json", b), "--out",
             os.path.join(self.tmp.name, "merged.json")],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)

    def test_merge_rejects_mixed_nproc(self):
        a = make_doc([make_record()], nproc=4)
        b = make_doc([make_record(metric="other")], nproc=8)
        result = subprocess.run(
            [sys.executable, MERGE, self.write("a.json", a),
             self.write("b.json", b), "--out",
             os.path.join(self.tmp.name, "merged.json")],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("'nproc'", result.stderr)

    def test_merge_rejects_mixed_quick_modes(self):
        a = make_doc([make_record()], quick=True)
        b = make_doc([make_record(metric="other")], quick=False)
        result = subprocess.run(
            [sys.executable, MERGE, self.write("a.json", a),
             self.write("b.json", b), "--out",
             os.path.join(self.tmp.name, "merged.json")],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
