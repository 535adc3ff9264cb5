#!/usr/bin/env python3
"""Tests for compare_artifacts.py: run it on fixture directories.

Usage:

    python3 scripts/test_compare_artifacts.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

import compare_artifacts

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare_artifacts.py")

TABLE = {
    "schema": "drbench/table/v1",
    "workers": 2,
    "wall_clock_seconds": 1.5,
    "experiment": "figure5",
    "suite": "verify",
    "points": [{"name": "base"}],
    "rows": [{
        "benchmark": "crafty",
        "class": "INT",
        "normalized": [1.382],
        "cycles": [100],
        "cells": [{"ticks": 400, "native_ticks": 290, "stats": {"Links": 7, "BlocksBuilt": 3}}],
    }],
    "means": {"all": [1.382]},
}

DIFF = {
    "schema": "drbench/diff/v1",
    "workers": 2,
    "wall_clock_seconds": 2.5,
    "suite": "faultstorm",
    "runs": 1,
    "failed": 0,
    "outcomes": [{"case": "crafty", "stats": {"Evictions": 4}}],
}


def fixture():
    """One document per artifact: the tables in table/v1, the storms in diff/v1."""
    return {name: copy.deepcopy(DIFF if "storm" in name else TABLE) for name in compare_artifacts.FILES}


class CompareArtifactsTest(unittest.TestCase):
    def run_on(self, old, new):
        """Writes both fixture sets and returns (exit status, stdout)."""
        with tempfile.TemporaryDirectory() as tmp:
            dirs = []
            for side, docs in (("old", old), ("new", new)):
                d = os.path.join(tmp, side)
                os.mkdir(d)
                for name, doc in docs.items():
                    with open(os.path.join(d, name), "w") as f:
                        json.dump(doc, f)
                dirs.append(d)
            p = subprocess.run([sys.executable, SCRIPT] + dirs, capture_output=True, text=True)
            return p.returncode, p.stdout

    def test_identical(self):
        code, out = self.run_on(fixture(), fixture())
        self.assertEqual(code, 0, out)
        self.assertIn("BENCH_telemetry.json: drbench/table/v1 -> drbench/table/v1: 12 leaves compared, 0 differ", out)

    def test_header_only_difference(self):
        new = fixture()
        for doc in new.values():
            doc["workers"], doc["wall_clock_seconds"] = 0, 99.0
        code, out = self.run_on(fixture(), new)
        self.assertEqual(code, 0, out)

    def test_changed_leaf(self):
        new = fixture()
        new["BENCH_figure5.json"]["rows"][0]["cells"][0]["stats"]["Links"] = 8
        code, out = self.run_on(fixture(), new)
        self.assertEqual(code, 1, out)
        self.assertIn("rows[0].cells[0].stats.Links: old 7, new 8", out)

    def test_stats_key_only_in_new(self):
        new = fixture()
        new["BENCH_cachesweep.json"]["rows"][0]["cells"][0]["stats"]["Unlinks"] = 1
        code, out = self.run_on(fixture(), new)
        self.assertEqual(code, 1, out)
        self.assertIn("rows[0].cells[0].stats.Unlinks: only in new", out)

    def test_key_only_in_old(self):
        old = fixture()
        old["BENCH_faultstorm.json"]["outcomes"][0]["stats"]["Recoveries"] = 2
        code, out = self.run_on(old, fixture())
        self.assertEqual(code, 1, out)
        self.assertIn("outcomes[0].stats.Recoveries: only in old", out)

    def test_missing_file(self):
        new = fixture()
        del new["BENCH_profile.json"]
        code, out = self.run_on(fixture(), new)
        self.assertEqual(code, 1, out)
        self.assertIn("BENCH_profile.json: missing", out)


if __name__ == "__main__":
    unittest.main()
