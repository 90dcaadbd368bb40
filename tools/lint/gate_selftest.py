#!/usr/bin/env python3
"""Self-tests for the bench-record gates (RSS, coverage).

The gates guard CI on committed bench artifacts, so a silent bug in a
gate (a rule that stopped firing, a vacuous pass) fails open — exactly
the failure mode a gate exists to prevent. This driver exercises each
gate's pure core against the fixture records in testdata/gates/
(pass / fail / vacuous for the RSS gate; synthetic stats for the
coverage floor check) and, for the file-driven gate, the CLI end to end
via subprocess so the exit-code contract stays honest.

stdlib unittest only — the container has no pytest, and the gate
runner (tools/ci.sh lint, tools/lint/run_all.py) must work everywhere
the repo builds.

Usage: tools/lint/gate_selftest.py [-v]
"""

import json
import os
import subprocess
import sys
import unittest

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
GATES_DIR = os.path.join(LINT_DIR, "testdata", "gates")
sys.path.insert(0, LINT_DIR)

import coverage_gate  # noqa: E402
import rss_gate  # noqa: E402


def load(name):
    with open(os.path.join(GATES_DIR, name), encoding="utf-8") as f:
        return json.load(f)


def run_cli(script, fixture):
    return subprocess.run(
        [sys.executable, os.path.join(LINT_DIR, script),
         os.path.join(GATES_DIR, fixture)],
        capture_output=True, text=True, check=False)


class RssGateTest(unittest.TestCase):
    def test_pass_fixture_is_clean(self):
        failures, skipped, ok_lines, gated = rss_gate.evaluate(
            load("rss_pass.json"), "rss_pass.json")
        self.assertEqual(failures, [])
        self.assertEqual(skipped, [])
        self.assertEqual(gated, 1)  # non-mine records are ignored
        self.assertEqual(len(ok_lines), 1)
        self.assertIn("within budget", ok_lines[0])

    def test_fail_fixture_trips_every_rule(self):
        failures, _, _, gated = rss_gate.evaluate(
            load("rss_fail.json"), "rss_fail.json")
        self.assertEqual(gated, 3)  # the schema-less record never gates
        self.assertTrue(any("peak RSS" in f and "> memory budget" in f
                            for f in failures))
        self.assertTrue(any("out-of-core claim is vacuous" in f
                            for f in failures))
        self.assertTrue(any("deterministic=false" in f for f in failures))
        self.assertTrue(any("missing field(s)" in f for f in failures))
        self.assertEqual(len(failures), 4)

    def test_cut_fixture_trips_the_admission_check_rules(self):
        failures, _, ok_lines, gated = rss_gate.evaluate(
            load("rss_cut_fail.json"), "rss_cut_fail.json")
        self.assertEqual(gated, 3)
        # 15.6 M reads over 8000 rows is the old full rescan per check;
        # the record at exactly 4 x rows is still within the ceiling.
        self.assertTrue(any("cut_rows_scanned 15600000 > 4 x rows 8000" in f
                            for f in failures))
        self.assertTrue(any("missing field 'cut_rows_scanned'" in f
                            for f in failures))
        self.assertEqual(len(failures), 2)
        self.assertEqual(len(ok_lines), 3)  # the RSS rule passes on all
        proc = run_cli("rss_gate.py", "rss_cut_fail.json")
        self.assertEqual(proc.returncode, 1)

    def test_overbudget_fixtures_gate_the_peak_estimate(self):
        failures, _, ok_lines, gated = rss_gate.evaluate(
            load("rss_overbudget_pass.json"), "rss_overbudget_pass.json")
        self.assertEqual(failures, [])
        self.assertEqual(gated, 2)
        self.assertEqual(len(ok_lines), 2)
        # 320.8 MiB budgeted against a 47 MiB peak (6.8x), and a record
        # with no estimate at all.
        failures, _, ok_lines, gated = rss_gate.evaluate(
            load("rss_overbudget_fail.json"), "rss_overbudget_fail.json")
        self.assertEqual(gated, 2)
        self.assertTrue(any("estimated peak 336351456 bytes > 3 x measured "
                            "peak" in f and "(6.8x)" in f for f in failures))
        self.assertTrue(any("missing field 'estimated_peak_bytes'" in f
                            for f in failures))
        self.assertEqual(len(failures), 2)
        self.assertEqual(len(ok_lines), 2)  # the RSS rule passes on both
        self.assertEqual(
            run_cli("rss_gate.py", "rss_overbudget_pass.json").returncode, 0)
        self.assertEqual(
            run_cli("rss_gate.py", "rss_overbudget_fail.json").returncode, 1)

    def test_timed_out_records_make_the_gate_vacuous(self):
        failures, skipped, _, gated = rss_gate.evaluate(
            load("rss_vacuous.json"), "rss_vacuous.json")
        self.assertEqual(gated, 0)
        self.assertEqual(len(skipped), 1)
        self.assertTrue(any("vacuous" in f for f in failures))

    def test_cli_exit_codes(self):
        self.assertEqual(
            run_cli("rss_gate.py", "rss_pass.json").returncode, 0)
        proc = run_cli("rss_gate.py", "rss_fail.json")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rss gate FAILED", proc.stdout)


class CoverageGateTest(unittest.TestCase):
    def test_per_directory_unions_and_rolls_up(self):
        stats = coverage_gate.per_directory({
            "src/mine/topk_miner.cc": {10: True, 11: True, 12: False},
            "src/mine/projection.h": {5: True},
            "src/util/bitset.cc": {1: False, 2: False},
        })
        self.assertEqual(stats["src/mine"][:2], (3, 4))
        self.assertAlmostEqual(stats["src/mine"][2], 75.0)
        self.assertEqual(stats["src/util"], (0, 2, 0.0))

    def test_floors_met(self):
        failed, report, notes = coverage_gate.check_floors(
            {"src/mine": (90, 100, 90.0), "src/extra": (1, 2, 50.0)},
            {"src/mine": 85.0})
        self.assertEqual(failed, [])
        self.assertEqual(len(report), 1)
        self.assertTrue(report[0].startswith("ok "))
        # Unfloored directories are noted, never gated.
        self.assertEqual(len(notes), 1)
        self.assertIn("src/extra", notes[0])

    def test_floor_violation_and_missing_stats(self):
        failed, report, _ = coverage_gate.check_floors(
            {"src/mine": (10, 100, 10.0)},
            {"src/mine": 85.0, "src/serve": 50.0})
        # Below floor AND a floored directory with no coverage data at
        # all both fail — a deleted directory must not pass its floor.
        self.assertEqual(failed, ["src/mine", "src/serve"])
        self.assertTrue(all(line.startswith("LOW") for line in report))


if __name__ == "__main__":
    unittest.main()
