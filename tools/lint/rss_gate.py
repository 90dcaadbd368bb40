#!/usr/bin/env python3
"""Out-of-core memory gate over the committed bench/BENCH_scale.json.

The sharded mining engine promises four things the bench record makes
checkable offline: a mine run's peak RSS stays inside the --memory-budget
the shard planner was given (the planner rejects a run whose estimated
working set is above it), the planner's peak estimate is not far above the peak it
predicts (an estimate several times the real working set would reject
budgets the run fits in), the sharded result is bit-identical to the
single-shot miner (the per-record digest matched the shard_count=1
baseline), and the miner's top-k admission check stays early-exit (it
reads a few k-th entries per check, not every coverable row). This gate
regresses on all four from the committed record, so a planner, merge or
miner change that silently breaks the budget, the estimate, the
determinism contract or the admission check's cost fails CI even on a
runner too small to rerun the full 100k-row profile.

Rules:
  * every mine record must carry peak_rss_kb, memory_budget_bytes,
    materialized_bytes and deterministic (schema check);
  * timed-out records are skipped with a notice — RSS at the point the
    deadline landed is not comparable;
  * every completed mine record must have deterministic == true (its
    digest matched the shard_count=1 baseline in the same bench run);
  * every completed mine record must have peak_rss_kb * 1024 <=
    memory_budget_bytes, and the budget itself must be smaller than
    materialized_bytes (otherwise "out of core" proved nothing);
  * every completed mine record must carry cut_rows_scanned, and it must
    be <= CUT_ROWS_PER_ROW * rows (a check that rescans every coverable
    positive row reads orders of magnitude more);
  * every completed mine record must carry estimated_peak_bytes (the
    planner's ShardPlan::estimated_peak_bytes), and it must be
    <= OVER_BUDGET_RATIO * peak_rss_kb * 1024 (a model that charges for
    memory the run never touches over-budgets).

Usage: tools/lint/rss_gate.py [path/to/BENCH_scale.json]
"""

import json
import sys

# Ceiling on admission-check row reads per dataset row in one mine run.
CUT_ROWS_PER_ROW = 4

# Ceiling on the planner's peak estimate as a multiple of the measured peak.
# The estimate charges a fixed allowance of 4,096 result groups, so a small
# run reads near 2x; an estimate that still charges the infrequent columns
# reads near 7x.
OVER_BUDGET_RATIO = 3


def evaluate(records, path):
    """Applies the gate rules to already-parsed bench records.

    Pure: no I/O, no printing — tools/lint/gate_selftest.py drives this
    directly against fixture records. Returns (failures, skipped,
    ok_lines, gated): the failure messages, the timed-out record labels,
    the per-record "ok" report lines in record order, and the count of
    completed mine records the budget actually gated.
    """
    failures = []
    skipped = []
    ok_lines = []
    gated = 0
    for rec in records:
        if rec.get("kind") != "mine":
            continue
        where = "{} shards={}".format(
            rec.get("profile", "?"), rec.get("shard_count", "?"))
        missing = [field for field in
                   ("peak_rss_kb", "memory_budget_bytes",
                    "materialized_bytes", "deterministic")
                   if field not in rec]
        if missing:
            failures.append("{}: missing field(s) {}".format(
                where, ", ".join(repr(f) for f in missing)))
            continue
        if rec.get("timed_out", False):
            skipped.append(where)
            continue
        gated += 1
        if not rec["deterministic"]:
            failures.append(
                "{}: deterministic=false — sharded digest diverged from "
                "the shard_count=1 baseline".format(where))
        rss_bytes = rec["peak_rss_kb"] * 1024
        budget = rec["memory_budget_bytes"]
        materialized = rec["materialized_bytes"]
        if budget >= materialized:
            failures.append(
                "{}: memory budget {} >= materialized matrix {} — the "
                "out-of-core claim is vacuous".format(
                    where, budget, materialized))
        cut_rows = rec.get("cut_rows_scanned")
        rows = rec.get("rows", 0)
        if cut_rows is None:
            failures.append(
                "{}: missing field 'cut_rows_scanned'".format(where))
        elif cut_rows > CUT_ROWS_PER_ROW * rows:
            failures.append(
                "{}: cut_rows_scanned {} > {} x rows {} — the admission "
                "check stopped exiting early".format(
                    where, cut_rows, CUT_ROWS_PER_ROW, rows))
        estimate = rec.get("estimated_peak_bytes")
        if estimate is None:
            failures.append(
                "{}: missing field 'estimated_peak_bytes'".format(where))
        elif estimate > OVER_BUDGET_RATIO * rss_bytes:
            failures.append(
                "{}: estimated peak {} bytes > {} x measured peak {} bytes "
                "({:.1f}x) — the planner over-budgets".format(
                    where, estimate, OVER_BUDGET_RATIO, rss_bytes,
                    estimate / rss_bytes if rss_bytes else float("inf")))
        if rss_bytes > budget:
            failures.append(
                "{}: peak RSS {} bytes > memory budget {} bytes".format(
                    where, rss_bytes, budget))
        else:
            ok_lines.append(
                "  ok {}: peak RSS {:.1f} MiB within budget {:.1f} MiB "
                "(matrix {:.1f} MiB)".format(
                    where, rss_bytes / 2**20, budget / 2**20,
                    materialized / 2**20))

    if gated == 0:
        failures.append(
            "no completed mine records found in {} — the gate is "
            "vacuous".format(path))
    return failures, skipped, ok_lines, gated


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "bench/BENCH_scale.json"
    with open(path) as f:
        records = json.load(f)

    failures, skipped, ok_lines, gated = evaluate(records, path)
    for line in ok_lines:
        print(line)
    for where in skipped:
        print("  skipped (timed out): {}".format(where))
    if failures:
        print("rss gate FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("rss gate passed: {} mine records within their memory budget, "
          "peak-estimate ratio and admission-check row ceiling, all digests "
          "shard-count invariant.".format(gated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
