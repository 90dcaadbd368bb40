#!/usr/bin/env python3
"""Orchestrator for every Python lint and gate (DESIGN.md §11–12, §16).

tools/ci.sh lint used to invoke each checker in an ad-hoc bash sequence;
this runner owns that list instead, so the stage stays one line of shell,
every check is wall-clock timed, and a failing check no longer hides the
ones after it: all checks run, the summary names each failure, and the
exit code is nonzero if any failed.

compile_commands.json discipline: the lint preset's export (build-lint/)
is configured at most once here and shared by every consumer — astlint
reads it directly, and the clang-tidy / analyze stages in tools/ci.sh
reuse the same build-lint/ tree rather than re-configuring.

Usage: tools/lint/run_all.py [--skip NAME ...] [--list]
"""

import argparse
import os
import subprocess
import sys
import time

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LINT_DIR))
COMPILE_COMMANDS = os.path.join(REPO_ROOT, "build-lint",
                                "compile_commands.json")

def lint(script, *argv):
    return [sys.executable, os.path.join(LINT_DIR, script), *argv]


# (name, title, argv-builder). Self-tests run immediately before the
# gate they validate: a checker whose fixture no longer trips every
# check must not be trusted on the real tree.
CHECKS = (
    ("includes", "include discipline (check_includes.py)",
     lambda: lint("check_includes.py")),
    ("determinism-selftest", "determinism linter self-test",
     lambda: lint("determinism_lint.py", "--self-test")),
    ("determinism", "determinism lint over the deterministic zones",
     lambda: lint("determinism_lint.py")),
    ("cast-selftest", "cast linter self-test",
     lambda: lint("cast_lint.py", "--self-test")),
    ("cast", "cast lint over src/ (narrowing, C-casts, signed/size)",
     lambda: lint("cast_lint.py")),
    ("gate-selftest", "bench-gate self-tests (gate_selftest.py)",
     lambda: lint("gate_selftest.py")),
    ("rss", "out-of-core RSS gate (rss_gate.py)",
     lambda: lint("rss_gate.py")),
    ("astlint-selftest", "astlint self-test (hot-path fixture pair)",
     lambda: lint("astlint.py", "--self-test")),
    ("astlint", "hot-path purity gate (astlint.py)",
     lambda: lint("astlint.py", "--compile-commands", COMPILE_COMMANDS)),
)


def ensure_compile_commands():
    """One lint-preset configure shared by astlint/clang-tidy/analyze."""
    if os.path.exists(COMPILE_COMMANDS):
        return
    print("== configure (lint preset, for compile_commands.json) ==")
    proc = subprocess.run(["cmake", "--preset", "lint"], cwd=REPO_ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        # astlint falls back to its internal frontend without the export,
        # so a configure failure degrades the analysis, not the run.
        print("(cmake --preset lint failed — compile_commands.json not "
              "exported; astlint will use its internal frontend)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip", action="append", default=[],
                        metavar="NAME", choices=[c[0] for c in CHECKS],
                        help="skip a named check (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list check names and exit")
    args = parser.parse_args()

    if args.list:
        for name, title, _ in CHECKS:
            print(f"{name}: {title}")
        return 0

    ensure_compile_commands()

    timings = []
    failed = []
    for name, title, build_argv in CHECKS:
        if name in args.skip:
            print(f"== {title} == (skipped by --skip)")
            continue
        print(f"== {title} ==")
        start = time.monotonic()
        proc = subprocess.run(build_argv(), cwd=REPO_ROOT, check=False)
        elapsed = time.monotonic() - start
        timings.append((name, elapsed, proc.returncode == 0))
        if proc.returncode != 0:
            failed.append(name)
            print(f"-- {name} FAILED (exit {proc.returncode}) --")

    print("\n== lint timing summary ==")
    for name, elapsed, ok in timings:
        print(f"  {'ok  ' if ok else 'FAIL'} {name:<22} {elapsed:7.2f}s")
    total = sum(t for _, t, _ in timings)
    print(f"       {'total':<22} {total:7.2f}s")
    if failed:
        print("lint suite FAILED: " + ", ".join(failed))
        return 1
    print(f"lint suite passed: {len(timings)} checks green.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
