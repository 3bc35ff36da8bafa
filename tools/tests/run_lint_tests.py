#!/usr/bin/env python3
"""Self-test of tools/determinism_lint.py against the fixture corpus.

Each fixture encodes exactly one rule scenario; this runner asserts the
precise finding count, the rule ids involved, and the suppression count
for every one of them. Run from anywhere::

    python3 tools/tests/run_lint_tests.py
"""

import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
LINTER = HERE.parent / "determinism_lint.py"
FIXTURES = HERE / "fixtures"

SUMMARY_RE = re.compile(
    r"determinism-lint: files=(\d+) findings=(\d+) suppressed=(\d+)")

# fixture -> (expected findings, expected suppressions, rule ids that
# must each appear in at least one finding line)
CASES = {
    "raw_rng_violation.cc": (3, 0, ["raw-rng"]),
    "raw_rng_clean.cc": (0, 0, []),
    "fast_math_violation.cc": (1, 0, ["fast-math"]),
    "fast_math_marker_not_exempt.cc": (1, 0, ["fast-math"]),
    "parallel_numerics_violation.cc": (2, 0, ["parallel-numerics"]),
    "parallel_numerics_clean.cc": (0, 0, []),
    "raw_thread_violation.cc": (1, 0, ["raw-thread"]),
    "raw_thread_clean.cc": (0, 0, []),
    "raw_fork_violation.cc": (1, 0, ["raw-thread"]),
    "raw_fork_suppressed.cc": (0, 1, []),
    "unordered_iteration_violation.cc": (2, 0, ["unordered-iteration"]),
    "unordered_iteration_clean.cc": (0, 0, []),
    "suppressed_ok.cc": (0, 1, []),
    "suppressed_no_reason.cc": (1, 0, ["raw-thread"]),
    "paired_header.cc": (1, 0, ["unordered-iteration"]),
    "paired_header.h": (0, 0, []),
}


def run_one(name, want_findings, want_suppressed, want_rules):
    target = FIXTURES / name
    proc = subprocess.run(
        [sys.executable, str(LINTER), str(target)],
        capture_output=True, text=True)
    out = proc.stdout
    m = SUMMARY_RE.search(out)
    errors = []
    if not m:
        errors.append(f"no summary line in output:\n{out}\n{proc.stderr}")
        return errors
    findings, suppressed = int(m.group(2)), int(m.group(3))
    if findings != want_findings:
        errors.append(
            f"findings={findings}, want {want_findings}\n{out}")
    if suppressed != want_suppressed:
        errors.append(
            f"suppressed={suppressed}, want {want_suppressed}\n{out}")
    for rule in want_rules:
        if f"[{rule}]" not in out:
            errors.append(f"expected a [{rule}] finding\n{out}")
    want_exit = 1 if want_findings else 0
    if proc.returncode != want_exit:
        errors.append(f"exit={proc.returncode}, want {want_exit}")
    return errors


def main():
    failures = 0
    for name, (nf, ns, rules) in sorted(CASES.items()):
        errors = run_one(name, nf, ns, rules)
        if errors:
            failures += 1
            print(f"FAIL {name}")
            for e in errors:
                print(f"  {e}")
        else:
            print(f"ok   {name}")

    # The whole fixture directory in one invocation: totals must add up
    # (also exercises directory recursion). paired_header.h contributes
    # its finding once when scanned as the .cc's sibling — scanning the
    # directory visits the .h alone (no loops -> nothing) AND the .cc
    # (1 finding), so the per-file sums hold.
    total_f = sum(nf for nf, _, _ in CASES.values())
    total_s = sum(ns for _, ns, _ in CASES.values())
    proc = subprocess.run(
        [sys.executable, str(LINTER), str(FIXTURES)],
        capture_output=True, text=True)
    m = SUMMARY_RE.search(proc.stdout)
    if not m or int(m.group(2)) != total_f or int(m.group(3)) != total_s:
        failures += 1
        print(f"FAIL directory sweep: want findings={total_f} "
              f"suppressed={total_s}\n{proc.stdout}")
    else:
        print("ok   directory sweep")

    if failures:
        print(f"{failures} case(s) failed")
        return 1
    print(f"all {len(CASES) + 1} lint self-test cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
