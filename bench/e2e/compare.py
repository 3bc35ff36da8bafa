#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark (stdlib only).

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/e2e/compare.py RESULTS.jsonl          # one set

A result set is what `edkm_bench --out FILE` appends: one JSON object
per run, {"workload", "seed", "trace", "fingerprint", "result"}, one
per line (bench/e2e/baseline.json has the same lines). Runs of the two
sets are paired in file order per workload, so alternate the two sides
while collecting them.

For every workload x end-to-end metric it prints each side's median and
quartiles, the parent's interquartile range, the share of pairs the
change won (ties count for neither) and a label:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread (IQR / median) exceeds the bound and
              not every change run reads better than every parent run;
  unchanged   otherwise.

With one set it prints the same statistics for that set, the spread
against each bound, and the tracing overhead: the traced runs'
trace.step_s / trace.tok_s minus the untraced step_s / tok_s medians.

Exits 1 when any cell regressed, 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(path):
    """Runs of a result set, grouped as {workload: [record, ...]}."""
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, metric, traced=False):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if bool(r["trace"]) == traced
            and metric in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def better(a, b, higher):
    """True when value a reads better than value b."""
    return a > b if higher else a < b


def label(parent, change, bound, higher):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(better(c, p, higher) for p, c in pairs)
    share = won / len(pairs) if pairs else 0.0
    if share >= 0.9 and better(cm, pm, higher) and abs(cm - pm) > p3 - p1:
        return "improved", share
    worse_by = (pm - cm if higher else cm - pm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "regressed", share
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    dominates = all(better(c, p, higher) for c in change for p in parent)
    if spread > bound and not dominates:
        return "unresolved", share
    return "unchanged", share


def fmt(v):
    return f"{v:.4g}"


def machines(runs):
    """Distinct fingerprints, ignoring the commit (which differs on
    purpose between a parent and a change)."""
    return {json.dumps({k: v for k, v in r["fingerprint"].items()
                        if k != "git_sha"}, sort_keys=True)
            for recs in runs.values() for r in recs}


def summarize(runs, metrics):
    for workload, recs in sorted(runs.items()):
        print(f"\n{workload} ({sum(not r['trace'] for r in recs)} runs)")
        for m in metrics:
            v = values(recs, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = "within" if spread <= m["bound"] else "OVER"
            print(f"  {m['name']:18s} median {fmt(med):>10s} "
                  f"[{fmt(q1)}, {fmt(q3)}] {m['unit']:6s} spread "
                  f"{spread:6.3f} ({flag} bound {m['bound']})")
        for traced, plain in (("trace.step_s", "step_s"),
                              ("trace.tok_s", "tok_s")):
            t, u = values(recs, traced, True), values(recs, plain)
            if t and u:
                tm, um = statistics.median(t), statistics.median(u)
                print(f"  tracing overhead {plain}: {fmt(tm - um)} "
                      f"({(tm - um) / um:+.2%} of untraced)")


def compare(parent, change, metrics):
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        print(f"\n{workload}")
        print(f"  {'metric':18s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'IQR':>9s} won  label")
        for m in metrics:
            p = values(parent[workload], m["name"])
            c = values(change[workload], m["name"])
            if not p or not c:
                continue
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            tag, share = label(p, c, m["bound"], m["better"] == "higher")
            regressed = regressed or tag == "regressed"
            print(f"  {m['name']:18s} "
                  f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + ']':>32s} "
                  f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + ']':>32s} "
                  f"{fmt(p3 - p1):>9s} {share:4.0%} {tag}")
    return regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="PARENT [CHANGE] result files")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two result sets")
    metrics = json.loads(pathlib.Path(args.benchmark).read_text())[
        "end_to_end"]
    sets = [load(p) for p in args.sets]
    prints = set().union(*(machines(s) for s in sets))
    if len(prints) > 1:
        print("warning: runs come from different machines or builds:")
        for fp in sorted(prints):
            print(f"  {fp}")
    if len(sets) == 1:
        summarize(sets[0], metrics)
        return 0
    return 1 if compare(sets[0], sets[1], metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
