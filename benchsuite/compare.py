#!/usr/bin/env python3
"""Compares a parent's and a change's benchmark results, report-only.

  python3 benchsuite/compare.py --parent P.json [P2.json ...] \\
      --change C.json [C2.json ...] [--benchmark BENCHMARK.json]
  python3 benchsuite/compare.py --selftest

Each file is a run.py --json file or a bench_suite --out file; use five
or more untraced runs a side, made alternately. For every workload and
every end-to-end metric of BENCHMARK.json it prints one row: each
side's median and quartiles, the change's median relative to the
parent's, and a verdict:

  improved    the change beats the parent in at least 9 of 10 runs
              paired in order (ties count for neither) and the medians
              differ by more than the parent's interquartile distance;
              or every change run beats every parent run.
  unresolved  otherwise, when either side's spread (interquartile
              distance over median) is wider than the metric's bound.
  regressed   otherwise, when the change's median is worse than the
              parent's by more than the bound.
  unchanged   otherwise.

The exit code is 0 whatever the verdicts; only unusable input fails.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def classify(parent, change, better, bound):
    """Verdict for one workload x metric, from the two sides' values."""
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0

    def beats(a, b):
        return sign * (a - b) > 0

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    gain = (pairs and wins >= 0.9 * len(pairs) and beats(cmed, pmed)
            and abs(cmed - pmed) > p3 - p1)
    if gain or all(beats(c, p) for c in change for p in parent):
        return "improved"
    spread = max((p3 - p1) / abs(pmed) if pmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        return "unresolved"
    worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if worse > bound:
        return "regressed"
    return "unchanged"


def load_runs(paths):
    """Untraced runs of the given files, as bench_suite result dicts."""
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        for run in data.get("runs", [data]):
            if "workload" not in run or "end_to_end" not in run:
                sys.exit(f"compare.py: {path} holds no benchmark results")
            if not run.get("traced", False):
                runs.append(run)
    return runs


def values(runs, workload, metric):
    return [r["end_to_end"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["end_to_end"]]


def compare(bench, parent_runs, change_runs):
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<14} {'metric':<15} {'parent median [q1, q3]':<34}"
          f" {'change median [q1, q3]':<34} {'change':>8}  verdict")
    for workload in workloads:
        for m in bench["end_to_end"]:
            p = values(parent_runs, workload, m["name"])
            c = values(change_runs, workload, m["name"])
            if not p or not c:
                print(f"{workload:<14} {m['name']:<15} missing on "
                      f"{'parent' if not p else 'change'} side")
                continue
            p1, pmed, p3 = quartiles(p)
            c1, cmed, c3 = quartiles(c)
            rel = (cmed - pmed) / abs(pmed) if pmed else 0.0
            verdict = classify(p, c, m["better"], m["bound"])
            print(f"{workload:<14} {m['name']:<15} "
                  f"{f'{pmed:.5g} [{p1:.5g}, {p3:.5g}]':<34} "
                  f"{f'{cmed:.5g} [{c1:.5g}, {c3:.5g}]':<34} "
                  f"{rel:>+8.2%}  {verdict}")


def selftest():
    tight = [100.0, 101.0, 99.0, 100.5, 99.5]
    wide = [70.0, 100.0, 130.0, 85.0, 115.0]
    cases = [
        ("same distribution", tight, list(tight), "higher", 0.05,
         "unchanged"),
        ("small move inside the bound", tight,
         [x * 0.98 for x in tight], "higher", 0.05, "unchanged"),
        ("20% slower", tight, [x * 0.8 for x in tight], "higher", 0.05,
         "regressed"),
        ("20% more latency", tight, [x * 1.2 for x in tight], "lower",
         0.10, "regressed"),
        ("10% faster every pair", tight, [x * 1.1 for x in tight],
         "higher", 0.05, "improved"),
        ("10% less latency", tight, [x * 0.9 for x in tight], "lower",
         0.10, "improved"),
        ("spread wider than the bound", wide, [x * 0.97 for x in wide],
         "higher", 0.05, "unresolved"),
        ("wide, but every change run better", wide,
         [200.0, 210.0, 205.0, 220.0, 215.0], "higher", 0.05, "improved"),
        ("wins 3 of 5 pairs only", tight,
         [110.0, 95.0, 110.0, 95.0, 110.0], "higher", 0.25, "unchanged"),
    ]
    failures = 0
    for name, parent, change, better, bound, want in cases:
        got = classify(parent, change, better, bound)
        ok = got == want
        failures += 0 if ok else 1
        print(f"compare selftest {name:<36} {got:<10} "
              f"{'ok' if ok else 'FAIL (want ' + want + ')'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+")
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    bench = json.loads(Path(args.benchmark).read_text())
    compare(bench, load_runs(args.parent), load_runs(args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
