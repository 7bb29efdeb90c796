"""Alternating parent/change runs of the benchmark, written as one JSON file.

    python3 scripts/paired_bench.py --parent DIR --change DIR --out FILE \
        [--pairs 10] [--seconds 32] [--seed 101] [--workloads volumes ...] \
        [--claim WORKLOAD/METRIC]

DIR is the root of a checkout.  Pair i runs ``perfbench/run.py`` with
seed ``--seed + i`` once in each checkout, the parent first on even i
and the change first on odd i; the pairs of all workloads interleave.
The file keeps the last JSON line of every run, the machine (``nproc``,
Python and numpy versions), and per workload and end-to-end metric the
median and quartiles of each side, the pairs the change won and a
verdict.  The claimed metric reads "claim met" when the change won at
least nine tenths of the pairs, its median gain exceeds the parent's
quartile spread and it failed no more operations than the parent on
that workload, else "claim not met".  Every other metric reads "worse"
when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json (a fraction of the parent's median),
"unresolved" when the parent's quartile spread is wider than that bound
and some change run is not better than every parent run, else "ok".  At
the end it prints that summary as one table per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def verdict(parent, change, wins, bound, claimed, more_failures=False):
    """The verdict on one metric, from each side's values already signed
    so that larger is better; more_failures is whether the change failed
    more operations than the parent on the workload."""
    p, c = quartiles(parent), quartiles(change)
    gain = c["median"] - p["median"]
    if claimed:
        met = (10 * wins >= 9 * len(parent) and gain > p["q3"] - p["q1"]
               and not more_failures)
        return "claim met" if met else "claim not met"
    if gain < -bound * abs(p["median"]):
        return "worse"
    if p["q3"] - p["q1"] > bound * abs(p["median"]) \
            and min(change) <= max(parent):
        return "unresolved"
    return "ok"


def summarize(runs, metrics, claim=None):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        failed = {s: [p[s]["failed"] for p in pairs]
                  for s in ("parent", "change")}
        more_failures = sum(failed["change"]) > sum(failed["parent"])
        rows = {}
        for name, (better, bound) in metrics.items():
            side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                    for s in ("parent", "change")}
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(side["parent"], side["change"]))
            rows[name] = {"parent": quartiles(side["parent"]),
                          "change": quartiles(side["change"]),
                          "better": better, "change_wins": wins,
                          "pairs": len(pairs),
                          "verdict": verdict(
                              [sign * v for v in side["parent"]],
                              [sign * v for v in side["change"]], wins,
                              bound, claim == f"{workload}/{name}",
                              more_failures)}
        rows["failed"] = failed
        summary[workload] = rows
    return summary


def print_tables(summary):
    """Per workload, one line per metric: parent median -> change median,
    each side's quartile range (q1..q3), the pairs the change won and the
    verdict, and then the failed operations of every run of each side."""
    for workload, rows in summary.items():
        print(f"== {workload}")
        for name, row in rows.items():
            if name == "failed":
                continue
            p, c = row["parent"], row["change"]
            print(f"{name:24} {p['median']:10.4g} -> {c['median']:<10.4g} "
                  f"parent {p['q1']:.4g}..{p['q3']:.4g}  "
                  f"change {c['q1']:.4g}..{c['q3']:.4g}  "
                  f"wins {row['change_wins']}/{row['pairs']} "
                  f"({row['better']} is better)  {row['verdict']}")
        failed = rows["failed"]
        print(f"{'failed':24} parent {failed['parent']}  "
              f"change {failed['change']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="+",
                    default=["volumes", "tables", "oracles"])
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="the end-to-end metric the change claims to "
                    "improve, judged by the pairs rule")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = {m["name"]: (m["better"], m["bound"])
                   for m in json.load(f)["end_to_end"]}
    if args.claim:
        workload, _, name = args.claim.partition("/")
        if workload not in args.workloads or name not in metrics:
            ap.error(f"--claim {args.claim}: no such workload/metric")
    roots = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.pairs):
        for workload in args.workloads:
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            pair = {"workload": workload, "pair": i,
                    "seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, pair["seed"],
                                      args.seconds)
            runs.append(pair)
            print(json.dumps({k: pair[k] for k in
                              ("workload", "pair", "seed", "first")}),
                  file=sys.stderr, flush=True)
    result = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "command": "perfbench/run.py --trace 0 --seconds "
                   f"{args.seconds:g}",
        "runs": runs,
        "summary": summarize(runs, metrics, args.claim),
        "claim": args.claim,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print_tables(result["summary"])


if __name__ == "__main__":
    main()
