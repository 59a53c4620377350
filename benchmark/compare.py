#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 benchmark/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds result files written with `run.py ... --out FILE`,
one per run.  Runs of the two sides are paired by workload and seed.
For every metric and workload the report gives each side's median and
quartiles, the share of pairs the new side wins (ties count for
neither) and one verdict.

Host metrics (measured on the host clock) carry noise, so a verdict
reads both sides' distributions:

  improved    the new side wins at least 9 pairs in 10 and the medians
              differ by more than the base's interquartile distance
  regressed   the new median is worse than the base median by more
              than the metric's bound
  unresolved  the base's own interquartile spread is wider than the
              bound, and not every new run beats every base run
  no worse    otherwise

Simulated metrics (named sim_*) repeat exactly for a seed, so each
pair's relative change is the change itself, without noise.  They are
judged on those changes, and need both sides to have run the same
seeds at the same --seconds:

  improved    the new side wins at least 9 pairs in 10 and the median
              change is a gain
  regressed   the median change is a loss larger than the bound
  no worse    otherwise

Per-layer metrics have no bound; they get medians and win shares but
no verdict.  An improvement does not count when the new side has more
failed operations; it is reported as "no worse".  Exits 1 if any
metric regressed, 2 if simulated metrics cannot be paired.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"compare.py: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """Values paired by seed where both sides ran it, else in seed order."""
    b = {r["seed"]: v for r, v in base}
    n = {r["seed"]: v for r, v in new}
    common = sorted(set(b) & set(n))
    if common:
        return [(b[s], n[s]) for s in common]
    return list(zip([v for _, v in sorted(base, key=lambda x: x[0]["seed"])],
                    [v for _, v in sorted(new, key=lambda x: x[0]["seed"])]))


def host_verdict(base_vals, new_vals, paired, sign, bound, more_failures):
    bq1, bmed, bq3 = quartiles(base_vals)
    _, nmed, _ = quartiles(new_vals)
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    gain = sign * (nmed - bmed)
    if wins >= 0.9 * len(paired) and gain > (bq3 - bq1):
        return "no worse" if more_failures else "improved"
    all_better = all(sign * (n - b) > 0 for b in base_vals for n in new_vals)
    if (bq3 - bq1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    if -gain / abs(bmed) > bound:
        return "regressed"
    return "no worse"


def sim_verdict(paired, sign, bound, more_failures):
    changes = [sign * (n - b) / abs(b) for b, n in paired]
    wins = sum(1 for c in changes if c > 0)
    med = statistics.median(changes)
    if -med > bound:
        return "regressed"
    if wins >= 0.9 * len(paired) and med > 0:
        return "no worse" if more_failures else "improved"
    return "no worse"


def sizes(runs):
    return {(r["seed"], r["stamp"].get("seconds")) for r in runs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["better"], m.get("bound")) for m in
                spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressed = unpaired = False
    print(f"{'workload':12} {'metric':26} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'wins':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        bw = [r for r in base if r["workload"] == w]
        nw = [r for r in new if r["workload"] == w]
        if not bw or not nw:
            continue
        more_failures = sum(r["failed"] for r in nw) > sum(r["failed"] for r in bw)
        same_inputs = sizes(bw) == sizes(nw)
        for metric, (better, bound) in declared.items():
            bv = [(r, r["metrics"][metric]["value"]) for r in bw if metric in r["metrics"]]
            nv = [(r, r["metrics"][metric]["value"]) for r in nw if metric in r["metrics"]]
            if not bv or not nv:
                continue
            sign = 1.0 if better == "higher" else -1.0
            b_vals, n_vals = [v for _, v in bv], [v for _, v in nv]
            paired = pairs(bv, nv)
            share = sum(1 for b, n in paired if sign * (n - b) > 0) / len(paired)
            if bound is None:
                v = ""
            elif metric.startswith("sim_"):
                if same_inputs:
                    v = sim_verdict(paired, sign, bound, more_failures)
                else:
                    v = "not paired: the sides ran other seeds or sizes"
                    unpaired = True
            else:
                v = host_verdict(b_vals, n_vals, paired, sign, bound, more_failures)
            regressed |= v == "regressed"
            bq1, bmed, bq3 = quartiles(b_vals)
            nq1, nmed, nq3 = quartiles(n_vals)
            print(f"{w:12} {metric:26} {bmed:11.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                  f"{nmed:11.5g} [{nq1:9.5g}, {nq3:9.5g}] {share:6.0%}  {v}")
        print(f"{w:12} {'runs / failed ops':26} {len(bw):>5} / {sum(r['failed'] for r in bw):<26}"
              f" {len(nw):>5} / {sum(r['failed'] for r in nw):<26}")
    return 1 if regressed else 2 if unpaired else 0


if __name__ == "__main__":
    sys.exit(main())
