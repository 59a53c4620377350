#!/usr/bin/env python3
"""Committed rows gate over one BENCH_*.json rows file.

Compares a committed rows file (BENCH_perf.json, or a per-section copy
such as BENCH_overload_c6.json) with the one a bench run just
regenerated, and fails when a row whose unit does not end in "_wall"
differs in value, or is present in only one of the two files.  Those
rows are simulated and deterministic, so the committed file must hold
exactly what the code produces.  Wall-clock rows measure the host and
are never compared.

usage: scripts/rows_gate.py committed.json regenerated.json

CI copies the checked-out BENCH_perf.json and the four per-section
files (C4-C7) aside before the bench steps rewrite them, then runs
this once per pair.  Locally:
  git show HEAD:BENCH_perf.json > /tmp/base.json
  dune exec bench/main.exe -- T1 F2 A1 P1 C1 C2 C3 C4 C6 C7
  scripts/rows_gate.py /tmp/base.json BENCH_perf.json
"""
import json
import sys


def rows(path):
    with open(path) as f:
        return {(r["section"], r["metric"]): r["value"]
                for r in json.load(f) if not r["unit"].endswith("_wall")}


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: rows_gate.py committed.json regenerated.json")
    committed, regenerated = rows(argv[1]), rows(argv[2])
    differ = sorted(k for k in committed.keys() | regenerated.keys()
                    if committed.get(k) != regenerated.get(k))
    for section, metric in differ:
        print("rows_gate: %s/%s committed %s, regenerated %s"
              % (section, metric, committed.get((section, metric), "absent"),
                 regenerated.get((section, metric), "absent")))
    print("rows_gate: %d rows compared, %d differ"
          % (len(committed.keys() | regenerated.keys()), len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
