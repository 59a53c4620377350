#!/bin/sh
# Perf regression gate over BENCH_perf.json.
#
# Compares the metrics a bench run just wrote against a committed
# baseline and fails when any simulated-time metric (unit "ns") got
# more than TOLERANCE percent slower.  Simulated-time metrics are
# deterministic — the discrete-event clock does not move with the host
# — so a slowdown there is a real cost-model or scheduling change, not
# noise.  Rows are told apart by unit alone: wall-clock rows (every
# unit ending in "_wall") and counts are never gated.
#
# usage: scripts/perf_gate.sh baseline.json current.json [tolerance_pct]
#
# CI copies the checked-out BENCH_perf.json aside before the bench
# steps overwrite it, then runs this.  Locally:
#   git show HEAD:BENCH_perf.json > /tmp/base.json
#   dune exec bench/main.exe
#   scripts/perf_gate.sh /tmp/base.json BENCH_perf.json
set -eu

usage="usage: perf_gate.sh baseline.json current.json [tolerance_pct]"
baseline=${1:?$usage}
current=${2:?$usage}
tol=${3:-10}

[ -r "$baseline" ] || { echo "perf_gate: cannot read $baseline" >&2; exit 2; }
[ -r "$current" ] || { echo "perf_gate: cannot read $current" >&2; exit 2; }

awk -v tol="$tol" '
  FNR == 1 { fileno++ }
  /"section": / {
    match($0, /"section": "[^"]*"/)
    sec = substr($0, RSTART + 12, RLENGTH - 13)
    match($0, /"metric": "[^"]*"/)
    met = substr($0, RSTART + 11, RLENGTH - 12)
    match($0, /"value": [-+0-9.eE]+/)
    val = substr($0, RSTART + 9, RLENGTH - 9)
    match($0, /"unit": "[^"]*"/)
    unit = substr($0, RSTART + 9, RLENGTH - 10)
    k = sec "/" met
    if (fileno == 1) { base[k] = val; bunit[k] = unit }
    else { cur[k] = val }
  }
  END {
    fails = 0; checked = 0
    n = 0
    for (k in base) keys[++n] = k
    # sort for stable output
    for (i = 1; i < n; i++)
      for (j = i + 1; j <= n; j++)
        if (keys[j] < keys[i]) { t = keys[i]; keys[i] = keys[j]; keys[j] = t }
    for (i = 1; i <= n; i++) {
      k = keys[i]
      if (!(k in cur)) continue        # metric gone: section not re-run
      if (bunit[k] != "ns") continue   # only simulated time is gated
      b = base[k] + 0; c = cur[k] + 0
      if (b <= 0) continue
      delta = 100 * (c - b) / b
      checked++
      if (delta > tol) {
        printf "FAIL %-40s %14.0f -> %14.0f ns  %+.1f%% (> %d%%)\n", \
          k, b, c, delta, tol
        fails++
      } else
        printf "ok   %-40s %14.0f -> %14.0f ns  %+.1f%%\n", k, b, c, delta
    }
    printf "perf gate: %d simulated-time metrics checked, %d regressions (tolerance %d%%)\n", \
      checked, fails, tol
    exit fails > 0 ? 1 : 0
  }
' "$baseline" "$current"
