#!/bin/sh
# Run every example and every multics_sim command, one transcript each.
#
#   scripts/transcripts.sh OUTDIR
#
# Run from the repository root after `dune build @all`.  Exits non-zero
# as soon as one program does, naming it and printing its output.  Every
# transcript is a deterministic report, so two runs into two directories
# are byte-identical (`diff -r`), and so are two trees that behave the
# same.  trace_dump also writes trace.json to the current directory.
set -eu
out=${1:?usage: scripts/transcripts.sh OUTDIR}
b=./_build/default
mkdir -p "$out"

run() {
  name=$1
  shift
  "$@" > "$out/$name.txt" 2>&1 || {
    status=$?
    echo "$name failed (exit $status):"
    cat "$out/$name.txt"
    exit 1
  }
}

for e in quickstart secure_timesharing file_service kernel_audit \
         incarnation trace_dump chaos_demo; do
  run "$e" "$b/examples/$e.exe"
done
for d in 1 2; do
  run "explore_d$d" "$b/examples/explore_demo.exe" --domains "$d"
done
run boot "$b/bin/multics_sim.exe" boot
run audit "$b/bin/multics_sim.exe" audit
for k in new legacy; do
  for w in writer churn thrash ipc; do
    run "run_${k}_$w" "$b/bin/multics_sim.exe" run --kernel "$k" --workload "$w"
  done
done
