#!/bin/sh
# Print the output of the simulated drivers that the Table III golden
# does not cover: the adversarial (9-10) and damping (14) scenarios, MRT
# replay (13), subscriber churn (16), the peer sweep, Figure 3 and one
# standard scenario.  Two commands pin reports printed nowhere else: a
# damped scenario-10 run (the damping report outside scenario 14) and
# churn's --metrics registry dump.  Every command runs on the deterministic simulator,
# so the output repeats byte for byte; CI diffs it against the committed
# golden (well under a second of work):
#
#     sh bench/drivers_golden.sh | diff -u bench/drivers_n200.golden -
#
# Run from the repository root after `dune build`.
set -e
B=${BGPBENCH:-_build/default/bin/bgpbench.exe}

run() {
  echo "### $*"
  "$B" "$@"
}

for args in \
  "faults -n 200 --rounds 2" \
  "faults -n 200 --rounds 3 -s 14" \
  "mrt -n 200 --events 60" \
  "churn --subscribers 2000 --batch 200 --churn-duration 1 -a xeon" \
  "faults -n 200 --rounds 2 -s 10 --damping -a pentium3" \
  "churn --subscribers 2000 --batch 200 --churn-duration 1 -a xeon --metrics"
do
  # shellcheck disable=SC2086
  run $args
  # shellcheck disable=SC2086
  run $args --json
done
run peers -n 300 --json
run fig3 -n 300
run scenario 6 -n 300
