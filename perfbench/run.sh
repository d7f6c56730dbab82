#!/bin/sh
# Build the benchmark from source and run it; arguments pass through:
#   sh perfbench/run.sh --workload full-table --seed 1 --seconds 15 --trace 0
# Run from the repository root.  Build output goes to stderr so that the
# result stays the last line of stdout.
set -e
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
