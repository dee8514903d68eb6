#!/bin/sh
# Builds the benchmark in the release profile, then runs it. From the root
# of the repository:
#
#   sh e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build messages go to stderr, so the last line of stdout is the result
# object. The dune cache is off so nothing is written outside the tree.
set -eu
export DUNE_CACHE=disabled
dune build --root . --profile release ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
