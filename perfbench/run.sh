#!/bin/sh
# Build the benchmark from source and run one workload:
#
#   sh perfbench/run.sh --workload paper-suite|scale-1e5|serve-mixed \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository.  Build output goes
# to stderr; stdout carries only the benchmark's own lines, the last of
# which is the JSON result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
    echo "perfbench: run from the root of a checkout of the repository" >&2
    exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet \
    ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
