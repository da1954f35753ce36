#!/bin/sh
# Build the benchmark from source and run it; every argument is passed on.
#
#   sh perfbench/run.sh --workload serve-lp --seed 1 --seconds 25 --trace 0
#
# Runs from the root of a dlsched checkout and writes only inside it
# (_build/ and a scratch directory the benchmark removes again).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not in a dlsched checkout (no dune-project or lib/)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
dune build --root . --cache=disabled perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
