#!/bin/sh
# Dependency guard for the test-only oracle library (lib/oracle: the dense
# tableau simplex the revised engine is checked against).  Fails when any
# library under lib/ other than lib/check and lib/oracle itself, or the
# repository benchmark (perfbench/), lists `oracle` in its dune file, so
# the oracle cannot creep back into the serving path.
#
# Usage: sh scripts/check_oracle_deps.sh [REPO_ROOT]   (default: .)
# `dune runtest` runs it from test/dune.

root=${1:-.}
status=0
for f in "$root"/lib/*/dune "$root"/perfbench/dune; do
  case "$f" in
    "$root"/lib/check/dune | "$root"/lib/oracle/dune) continue ;;
  esac
  # Drop `;` comments, then look for the library name as a whole word.
  if sed 's/;.*//' "$f" | grep -qw oracle; then
    echo "check_oracle_deps: $f depends on the test-only oracle library" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_oracle_deps: PASS"
exit "$status"
