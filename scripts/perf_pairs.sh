#!/bin/sh
# Alternating untraced benchmark pairs: a base revision against the
# current checkout.
#
#   sh scripts/perf_pairs.sh REV [PAIRS] [SECONDS]
#
# Exports REV (any git revision; PAIRS defaults to 10, SECONDS to 5) into
# _build/perf_pairs/<commit>/ with `git archive`, builds perfbench there
# and in the checkout, then runs PAIRS pairs per workload of
# BENCHMARK.json, each pair once per side with --seed 1 --trace 0, the
# side that goes first alternating from pair to pair.
#
# For every end-to-end metric of BENCHMARK.json it prints the median and
# interquartile range per side and how many pairs the change wins.  It
# exits 1 when a run exits nonzero, prints no JSON result or fails a
# check, or when a change median is worse than the base median by more
# than the metric's bound (a fraction of the base median), and 2 on a
# usage error.  It only reads BENCHMARK.json and
# writes only under _build/.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: sh scripts/perf_pairs.sh REV [PAIRS] [SECONDS]" >&2
  exit 2
fi
PAIRS=${2:-10}
SECONDS_PER_RUN=${3:-5}
COMMIT=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "perf_pairs: unknown revision $1" >&2
  exit 2
}

BASE=_build/perf_pairs/$COMMIT
if [ ! -f "$BASE/dune-project" ]; then
  rm -rf "$BASE"
  mkdir -p "$BASE"
  git archive "$COMMIT" | tar -x -C "$BASE"
fi
OUT=_build/perf_pairs/runs-$COMMIT
rm -rf "$OUT"
mkdir -p "$OUT"

# The shared dune cache lives outside the checkout; build without it.
dune build --root "$BASE" --cache=disabled perfbench/main.exe 2> "$OUT/build-base.log" || {
  cat "$OUT/build-base.log" >&2
  exit 1
}
dune build --root . --cache=disabled perfbench/main.exe 2> "$OUT/build-change.log" || {
  cat "$OUT/build-change.log" >&2
  exit 1
}

WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# One untraced run from a side's root; its last stdout line is the JSON
# result, appended to OUT/<workload>.<side>.  A run that exits nonzero
# or prints nothing stops the script, so the two sides' files always
# hold one line per pair, in pair order.
run() { # side root workload
  if ! (cd "$2" && ./_build/default/perfbench/main.exe --workload "$3" --seed 1 \
      --seconds "$SECONDS_PER_RUN" --trace 0) > "$OUT/run.out"; then
    echo "perf_pairs: FAIL $3: a $1 run exited nonzero" >&2
    exit 1
  fi
  last=$(tail -n 1 "$OUT/run.out")
  if [ -z "$last" ]; then
    echo "perf_pairs: FAIL $3: a $1 run printed no result" >&2
    exit 1
  fi
  printf '%s\n' "$last" >> "$OUT/$3.$1"
}

for w in $WORKLOADS; do
  i=1
  while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run base "$BASE" "$w"
      run change . "$w"
    else
      run change . "$w"
      run base "$BASE" "$w"
    fi
    echo "perf_pairs: $w pair $i/$PAIRS" >&2
    i=$((i + 1))
  done
done

python3 - "$OUT" "$COMMIT" "$SECONDS_PER_RUN" $WORKLOADS <<'PYEOF'
import json, statistics, sys

out, commit, seconds, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def load(path):
    try:
        return [json.loads(line) for line in open(path)]
    except ValueError:
        sys.exit(f"perf_pairs: FAIL {path}: a run's last line is not a JSON result")

bad = []
print(f"base {commit[:12]} vs checkout, seed 1, {seconds} s per run")
for w in workloads:
    base, change = load(f"{out}/{w}.base"), load(f"{out}/{w}.change")
    if len(base) != len(change):
        sys.exit(f"perf_pairs: FAIL {w}: {len(base)} base runs but {len(change)} change runs")
    for side, runs in (("base", base), ("change", change)):
        for r in runs:
            if not r["correct"] or r["failed"]:
                bad.append(f"{w}: a {side} run failed a check")
    print(f"\n{w} ({len(base)} pairs)")
    print(f"  {'metric':20} {'base median [IQR]':34} {'change median [IQR]':34} {'change':>8}  wins")
    for m in bench["end_to_end"]:
        name = m["name"]
        # Runs pair by position; a metric counts only where both runs of
        # a pair report it.
        pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                 for x, y in zip(base, change) if name in x["metrics"] and name in y["metrics"]]
        if not pairs:
            continue
        b, c = [x for x, _ in pairs], [y for _, y in pairs]
        lower = m["better"] == "lower"
        mb, mc = statistics.median(b), statistics.median(c)
        (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        delta = (mc - mb) / mb if mb else 0.0
        worse = delta if lower else -delta
        flag = ""
        if worse > m["bound"]:
            flag = "  WORSE THAN BOUND"
            bad.append(f"{w}: {name} {delta:+.1%} (bound {m['bound']:.0%})")
        cell = lambda med, q1, q3: f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
        print(f"  {name:20} {cell(mb, b1, b3):34} {cell(mc, c1, c3):34} {delta:>+8.1%}"
              f"  {wins}/{len(c)}{flag}")

if bad:
    print()
    for b in bad:
        print("perf_pairs: FAIL " + b)
    sys.exit(1)
PYEOF
