#!/bin/sh
# Trace smoke check (run by `make trace-smoke`, part of `make check`):
# --trace runs of the CLI must produce JSON-lines files where every line
# parses, and a max-flow solve must render as one span tree whose LP
# solves carry pivot counts and whose exact solves report certification.
set -eu

DLSCHED=${1:-_build/default/bin/dlsched.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "trace_smoke: FAIL: $*" >&2; exit 1; }

"$DLSCHED" generate --jobs 6 --machines 3 --seed 11 -o "$WORK/inst.txt" > /dev/null
"$DLSCHED" max-flow "$WORK/inst.txt" --trace "$WORK/maxflow.jsonl" > /dev/null \
  || fail "max-flow --trace failed"

"$DLSCHED" trace --profile poisson --requests 30 --seed 5 -o "$WORK/trace.txt" \
  > /dev/null
"$DLSCHED" replay "$WORK/trace.txt" --policy srpt --trace "$WORK/replay.jsonl" \
  > /dev/null || fail "replay --trace failed"

python3 - "$WORK/maxflow.jsonl" "$WORK/replay.jsonl" <<'PYEOF' \
  || fail "trace validation failed"
import json, sys

# Every line of every trace must be standalone JSON.
for path in sys.argv[1:]:
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l]
    if not lines:
        sys.exit(f"{path}: empty trace")
    for i, line in enumerate(lines, 1):
        try:
            json.loads(line)
        except ValueError as e:
            sys.exit(f"{path}:{i}: not JSON: {e}")

# The max-flow trace must be one tree: a single root span whose subtree
# holds the milestone search, its float probes and certifying parametric
# solves, and LP solves with pivot counts.
records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
spans = {r["id"]: r for r in records if r["type"] == "span"}
events = [r for r in records if r["type"] == "event"]
roots = [s for s in spans.values() if s["parent"] is None]
assert len(roots) == 1 and roots[0]["name"] == "dlsched.max-flow", roots

def depth(s):
    d = 0
    while s["parent"] is not None:
        s = spans[s["parent"]]
        d += 1
    return d

names = {s["name"] for s in spans.values()}
for needed in ("maxflow.solve", "flow.search", "lp.solve"):
    assert needed in names, f"missing {needed} span"
assert any(n.startswith("probe.") for n in names), "no probe spans"
# The bracket search counts its certifying parametric solves, and each of
# those solves runs inside it.
search = [s for s in spans.values() if s["name"] == "flow.search"]
assert all(s["attrs"].get("certify_solves", 0) >= 1 for s in search), \
    "flow.search missing certify_solves"
par = [s for s in spans.values() if s["name"] == "parametric.solve"]
assert par, "missing parametric.solve span"
assert all(spans[s["parent"]]["name"] == "flow.search" for s in par), \
    "parametric.solve not under flow.search"
lp = [s for s in spans.values() if s["name"] == "lp.solve"]
assert all("pivots_phase1" in s["attrs"] for s in lp), "lp.solve missing pivots"
# Every exact solve says whether the float basis was certified or the
# cold exact solve ran instead.
exact_lp = [s for s in lp if s["attrs"].get("exact") is True]
assert exact_lp, "no exact lp.solve span"
assert all(
    all(k in s["attrs"] for k in ("certified", "load_pivots", "float_pivots"))
    for s in exact_lp), "exact lp.solve missing certified/load_pivots/float_pivots"
assert all(depth(s) >= 2 for s in lp), "lp.solve not nested under the solve tree"
assert any(e["name"] == "milestones.computed" for e in events), "no milestones event"
assert all(s["end"] >= s["start"] for s in spans.values()), "span with end < start"
PYEOF

echo "trace_smoke: PASS"
