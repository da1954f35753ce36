#!/bin/sh
# Crash-recovery smoke check (run by `make crash-smoke`, part of `make check`):
# a WAL-armed serve daemon is killed with SIGKILL mid-stream, its log tail is
# dirtied with half a record (as a crash mid-append would leave), and
# `--resume` must finish the remaining commands with final status and metrics
# bit-identical to a run that never crashed.  A second scenario kills the
# daemon inside an open admission coalescing window: every acknowledged
# submit carries its future (coalesced) arrival date in the WAL, so the
# resumed run must fire the same batch and drain to the same state.  A
# third kills a daemon checkpointing every 2 records, after several
# incrementally encoded checkpoints, one of them right after a failure
# dropped slices: the resume starts from the last of them.
set -eu

DLSCHED=${1:-_build/default/bin/dlsched.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "crash_smoke: FAIL: $*" >&2; exit 1; }

# The admission valve's own counters (admission.*) are process-local
# bookkeeping: shed requests never reach the WAL (refusal at the door) and
# replayed submits bypass the valve, so they are not — and should not be —
# recovered.  The bit-identity claim is about the engine; compare final
# states with the valve's entries stripped from the metrics document.
strip_admission() {
  python3 -c '
import json, sys
for line in sys.stdin:
    line = line.rstrip("\n")
    if line.startswith("{"):
        doc = json.loads(line)
        for section in doc.values():
            if isinstance(section, dict):
                for k in [k for k in section if k.startswith("admission.")]:
                    del section[k]
        print(json.dumps(doc, sort_keys=True))
    else:
        print(line)
'
}

# Send the commands in file $2 to the daemon listening on socket $1, one
# at a time, and require an `ok` reply to each: a reply means the record
# hit the fsync'd log before the engine applied it, so everything
# acknowledged here must survive the kill.  With $3, every submit must be
# acknowledged with that coalesced arrival date.
drive() {
  python3 - "$@" <<'PYEOF'
import socket, sys, time
path, cmds = sys.argv[1], sys.argv[2]
fires_at = sys.argv[3] if len(sys.argv) > 3 else None
for _ in range(100):
    try:
        s = socket.socket(socket.AF_UNIX)
        s.connect(path)
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("daemon socket never appeared")
f = s.makefile("rw")
assert f.readline().startswith("hello dlsched proto=2"), "banner"
for line in open(cmds):
    f.write(line)
    f.flush()
    r = f.readline().strip()
    assert r.startswith("ok"), "command %r got %r" % (line.strip(), r)
    if fires_at and line.startswith("submit"):
        assert r.endswith("fires_at=" + fires_at), "not coalesced to the open window: %r" % r
s.close()
PYEOF
}

# The full command stream.  The crash run is SIGKILLed after the first 7
# commands (so the log holds records both covered by the explicit snapshot
# and after it), then resumed with the remaining 7.
ALL="$WORK/all.cmds"
cat > "$ALL" <<'EOF'
submit a 0 40
submit b 1 20
tick 5
fail 1
snapshot
submit c 0 10
tick 3
submit d 1 8
recover 1
tick 4
drain
status
metrics json
quit
EOF

# --- oracle: the same stream, WAL-armed, uninterrupted --------------------

"$DLSCHED" serve --clock virtual --seed 42 --policy mct --wal "$WORK/oracle" \
  < "$ALL" > "$WORK/oracle.out" 2> /dev/null
grep -q '^ok snapshot seq=' "$WORK/oracle.out" || fail "oracle snapshot not taken"
grep -q '^ok drained' "$WORK/oracle.out" || fail "oracle did not drain"
# Final observable state: the status line and the metrics JSON document
# (followed by its `ok` terminator; the very last line is `ok bye`).
tail -n 4 "$WORK/oracle.out" | head -n 3 | strip_admission > "$WORK/oracle.final"
grep -q '"requests_completed": 4\|"requests_completed":4' "$WORK/oracle.final" \
  || fail "oracle final state did not capture the metrics document"

# --- crash run: socket daemon, kill -9 after 7 commands -------------------

SOCK="$WORK/dlsched.sock"
"$DLSCHED" serve --socket "$SOCK" --clock virtual --seed 42 --policy mct \
  --wal "$WORK/crash" > "$WORK/daemon.out" 2>&1 &
DAEMON=$!

head -n 7 "$ALL" > "$WORK/prefix.cmds"
if ! drive "$SOCK" "$WORK/prefix.cmds"; then
  kill -9 "$DAEMON" 2> /dev/null || true
  fail "could not drive the daemon before the crash"
fi

kill -9 "$DAEMON"
wait "$DAEMON" 2> /dev/null || true
[ -s "$WORK/crash/wal" ] || fail "no write-ahead log left behind"
[ -s "$WORK/crash/snapshot" ] || fail "no snapshot left behind"
# A crash can also land mid-append: leave half a frame at the tail.
printf 'r 99 1234 5678\nsubmi' >> "$WORK/crash/wal"

# --- resume: replay the tail, run the remaining commands ------------------

tail -n +8 "$ALL" | "$DLSCHED" serve --clock virtual --resume "$WORK/crash" \
  > "$WORK/resume.out" 2> "$WORK/resume.err"
grep -q 'resumed from .* (seq [0-9]' "$WORK/resume.err" \
  || fail "no resume banner: $(cat "$WORK/resume.err")"
tail -n 4 "$WORK/resume.out" | head -n 3 | strip_admission > "$WORK/resume.final"

diff -u "$WORK/oracle.final" "$WORK/resume.final" > /dev/null \
  || fail "resumed state differs from the uninterrupted run:
$(diff -u "$WORK/oracle.final" "$WORK/resume.final")"

# --- crash inside an open coalescing window -------------------------------

# With --batch-window 10 every submit is acknowledged with a future
# arrival date (the end of the open window) and WAL-logged with that very
# date, so there is no admission-side buffer to lose.  Kill -9 while the
# window is still open (t=2, batch fires at t=10): the resumed run must
# fire the same single batch and drain bit-identically to an oracle that
# never crashed.  --cache must be passed to the resumed run too (cache
# arming is engine configuration, not recovered state).
ALL2="$WORK/window.cmds"
cat > "$ALL2" <<'EOF'
submit a 0 40
submit b 1 20
tick 2
submit c 0 10
submit d 1 8
drain
status
metrics json
quit
EOF

"$DLSCHED" serve --clock virtual --seed 42 --policy mct --wal "$WORK/oracle2" \
  --batch-window 10 --cache < "$ALL2" > "$WORK/oracle2.out" 2> /dev/null
grep -q '^ok submitted a job=0 fires_at=10' "$WORK/oracle2.out" \
  || fail "window oracle did not coalesce the first submit to t=10"
grep -q '^ok drained' "$WORK/oracle2.out" || fail "window oracle did not drain"
tail -n 4 "$WORK/oracle2.out" | head -n 3 | strip_admission > "$WORK/oracle2.final"
grep -q '"requests_completed": 4\|"requests_completed":4' "$WORK/oracle2.final" \
  || fail "window oracle final state did not capture the metrics document"

SOCK2="$WORK/dlsched-window.sock"
"$DLSCHED" serve --socket "$SOCK2" --clock virtual --seed 42 --policy mct \
  --wal "$WORK/window-crash" --batch-window 10 --cache \
  > "$WORK/daemon2.out" 2>&1 &
DAEMON2=$!

head -n 5 "$ALL2" > "$WORK/window-prefix.cmds"
if ! drive "$SOCK2" "$WORK/window-prefix.cmds" 10; then
  kill -9 "$DAEMON2" 2> /dev/null || true
  fail "could not drive the window daemon before the crash"
fi

kill -9 "$DAEMON2"
wait "$DAEMON2" 2> /dev/null || true
[ -s "$WORK/window-crash/wal" ] || fail "no write-ahead log left by the window crash"
# No snapshot was ever taken: recovery starts from DIR/meta.  Dirty the
# tail here too.
printf 'submi' >> "$WORK/window-crash/wal"

tail -n +6 "$ALL2" | "$DLSCHED" serve --clock virtual --resume "$WORK/window-crash" \
  --batch-window 10 --cache > "$WORK/window-resume.out" 2> "$WORK/window-resume.err"
grep -q 'resumed from .* (seq [0-9]' "$WORK/window-resume.err" \
  || fail "no window resume banner: $(cat "$WORK/window-resume.err")"
tail -n 4 "$WORK/window-resume.out" | head -n 3 | strip_admission \
  > "$WORK/window-resume.final"

diff -u "$WORK/oracle2.final" "$WORK/window-resume.final" > /dev/null \
  || fail "window-crash resumed state differs from the uninterrupted run:
$(diff -u "$WORK/oracle2.final" "$WORK/window-resume.final")"

# --- crash after incremental checkpoints ---------------------------------

# With --snapshot-every 2 the daemon checkpoints on every second record,
# each checkpoint encoding only what the ones before did not: completed
# jobs, slices and histogram samples are reused from the handle's memo.
# The checkpoint at t=2 memoizes the first slices; `fail 1` then drops
# two of them (slices_lost 2), so the next checkpoint re-encodes the
# slices, and the ones after it reuse that text again.  The kill comes
# after 11 commands, 10 records: the last checkpoint covers seq 9 (the
# explicit `snapshot` restarts the count), so the resume starts from a
# checkpoint written from the memo and replays one record.  Under the
# same cadence it must finish bit-identically to an uninterrupted run.
ALL3="$WORK/every2.cmds"
cat > "$ALL3" <<'EOF'
submit a 0 40
submit b 1 20
tick 1
tick 1
fail 1
submit c 0 10
tick 3
snapshot
submit d 1 8
tick 2
recover 1
tick 4
drain
status
metrics json
quit
EOF

"$DLSCHED" serve --clock virtual --seed 42 --policy mct --wal "$WORK/oracle3" \
  --snapshot-every 2 < "$ALL3" > "$WORK/oracle3.out" 2> /dev/null
grep -q '^ok drained' "$WORK/oracle3.out" || fail "every-2 oracle did not drain"
tail -n 4 "$WORK/oracle3.out" | head -n 3 | strip_admission > "$WORK/oracle3.final"
grep -q '"requests_completed": 4\|"requests_completed":4' "$WORK/oracle3.final" \
  || fail "every-2 oracle final state did not capture the metrics document"
grep -q '"slices_lost": [1-9]\|"slices_lost":[1-9]' "$WORK/oracle3.final" \
  || fail "every-2 oracle lost no slice to the failure"

SOCK3="$WORK/dlsched-every2.sock"
"$DLSCHED" serve --socket "$SOCK3" --clock virtual --seed 42 --policy mct \
  --wal "$WORK/every2-crash" --snapshot-every 2 > "$WORK/daemon3.out" 2>&1 &
DAEMON3=$!

head -n 11 "$ALL3" > "$WORK/every2-prefix.cmds"
if ! drive "$SOCK3" "$WORK/every2-prefix.cmds"; then
  kill -9 "$DAEMON3" 2> /dev/null || true
  fail "could not drive the every-2 daemon before the crash"
fi

kill -9 "$DAEMON3"
wait "$DAEMON3" 2> /dev/null || true
grep -q '^seq 9$' "$WORK/every2-crash/snapshot" \
  || fail "the last checkpoint (seq 9) was not left behind"
printf 'r 99 1234 5678\nsubmi' >> "$WORK/every2-crash/wal"

tail -n +12 "$ALL3" | "$DLSCHED" serve --clock virtual --resume "$WORK/every2-crash" \
  --snapshot-every 2 > "$WORK/every2-resume.out" 2> "$WORK/every2-resume.err"
grep -q 'resumed from .* (seq [0-9]' "$WORK/every2-resume.err" \
  || fail "no every-2 resume banner: $(cat "$WORK/every2-resume.err")"
tail -n 4 "$WORK/every2-resume.out" | head -n 3 | strip_admission \
  > "$WORK/every2-resume.final"

diff -u "$WORK/oracle3.final" "$WORK/every2-resume.final" > /dev/null \
  || fail "every-2 resumed state differs from the uninterrupted run:
$(diff -u "$WORK/oracle3.final" "$WORK/every2-resume.final")"

# --- guard rails ----------------------------------------------------------

# Arming a directory that already holds serving state must be refused...
if printf 'quit\n' | "$DLSCHED" serve --clock virtual --wal "$WORK/crash" \
  > /dev/null 2> "$WORK/rearm.err"; then
  fail "re-arming a used durability directory should fail"
fi
grep -q 'already holds' "$WORK/rearm.err" || fail "re-arm error not explanatory"

# ...and --wal X --resume Y with X != Y is a contradiction.
if printf 'quit\n' | "$DLSCHED" serve --clock virtual --wal "$WORK/other" \
  --resume "$WORK/crash" > /dev/null 2> /dev/null; then
  fail "conflicting --wal/--resume directories should fail"
fi

echo "crash_smoke: PASS"
