#!/bin/sh
# End-to-end check of the serving subsystem through the dlsched binary:
# generate a diurnal trace, replay it under a virtual clock, and drive the
# serve command protocol over stdin/stdout.  Run by `dune runtest`.
set -eu

DLSCHED=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "serve_e2e: FAIL: $*" >&2; exit 1; }

# --- replay a generated 200-request diurnal trace -------------------------

"$DLSCHED" trace --profile diurnal --requests 200 --seed 42 -o "$WORK/trace.txt" \
  > /dev/null
grep -q '^trace v1$' "$WORK/trace.txt" || fail "trace missing header"
[ "$(grep -c '^req ' "$WORK/trace.txt")" -eq 200 ] || fail "trace not 200 requests"

"$DLSCHED" replay "$WORK/trace.txt" --policy mct --report "$WORK/report.txt" \
  > "$WORK/replay.out"
grep -q 'p50=.*p95=.*p99=' "$WORK/report.txt" || fail "report missing quantiles"
grep -q '^stretch ' "$WORK/report.txt" || fail "report missing stretch histogram"
grep -q 'requests_completed  *200' "$WORK/report.txt" || fail "not all requests completed"
grep -q '^schedule valid' "$WORK/replay.out" || fail "replay schedule invalid"

"$DLSCHED" replay "$WORK/trace.txt" --policy fair --json > "$WORK/replay-json.out"
grep -q '"stretch"' "$WORK/replay-json.out" || fail "json report missing stretch"
grep -q '^schedule valid' "$WORK/replay-json.out" || fail "json replay schedule invalid"

"$DLSCHED" replay "$WORK/trace.txt" --policy mct --batch 30 > "$WORK/replay-batch.out"
grep -q '^schedule valid' "$WORK/replay-batch.out" || fail "batched replay invalid"

# --- fault injection: trace generation and replay -------------------------

"$DLSCHED" trace --profile poisson --requests 40 --seed 7 --faults \
  --mtbf 60 --mttr 10 -o "$WORK/faulty.txt" > "$WORK/faulty.gen"
grep -q 'fault events' "$WORK/faulty.gen" || fail "trace gen did not report fault events"
FAILS=$(grep -c '^fail ' "$WORK/faulty.txt")
RECOVERS=$(grep -c '^recover ' "$WORK/faulty.txt")
[ "$FAILS" -ge 1 ] || fail "faulted trace has no fail events"
[ "$FAILS" -eq "$RECOVERS" ] || fail "fail/recover counts differ ($FAILS vs $RECOVERS)"

# Every failure in the generated overlay is recovered, so replay must still
# complete every request and produce a valid schedule under both regimes.
"$DLSCHED" replay "$WORK/faulty.txt" --policy mct > "$WORK/replay-fault.out"
grep -q '^schedule valid' "$WORK/replay-fault.out" || fail "faulted replay invalid"
"$DLSCHED" replay "$WORK/faulty.txt" --policy srpt --lost-work preserved \
  > "$WORK/replay-fault-p.out"
grep -q '^schedule valid' "$WORK/replay-fault-p.out" \
  || fail "preserved-work faulted replay invalid"

# --- loading errors exit nonzero with one line, not a backtrace -----------

if "$DLSCHED" solve "$WORK/nonexistent.txt" > /dev/null 2> "$WORK/err.txt"; then
  fail "solve on a missing file should fail"
fi
printf 'trace v1\nmachines 0\n' > "$WORK/bad.txt"
if "$DLSCHED" replay "$WORK/bad.txt" > /dev/null 2> "$WORK/err.txt"; then
  fail "replay on a malformed trace should fail"
fi
grep -q 'line 2' "$WORK/err.txt" || fail "malformed-trace error not line-numbered"
[ "$(wc -l < "$WORK/err.txt")" -eq 1 ] || fail "expected a one-line error"

# A malformed deadline (a bad token, a zero denominator) is a user error:
# exit 2 with one "dlsched:" line.
"$DLSCHED" generate -n 3 -m 2 -s 1 -o "$WORK/three.inst" > /dev/null
for ds in 1,x,3 1,1/0,3; do
  STATUS=0
  "$DLSCHED" feasible "$WORK/three.inst" --deadlines "$ds" > /dev/null 2> "$WORK/err.txt" \
    || STATUS=$?
  [ "$STATUS" -eq 2 ] || fail "feasible --deadlines $ds exited $STATUS, not 2"
  [ "$(wc -l < "$WORK/err.txt")" -eq 1 ] && grep -q '^dlsched: ' "$WORK/err.txt" \
    || fail "feasible --deadlines $ds: expected one dlsched: line"
done

# --- serve: the line protocol over stdin/stdout ---------------------------

"$DLSCHED" serve --clock virtual --seed 42 --policy mct > "$WORK/serve.out" \
  2> /dev/null <<'EOF'
# comments and blank lines are ignored

submit a 0 40
submit b 1 20
submit a 0 10
status
tick 10
fail 0
status
recover 0
metrics
drain
status
metrics json
bogus
quit
EOF

expect() { grep -q "$1" "$WORK/serve.out" || fail "serve: no \"$1\""; }
expect '^hello dlsched proto=2'
expect '^ok submitted a job=0'
expect '^ok submitted b job=1'
expect '^err bad_request .*duplicate'
expect '^ok now=0 submitted=2 active=0 completed=0'
expect '^ok now=10'
expect '^ok machine 0 down up='
expect 'up=[0-9]*/[0-9]* starved='
expect '^ok machine 0 up up='
expect '^stretch '
expect '^ok drained .*completed=2'
expect '^ok now=.* submitted=2 active=0 completed=2'
expect '"requests_completed":2'
expect '^err unknown_command'
expect '^ok bye'

# --- serve: socket daemon survives a client that vanishes mid-session -----

SOCK="$WORK/dlsched.sock"
"$DLSCHED" serve --socket "$SOCK" --clock virtual --seed 42 --policy mct \
  > "$WORK/daemon.out" 2>&1 &
DAEMON=$!

if ! python3 - "$SOCK" <<'PYEOF'
import socket, sys, time
path = sys.argv[1]
for _ in range(100):
    try:
        s = socket.socket(socket.AF_UNIX)
        s.connect(path)
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("daemon socket never appeared")
# Client 1: submit work, then vanish without reading a byte of the reply.
# The daemon's write to this dead socket must not kill it (EPIPE, not SIGPIPE).
s.sendall(b"submit a 0 40\nstatus\n")
s.close()
time.sleep(0.2)
# Client 2: the daemon must still be serving, with client 1's submission kept.
c = socket.socket(socket.AF_UNIX)
c.connect(path)
f = c.makefile("rw")
assert f.readline().startswith("hello dlsched proto=2"), "banner"
def rt(cmd):
    f.write(cmd + "\n")
    f.flush()
    return f.readline().strip()
r = rt("fail 0")
assert r.startswith("ok machine 0 down"), r
r = rt("recover 0")
assert r.startswith("ok machine 0 up"), r
r = rt("status")
assert "submitted=1" in r and "starved=0" in r, r
r = rt("drain")
assert r.startswith("ok drained"), r
r = rt("quit")
assert r == "ok bye", r
c.close()
PYEOF
then
  kill "$DAEMON" 2> /dev/null || true
  fail "socket daemon did not survive a vanished client"
fi

i=0
while kill -0 "$DAEMON" 2> /dev/null; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { kill "$DAEMON"; fail "daemon did not exit after quit"; }
  sleep 0.1
done
wait "$DAEMON" || fail "daemon exited nonzero"
[ ! -e "$SOCK" ] || fail "socket file not cleaned up on exit"

# --- serve: two concurrent clients share one engine -----------------------

SOCK2="$WORK/dlsched2.sock"
"$DLSCHED" serve --socket "$SOCK2" --clock virtual --seed 42 --policy mct \
  > "$WORK/daemon2.out" 2>&1 &
DAEMON2=$!

if ! python3 - "$SOCK2" <<'PYEOF'
import socket, sys, threading, time
path = sys.argv[1]

def connect():
    for _ in range(100):
        try:
            s = socket.socket(socket.AF_UNIX)
            s.connect(path)
            return s
        except OSError:
            time.sleep(0.1)
    sys.exit("daemon socket never appeared")

errors = []

def session(tag, n):
    # Each client submits n requests and interleaves fail/recover churn;
    # the engine behind the shared mutex must accept every command.
    try:
        s = connect()
        f = s.makefile("rw")
        assert f.readline().startswith("hello dlsched proto=2"), "banner"
        def rt(cmd):
            f.write(cmd + "\n")
            f.flush()
            return f.readline().strip()
        for i in range(n):
            r = rt("submit %s%d 0 %d" % (tag, i, 10 + i))
            assert r.startswith("ok submitted"), r
            if i % 3 == 0:
                assert rt("fail 1").startswith("ok machine 1 down"), "fail"
                assert rt("recover 1").startswith("ok machine 1 up"), "recover"
        s.close()
    except Exception as e:
        errors.append("%s: %r" % (tag, e))

t1 = threading.Thread(target=session, args=("a", 8))
t2 = threading.Thread(target=session, args=("b", 8))
t1.start(); t2.start(); t1.join(); t2.join()
if errors:
    sys.exit("; ".join(errors))

# A third session sees the union of both clients' submissions and can
# drain them all: no command was lost or interleaved mid-line.
c = connect()
f = c.makefile("rw")
assert f.readline().startswith("hello dlsched proto=2"), "banner"
def rt(cmd):
    f.write(cmd + "\n")
    f.flush()
    return f.readline().strip()
r = rt("status")
assert "submitted=16" in r, r
r = rt("drain")
assert r.startswith("ok drained") and "completed=16" in r, r
r = rt("quit")
assert r == "ok bye", r
c.close()
PYEOF
then
  kill "$DAEMON2" 2> /dev/null || true
  fail "concurrent socket clients failed"
fi

i=0
while kill -0 "$DAEMON2" 2> /dev/null; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { kill "$DAEMON2"; fail "daemon2 did not exit after quit"; }
  sleep 0.1
done
wait "$DAEMON2" || fail "daemon2 exited nonzero"
[ ! -e "$SOCK2" ] || fail "socket file 2 not cleaned up on exit"

# --- serve: SIGTERM shuts the daemon down and removes the socket ----------

SOCK3="$WORK/dlsched3.sock"
"$DLSCHED" serve --socket "$SOCK3" --clock virtual --seed 42 --policy mct \
  > "$WORK/daemon3.out" 2>&1 &
DAEMON3=$!
i=0
while [ ! -S "$SOCK3" ]; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { kill "$DAEMON3"; fail "daemon3 socket never appeared"; }
  sleep 0.1
done
kill -TERM "$DAEMON3"
i=0
while kill -0 "$DAEMON3" 2> /dev/null; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { kill -9 "$DAEMON3"; fail "daemon3 ignored SIGTERM"; }
  sleep 0.1
done
wait "$DAEMON3" || fail "daemon3 exited nonzero after SIGTERM"
[ ! -e "$SOCK3" ] || fail "socket file not cleaned up after SIGTERM"

echo "serve_e2e: PASS"
