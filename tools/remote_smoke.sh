#!/usr/bin/env bash
# Multi-host smoke test: two nvx_executord processes on ephemeral localhost
# ports, a mixed batch of remote sessions driven through them, and a kill -9
# of one executor mid-batch followed by a restart. The batch must still
# complete with every verdict correct — the dispatcher redials the pooled
# connections the kill left stale, retries transport failures on the
# survivor and re-probes the restarted executor.
#
# Before the batch, cap + 32 silent peers connect to executor 1 and never
# send: the executor must hold at most its connection cap in serve threads,
# close the rest at accept, and close the held ones at its idle deadline.
#
#   $ tools/remote_smoke.sh [build-dir]     # default build dir: ./build
set -u

BUILD_DIR="${1:-build}"
EXECUTORD="$BUILD_DIR/tools/nvx_executord"
CLIENT="$BUILD_DIR/examples/remote_server"
WORKDIR="$(mktemp -d)"
PIDS=()

fail() {
  echo "remote_smoke: FAIL: $*" >&2
  exit 1
}

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

[ -x "$EXECUTORD" ] || fail "$EXECUTORD not built"
[ -x "$CLIENT" ] || fail "$CLIENT not built"

# Start an executor on an ephemeral port; parse the port it announces.
# $1: log file. Sets STARTED_PID and STARTED_PORT.
start_executor() {
  local log="$1"
  "$EXECUTORD" --port 0 --workers 4 >"$log" 2>&1 &
  STARTED_PID=$!
  disown "$STARTED_PID"  # quiet bash's "Killed" notice when cleanup reaps it
  STARTED_PORT=""
  for _ in $(seq 1 50); do
    STARTED_PORT="$(sed -n 's/^nvx_executord listening on port \([0-9]*\)$/\1/p' "$log")"
    [ -n "$STARTED_PORT" ] && break
    kill -0 "$STARTED_PID" 2>/dev/null || fail "executor died at startup: $(cat "$log")"
    sleep 0.1
  done
  [ -n "$STARTED_PORT" ] || fail "executor did not announce a port: $(cat "$log")"
}

start_executor "$WORKDIR/exec1.log"
PID1=$STARTED_PID; PORT1=$STARTED_PORT; PIDS+=("$PID1")
start_executor "$WORKDIR/exec2.log"
PID2=$STARTED_PID; PORT2=$STARTED_PORT; PIDS+=("$PID2")
echo "remote_smoke: executors up on ports $PORT1 (pid $PID1) and $PORT2 (pid $PID2)"

# Silent peers. CAP and IDLE_S mirror net::kMaxConnections and
# net::kIdleDeadline; the 4 spare threads are the daemon's main and accept
# threads plus slack.
CAP=64
IDLE_S=2
N_SILENT=$((CAP + 32))
task_count() { ls "/proc/$1/task" | wc -l; }
THREADS_BEFORE="$(task_count "$PID1")"
SILENT=()
for _ in $(seq 1 "$N_SILENT"); do
  exec {fd}<>"/dev/tcp/127.0.0.1/$PORT1" || fail "silent peer could not connect"
  SILENT+=("$fd")
done
MAX_THREADS=0
for _ in $(seq 1 10); do
  n="$(task_count "$PID1")"
  [ "$n" -gt "$MAX_THREADS" ] && MAX_THREADS=$n
  sleep 0.1
done
[ "$MAX_THREADS" -le $((CAP + 4)) ] \
  || fail "executor 1 ran $MAX_THREADS threads for $N_SILENT silent peers (cap $CAP)"
sleep "$IDLE_S"
for fd in "${SILENT[@]}"; do
  # read exits 1 at end-of-stream and above 128 on its timeout.
  read -r -t 1 -u "$fd" _
  rc=$?
  [ "$rc" -eq 1 ] || fail "silent peer (fd $fd) still open after the idle deadline (read: $rc)"
  exec {fd}>&-
done
THREADS_AFTER="$(task_count "$PID1")"
[ "$THREADS_AFTER" -le "$THREADS_BEFORE" ] \
  || fail "executor 1 has $THREADS_AFTER threads after the silent peers, $THREADS_BEFORE before"
echo "remote_smoke: $N_SILENT silent peers held at most $MAX_THREADS executor threads" \
  "and were closed; threads back to $THREADS_AFTER"

# The client paces ~60 runs over several seconds; kill executor 2 a little
# into the batch, then restart it (on a fresh port 2 would not be seen by the
# already-running client, so the restart must reuse the same port — pass it
# explicitly this time).
"$CLIENT" "$PORT1" "$PORT2" >"$WORKDIR/client.log" 2>&1 &
CLIENT_PID=$!
PIDS+=("$CLIENT_PID")

sleep 2
echo "remote_smoke: kill -9 executor 2 (pid $PID2) mid-batch"
kill -9 "$PID2" 2>/dev/null || fail "could not kill executor 2"
wait "$PID2" 2>/dev/null

sleep 2
"$EXECUTORD" --port "$PORT2" --workers 4 >"$WORKDIR/exec2b.log" 2>&1 &
PID2B=$!
disown "$PID2B"
PIDS+=("$PID2B")
for _ in $(seq 1 50); do
  grep -q "listening on port $PORT2" "$WORKDIR/exec2b.log" && break
  kill -0 "$PID2B" 2>/dev/null || fail "restarted executor died: $(cat "$WORKDIR/exec2b.log")"
  sleep 0.1
done
grep -q "listening on port $PORT2" "$WORKDIR/exec2b.log" \
  || fail "restarted executor did not re-bind port $PORT2"
echo "remote_smoke: executor 2 restarted on port $PORT2 (pid $PID2B)"

wait "$CLIENT_PID"
CLIENT_RC=$?
cat "$WORKDIR/client.log"
[ "$CLIENT_RC" -eq 0 ] || fail "client exited $CLIENT_RC"

# The restarted executor must have served traffic after coming back — the
# cooldown-probe path, not just the survivor carrying the whole tail.
kill -0 "$PID2B" 2>/dev/null || fail "restarted executor not running at batch end"

# Executor 1's counters, read over the wire by the client: the cap refused
# exactly the silent peers beyond it.
grep -q "^executor 127.0.0.1:$PORT1 stats: .* connections_refused=$((N_SILENT - CAP)) " \
  "$WORKDIR/client.log" || fail "executor 1 stats do not show $((N_SILENT - CAP)) refused peers"

echo "remote_smoke: PASS (silent peers capped and closed; batch survived kill -9 + restart of one executor)"
