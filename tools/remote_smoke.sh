#!/usr/bin/env bash
# Multi-host smoke test: two nvx_executord processes on ephemeral localhost
# ports, a mixed batch of remote sessions driven through them, and a kill -9
# of one executor mid-batch followed by a restart. The batch must still
# complete with every verdict correct — the dispatcher retries transport
# failures on the survivor and re-probes the restarted executor.
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

echo "remote_smoke: PASS (batch survived kill -9 + restart of one executor)"
