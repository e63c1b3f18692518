#!/usr/bin/env bash
# End-to-end smoke of the scenario service's warm-restart contract:
#   1. start scenario_server with a fresh disk cache, run a cold study;
#   2. SIGTERM the daemon (graceful), restart it on the same cache dir;
#   3. rerun the identical study with --require-warm — the client exits 3
#      if the server recomputed anything (every stage must come from disk);
#   4. results must be byte-identical across the restart (cmp of the CSVs);
#   5. the cache directory must hold its one log file and no per-entry
#      file; then stop the daemon and leave the log in a shape a power loss
#      leaves behind (its last record zero-filled in place), restart and
#      rerun the study; stop again, cut the log mid-record, restart and
#      rerun: each time the lost records must be recomputed, and the CSV
#      must still match the cold one;
#   6. stop the daemon through the wire protocol and check exit codes.
#
# usage: service_smoke.sh <build-dir>
set -eu
build="${1:-build}"
server="$build/scenario_server"
client="$build/scenario_client"
[ -x "$server" ] || { echo "missing $server"; exit 2; }
[ -x "$client" ] || { echo "missing $client"; exit 2; }

work="$(mktemp -d)"
server_pid=""
cleanup() {
  # Kill AND reap the daemon before removing its working tree: a server
  # mid-store could otherwise recreate cache files under a half-deleted
  # directory (or leak an orphan holding the log open).
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2> /dev/null || true
    wait "$server_pid" 2> /dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
# On Ctrl-C / TERM, exit through the EXIT trap with the conventional
# 128+signal status instead of dying mid-cleanup.
trap 'exit 130' INT
trap 'exit 143' TERM

start_server() {
  "$server" --port 0 --cache-dir "$work/cache" --threads 4 \
    > "$work/server.log" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^SERVICE_PORT=//p' "$work/server.log" | head -1)"
    [ -n "$port" ] && return 0
    kill -0 "$server_pid" 2> /dev/null || { cat "$work/server.log"; exit 1; }
    sleep 0.1
  done
  echo "server never reported its port"; cat "$work/server.log"; exit 1
}

stop_server() {
  kill -TERM "$server_pid"
  wait "$server_pid" || { echo "server exited non-zero on SIGTERM"; exit 1; }
  server_pid=""
}

echo "== cold run =="
start_server
"$client" --port "$port" --demo 6 --csv "$work/cold.csv"

echo "== graceful SIGTERM restart =="
stop_server

start_server
echo "== warm run (must hit the disk cache for every stage) =="
"$client" --port "$port" --demo 6 --csv "$work/warm.csv" --require-warm

echo "== results bit-identical across restart =="
cmp "$work/cold.csv" "$work/warm.csv"

echo "== one log file, no per-entry files =="
log="$work/cache/entries.log"
[ -f "$log" ] || { echo "missing $log"; exit 1; }
if find "$work/cache" -name '*.cache' | grep -q .; then
  echo "per-entry .cache files in $work/cache"; exit 1
fi

# Byte offset of the log's last record (each record opens with its magic).
last_record() {
  grep -oba 'CNTICAC2' "$log" | tail -1 | cut -d: -f1
}

# Restart on the vandalized log, rerun the study, and require that the
# lost records were recomputed into the cold run's exact CSV.
expect_heal() {
  start_server
  "$client" --port "$port" --demo 6 --csv "$work/healed.csv" \
    > "$work/healed.log"
  cat "$work/healed.log"
  grep -q 'misses=[1-9]' "$work/healed.log" ||
    { echo "vandalized records were not recomputed"; exit 1; }
  cmp "$work/cold.csv" "$work/healed.csv"
}

echo "== power-loss shaped log heals across a restart: last record zeroed =="
stop_server
start="$(last_record)"
size="$(wc -c < "$log")"
[ -n "$start" ] || { echo "no record to vandalize in $log"; exit 1; }
head -c "$((size - start))" /dev/zero |
  dd of="$log" oflag=seek_bytes seek="$start" conv=notrunc status=none
expect_heal

echo "== power-loss shaped log heals across a restart: cut mid-record =="
stop_server
start="$(last_record)"
size="$(wc -c < "$log")"
[ -n "$start" ] || { echo "no record to vandalize in $log"; exit 1; }
truncate -s "$(((start + size) / 2))" "$log"
expect_heal

echo "== protocol shutdown =="
"$client" --port "$port" --demo 0 --shutdown
wait "$server_pid" || { echo "server exited non-zero on shutdown"; exit 1; }
server_pid=""

echo "service smoke OK"
