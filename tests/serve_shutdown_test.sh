#!/usr/bin/env bash
# `rcloak_tool serve --spill` shuts down cleanly on SIGTERM: it stops its
# front door, writes every resident session to the spill file and exits 0,
# and `restore` on that file brings the session back.
#
#   bash tests/serve_shutdown_test.sh path/to/rcloak_tool
set -u
tool=$1
dir=$(mktemp -d "$PWD/serve_shutdown.XXXXXX")
server=
cleanup() {
  if [ -n "$server" ]; then kill -KILL "$server" 2>/dev/null; fi
  rm -rf "$dir"
}
trap cleanup EXIT
fail() {
  echo "FAIL: $*"
  for log in "$dir"/*.log; do echo "--- $log"; cat "$log"; done
  exit 1
}

"$tool" gen-map --kind grid --rows 12 --cols 12 --out "$dir/map.rcmap" \
  > "$dir/gen-map.log" 2>&1 || fail "gen-map"

"$tool" serve --map "$dir/map.rcmap" --spill "$dir/spill.rcsf" --port 0 \
  > "$dir/serve.log" 2>&1 &
server=$!
port=
for _ in $(seq 100); do
  port=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$dir/serve.log")
  [ -n "$port" ] && break
  kill -0 "$server" 2>/dev/null || fail "serve exited before listening"
  sleep 0.1
done
[ -n "$port" ] || fail "serve printed no 'serving on' line"

"$tool" sendto --host 127.0.0.1 --port "$port" --user car0 \
  --segments 3,17,42 > "$dir/sendto.log" 2>&1 || fail "sendto"

kill -TERM "$server"
# bash reaps the exited job, so kill -0 fails once serve is gone.
for _ in $(seq 100); do
  kill -0 "$server" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$server" 2>/dev/null && fail "serve still running 10 s after SIGTERM"
wait "$server"
status=$?
server=
[ "$status" -eq 0 ] || fail "serve exited with status $status"
grep -q "^spilled 1 resident sessions" "$dir/serve.log" \
  || fail "serve did not spill the resident session"

"$tool" restore --map "$dir/map.rcmap" --spill "$dir/spill.rcsf" \
  > "$dir/restore.log" 2>&1 || fail "restore"
grep -q "^restored 1 sessions" "$dir/restore.log" \
  || fail "restore did not bring back 1 session"
echo "PASS"
