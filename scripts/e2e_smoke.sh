#!/usr/bin/env bash
# e2e_smoke.sh — end-to-end smoke test of the multi-tenant daemon.
#
# Builds cmd/sdnclassd, starts it on a loopback port, walks the service
# lifecycle over the wire (health, tenant create, rule install, single and
# batch classification, per-tenant and global stats), then checks a clean
# SIGTERM shutdown, that a second daemon on the same port and a daemon given a
# flag of the removed trace-replay mode both exit non-zero, and finally runs
# examples/sdncontroller — the controller loop over the same wire API.
# docs/SERVICE.md documents every endpoint exercised here. Run from anywhere;
# CI runs it in the e2e job.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/sdnclassd"
LOG="$(mktemp)"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -f "$LOG"
  rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

fail() {
  echo "e2e_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$LOG" >&2
  exit 1
}

# "METHOD path expected_status [body]" -> response body on stdout.
req() {
  local method="$1" path="$2" want="$3" body="${4:-}"
  local out status
  if [ -n "$body" ]; then
    out=$(curl -s -w '\n%{http_code}' -X "$method" "$BASE$path" -d "$body")
  else
    out=$(curl -s -w '\n%{http_code}' -X "$method" "$BASE$path")
  fi
  status="${out##*$'\n'}"
  out="${out%$'\n'*}"
  if [ "$status" != "$want" ]; then
    fail "$method $path returned $status (want $want): $out"
  fi
  echo "$out"
}

# Assert stdin (a JSON body) contains the given substring.
expect() {
  local body needle="$1"
  body=$(cat)
  case "$body" in
    *"$needle"*) ;;
    *) fail "response missing ${needle}: ${body}" ;;
  esac
}

echo "e2e_smoke: building daemon"
go build -o "$BIN" ./cmd/sdnclassd

echo "e2e_smoke: starting daemon on :${PORT}"
"$BIN" -http "127.0.0.1:${PORT}" >"$LOG" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
  curl -s -o /dev/null "$BASE/healthz" && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
req GET /healthz 200 | expect '"status":"ok"'

echo "e2e_smoke: tenant lifecycle"
req POST /v1/tenants 201 '{"id":"smoke","engine":"hypercuts","cache_capacity":1024}' \
  | expect '"engine":"hypercuts"'
req POST /v1/tenants 409 '{"id":"smoke"}' >/dev/null           # duplicate id conflicts
req POST /v1/tenants 201 '{"id":"smoke2","engine":"bst"}' >/dev/null   # second tenant, other tier

echo "e2e_smoke: rule install"
req POST /v1/tenants/smoke/rules 200 \
  '{"rules":[{"priority":0,"src":"10.0.0.0/8","action":"forward","action_arg":3},{"priority":1,"action":"drop"}]}' \
  | expect '"installed":2'

echo "e2e_smoke: classification"
req POST /v1/tenants/smoke/classify-batch 200 \
  '{"headers":[{"src_ip":"10.1.2.3","dst_ip":"1.1.1.1","dst_port":443,"proto":6},{"src_ip":"99.0.0.1","dst_ip":"2.2.2.2"}]}' \
  | expect '"packets":2'
req POST /v1/tenants/smoke/classify 200 '{"src_ip":"10.1.2.3","dst_ip":"1.1.1.1"}' \
  | expect '"action":"forward"'
req POST /v1/tenants/smoke/classify 400 '{"src_ip":"not-an-ip","dst_ip":"1.1.1.1"}' >/dev/null

echo "e2e_smoke: stats"
req GET /v1/tenants/smoke/stats 200 | expect '"lookups":3'
req GET /v1/stats 200 | expect '"tenants":2'

echo "e2e_smoke: bind failure exits non-zero"
if "$BIN" -http "127.0.0.1:${PORT}" >/dev/null 2>&1; then
  fail "second daemon on an occupied port exited zero"
fi

echo "e2e_smoke: removed replay flags exit non-zero"
for flags in "-mode=replay" "-ip-engine hypercuts -churn-rate 20000"; do
  # shellcheck disable=SC2086  # $flags is a word list on purpose
  if FLAG_OUT=$(timeout 10 "$BIN" $flags 2>&1); then
    fail "daemon given '$flags' exited zero"
  fi
  echo "$FLAG_OUT" | expect 'flag provided but not defined'
done

echo "e2e_smoke: graceful shutdown"
kill -TERM "$DAEMON_PID"
for i in $(seq 1 50); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  fail "daemon still running after SIGTERM"
fi
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
grep -q "shutdown complete" "$LOG" || fail "daemon log missing 'shutdown complete'"

echo "e2e_smoke: controller example over the wire API"
EXAMPLE_OUT=$(timeout 60 go run ./examples/sdncontroller 2>&1) \
  || fail "examples/sdncontroller failed or timed out: $EXAMPLE_OUT"
echo "$EXAMPLE_OUT" | expect 'DNS query: action=controller'   # the punt (packet-in)
echo "$EXAMPLE_OUT" | expect 'DNS query: action=forward'      # verdict after the controller reacted
echo "$EXAMPLE_OUT" | expect '"bst" engine'                   # engine re-programmed over the channel

echo "e2e_smoke: OK"
