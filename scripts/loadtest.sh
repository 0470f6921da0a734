#!/bin/sh
# loadtest.sh — start the plan server, hammer it with the built-in
# load generator, and report sustained cache-hot throughput plus the
# in-process handler benchmark.
#
# Usage:
#   scripts/loadtest.sh [-churn] [duration] [concurrency]
#
# The script builds cmd/planserve, serves on an ephemeral localhost
# port, runs the loadgen client for the given duration (default 2s)
# with the given client count (default 2x CPUs), verifies a clean
# SIGTERM shutdown, and finishes with the in-process cache-hot
# benchmark (internal/planserve/bench_test.go).
#
# With -churn the loadgen cycles through distinct jittered sibling-rect
# geometries instead of repeating one query, exercising the cold-miss
# planning path (BuildPlan under the worker pool); the report separates
# cold (miss) from warm (hit) throughput, and the closing benchmark is
# the all-miss plan-churn workload instead of the cache-hot path.
set -eu
cd "$(dirname "$0")/.."

CHURN=""
if [ "${1:-}" = "-churn" ]; then
  CHURN="-churn"
  shift
fi
DURATION="${1:-2s}"
CONCURRENCY="${2:-0}"
ADDR="localhost:18080"

BIN="$(mktemp -d)/planserve"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/planserve

"$BIN" -addr "$ADDR" &
SRV=$!
trap 'kill "$SRV" 2>/dev/null; rm -rf "$(dirname "$BIN")"' EXIT

# Wait for the server to come up.
i=0
until "$BIN" -loadgen "http://$ADDR" -duration 1ms -concurrency 1 >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 50 ] || { echo "loadtest: server did not come up" >&2; exit 1; }
  sleep 0.1
done

if [ -n "$CHURN" ]; then
  echo "== loadgen over TCP, churn / cold-miss mode ($DURATION) =="
else
  echo "== loadgen over TCP ($DURATION) =="
fi
if [ "$CONCURRENCY" -gt 0 ]; then
  "$BIN" -loadgen "http://$ADDR" $CHURN -duration "$DURATION" -concurrency "$CONCURRENCY"
else
  "$BIN" -loadgen "http://$ADDR" $CHURN -duration "$DURATION"
fi

kill -TERM "$SRV"
wait "$SRV" || { echo "loadtest: server exited uncleanly" >&2; exit 1; }
trap 'rm -rf "$(dirname "$BIN")"' EXIT

echo
if [ -n "$CHURN" ]; then
  echo "== in-process cold-planning benchmark (plan-churn, every request a miss) =="
  go run ./bench --workload plan-churn --seconds 2
else
  echo "== in-process handler benchmark (cache-hot) =="
  go test ./internal/planserve -run '^$' -bench 'PlanQueryCacheHot$' -benchtime 2s -benchmem
fi
