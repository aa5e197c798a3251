#!/usr/bin/env bash
# Served keep-alive smoke over unix sockets:
#   1. one ppdsd on diabetes:linear:silent:reservoir (persistent
#      per-connection OT state); one ppds-cli connection runs classify,
#      classify, similarity and health;
#   2. two ppdsd replicas on diabetes:linear:silent; ppds-cli in fleet mode
#      (--connect a,b) shards one classify batch across both;
#   3. one ppdsd on diabetes:linear:secure (a fresh DH batch per session);
#      one connection runs classify, classify and health. Similarity is
#      left out: at the secure preset's q=8 it can miss the plain value.
# Fails unless every classify line reports that all samples match the plain
# model, and every ppdsd exits 0 on SIGTERM with balanced books and every
# OT pool zeroed.
#
# Usage: tools/served_smoke.sh <build-dir>   (needs apps/ppdsd, apps/ppds-cli)
set -euo pipefail

build="${1:?usage: served_smoke.sh <build-dir>}"
ppdsd="$build/apps/ppdsd"
cli="$build/apps/ppds-cli"
work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

# start_daemon <name> <scenario>: starts ppdsd on $work/<name>.sock.
start_daemon() {
  "$ppdsd" --listen "unix:$work/$1.sock" --scenario "$2" --seed 7 \
    > "$work/$1.log" 2>&1 &
  pids+=("$!")
  for _ in $(seq 100); do
    [ -S "$work/$1.sock" ] && return 0
    sleep 0.1
  done
  echo "served_smoke: ppdsd $1 did not start" >&2
  cat "$work/$1.log" >&2
  return 1
}

# stop_daemons: SIGTERM every daemon, then check its exit code and banner.
stop_daemons() {
  local i
  for pid in "${pids[@]}"; do kill -TERM "$pid"; done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "served_smoke: ppdsd exited nonzero" >&2
      cat "$work"/*.log >&2
      return 1
    fi
  done
  pids=()
  for log in "$work"/*.log; do
    cat "$log"
    grep -q 'books balance' "$log"
    grep -q 'all pools zeroed' "$log"
    rm "$log"
  done
}

# check_classify <output> <expected classify lines>: every classify line
# must read [n/n match the plain model].
check_classify() {
  echo "$1"
  local lines
  lines="$(grep -c '^classify (' <<< "$1" || true)"
  if [ "$lines" != "$2" ]; then
    echo "served_smoke: expected $2 classify lines, got $lines" >&2
    return 1
  fi
  if grep '^classify (' <<< "$1" |
      grep -vE '\[([0-9]+)/\1 match the plain model\]'; then
    echo "served_smoke: a label differs from the plain model" >&2
    return 1
  fi
}

start_daemon solo diabetes:linear:silent:reservoir
out="$("$cli" --connect "unix:$work/solo.sock" \
  --scenario diabetes:linear:silent:reservoir --seed 7 \
  classify --count 4 classify --count 4 similarity health)"
check_classify "$out" 2
grep -q '^similarity: T = ' <<< "$out"
stop_daemons

start_daemon a diabetes:linear:silent
start_daemon b diabetes:linear:silent
out="$("$cli" --connect "unix:$work/a.sock,unix:$work/b.sock" \
  --scenario diabetes:linear:silent --seed 7 --chunk-size 4 \
  classify --count 16)"
check_classify "$out" 1
stop_daemons

start_daemon secure diabetes:linear:secure
out="$("$cli" --connect "unix:$work/secure.sock" \
  --scenario diabetes:linear:secure --seed 7 \
  classify --count 2 classify --count 2 health)"
check_classify "$out" 2
stop_daemons

echo "served_smoke: ok"
