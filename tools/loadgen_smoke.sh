#!/usr/bin/env bash
# Tier-1 network round trip: fkd_server --demo + fkd_loadgen, seconds-scale.
#
# Boots the serving daemon on an ephemeral port with a self-trained demo
# model, waits for the port file, runs one short timed closed-loop round
# (plus a ping) that must be clean (some ok responses, no failure of any
# kind), then SIGTERMs the server and asserts the graceful drain: exit 0
# and the no-silent-drop line. A second launch gets its SIGTERM ~0.1 s in,
# while the demo model still trains, and must drain just the same; it has
# no --snapshot, so it picks its demo path under TMPDIR and must remove it
# on exit.
#
#   tools/loadgen_smoke.sh <fkd_server> <fkd_loadgen>

set -euo pipefail

SERVER_BIN="$1"
LOADGEN_BIN="$2"

WORKDIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT

# start_server <name> [flag...]: launches fkd_server --demo in the
# background with its log and port file under ${WORKDIR}/<name>* and any
# extra flags; sets SERVER_PID.
start_server() {
  local name="$1"
  shift
  "${SERVER_BIN}" --demo --demo-articles=80 --port=0 \
    --port-file="${WORKDIR}/${name}.port" --loops=1 --workers=1 \
    "$@" >"${WORKDIR}/${name}.log" 2>&1 &
  SERVER_PID=$!
}

# stop_server <name>: SIGTERMs the server and requires the graceful drain.
stop_server() {
  local log="${WORKDIR}/$1.log" status=0
  kill -TERM "${SERVER_PID}"
  for _ in $(seq 1 60); do
    kill -0 "${SERVER_PID}" 2>/dev/null || break
    sleep 0.5
  done
  if kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: $1 server did not drain after SIGTERM"; cat "${log}"; exit 1
  fi
  wait "${SERVER_PID}" || status=$?
  SERVER_PID=""
  if (( status != 0 )); then
    echo "FAIL: $1 server exited ${status} after SIGTERM"; cat "${log}"; exit 1
  fi
  grep -q "no accepted request was silently dropped" "${log}" || {
    echo "FAIL: $1 server printed no drain invariant line"; cat "${log}"; exit 1
  }
}

start_server serving --snapshot="${WORKDIR}/serving-snapshot"
SERVER_LOG="${WORKDIR}/serving.log"
PORT_FILE="${WORKDIR}/serving.port"

# Demo training takes a few seconds before the socket opens.
for _ in $(seq 1 120); do
  [[ -f "${PORT_FILE}" ]] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: server exited before listening"; cat "${SERVER_LOG}"; exit 1
  fi
  sleep 0.5
done
[[ -f "${PORT_FILE}" ]] || { echo "FAIL: no port file"; cat "${SERVER_LOG}"; exit 1; }
PORT="$(cat "${PORT_FILE}")"
echo "server up on port ${PORT}"

"${LOADGEN_BIN}" --port="${PORT}" --ping

"${LOADGEN_BIN}" --port="${PORT}" --connections=2 --window=2 \
  --duration-s=3 --warmup-s=1 --corpus=40 --expect-zero-errors

stop_server serving

mkdir "${WORKDIR}/early-tmp"
TMPDIR="${WORKDIR}/early-tmp" start_server early
sleep 0.1
stop_server early
if [[ -n "$(ls -A "${WORKDIR}/early-tmp")" ]]; then
  echo "FAIL: early server left its demo snapshot behind"
  ls -A "${WORKDIR}/early-tmp"; exit 1
fi

echo "loadgen smoke: OK"
