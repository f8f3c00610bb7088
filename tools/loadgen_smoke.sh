#!/usr/bin/env bash
# Tier-1 network round trip: fkd_server --demo + fkd_loadgen, seconds-scale.
#
# Boots the serving daemon on an ephemeral port with a self-trained demo
# model, waits for the port file, runs one short timed closed-loop round
# (plus a ping), requires zero client-visible errors, then SIGTERMs the
# server and asserts the graceful drain printed its no-silent-drop line.
#
#   tools/loadgen_smoke.sh <fkd_server> <fkd_loadgen>

set -euo pipefail

SERVER_BIN="$1"
LOADGEN_BIN="$2"

WORKDIR="$(mktemp -d)"
SERVER_LOG="${WORKDIR}/server.log"
PORT_FILE="${WORKDIR}/port"
SERVER_PID=""

cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT

"${SERVER_BIN}" --demo --demo-articles=80 --port=0 \
  --snapshot="${WORKDIR}/snapshot" --port-file="${PORT_FILE}" \
  --loops=1 --replicas=1 --workers=1 \
  >"${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

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
  --duration-s=3 --warmup-s=1 --corpus=40 --expect-zero-errors \
  --json="${WORKDIR}/report.json"
grep -q '"achieved_qps"' "${WORKDIR}/report.json"

kill -TERM "${SERVER_PID}"
for _ in $(seq 1 60); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.5
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  echo "FAIL: server did not drain after SIGTERM"; cat "${SERVER_LOG}"; exit 1
fi
wait "${SERVER_PID}" || { echo "FAIL: server exited non-zero"; cat "${SERVER_LOG}"; exit 1; }
SERVER_PID=""

grep -q "no accepted request was silently dropped" "${SERVER_LOG}" || {
  echo "FAIL: drain invariant line missing"; cat "${SERVER_LOG}"; exit 1
}

echo "loadgen smoke: OK"
