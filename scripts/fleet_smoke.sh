#!/bin/sh
# End-to-end smoke for the fleetd/fleetctl pipeline, run by `make smoke-cmds`.
#
# Phase 1: start fleetd on dynamic ports, run one job streaming its live
# telemetry with a local-replay digest cross-check, then 64 varied jobs
# verified for same-spec digest agreement.
#
# Phase 2: attach a stalled telemetry subscriber, submit FLEET_JOBS hover
# flights (default 1024), and require the server to complete them all while
# sustaining at least min(FLEET_JOBS, 1024) concurrent lanes — completing
# within the timeout is the proof that a dead subscriber never stalls the
# tick loop.
#
# Opt-in scale: FLEET_JOBS=10240 FLEET_LITE=1 sh scripts/fleet_smoke.sh
# (FLEET_LITE starts fleetd with -lite -lanes 10240 so per-flight artifacts
# are dropped after digesting).
set -eu

JOBS=${FLEET_JOBS:-1024}
LANES=1024
LITEFLAGS=""
if [ "${FLEET_LITE:-0}" != "0" ]; then
    LANES=$JOBS
    LITEFLAGS="-lite -lanes $JOBS"
fi
if [ "$JOBS" -lt "$LANES" ]; then MINPEAK=$JOBS; else MINPEAK=$LANES; fi

WORK=$(mktemp -d)
FLEETD_PID=""
STALL_PID=""
cleanup() {
    [ -n "$STALL_PID" ] && kill "$STALL_PID" 2>/dev/null || true
    [ -n "$FLEETD_PID" ] && kill "$FLEETD_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/fleetd" ./cmd/fleetd
go build -o "$WORK/fleetctl" ./cmd/fleetctl

"$WORK/fleetd" -http 127.0.0.1:0 -telem 127.0.0.1:0 -addrfile "$WORK/addr" \
    $LITEFLAGS >"$WORK/fleetd.log" 2>&1 &
FLEETD_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "fleet_smoke: fleetd never wrote its addrfile" >&2
        cat "$WORK/fleetd.log" >&2
        exit 1
    fi
    sleep 0.1
done
. "$WORK/addr" # sets http_addr / telem_addr
CTL="$WORK/fleetctl -addr http://$http_addr -telem $telem_addr"

echo "fleet_smoke: phase 1 — live stream + digest cross-check, then 64 jobs"
$CTL run -workload hover -seconds 30 -every 100 -seed 42 -check >/dev/null
$CTL submit -n 64 -workload hover -seconds 2 -vary 8 >/dev/null
$CTL wait -verify -timeout 120s

echo "fleet_smoke: phase 2 — $JOBS jobs with a stalled subscriber (min peak $MINPEAK)"
STALL_ID=$($CTL submit -workload hover -seconds 30 -seed 99)
$CTL stream -id "$STALL_ID" -stall >/dev/null &
STALL_PID=$!
sleep 0.2
$CTL submit -n "$JOBS" -workload hover -seconds 2 -vary 16 >/dev/null
$CTL wait -verify -min-peak "$MINPEAK" -timeout 600s

kill "$STALL_PID" 2>/dev/null || true
STALL_PID=""
$CTL shutdown
wait "$FLEETD_PID" 2>/dev/null || true
FLEETD_PID=""
echo "fleet_smoke: ok"
