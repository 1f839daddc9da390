#!/bin/sh
# Chaos harness for the crash-safe fleetd pipeline, run by `make smoke-cmds`.
#
# Property under test: a journaled fleetd can be killed at any moment and,
# after restarting on the same journal directory, every accepted job still
# reaches a terminal state with digests bit-identical to a run that was
# never interrupted. The baseline phase records the uninterrupted digest
# table; every chaos phase must diff clean against it.
#
# Phases:
#   baseline   submit, finish, record digests, SIGTERM-drain (must exit 0)
#   sigkill    kill -9 mid-campaign, restart, recover, diff digests
#   failpoint  fleetd built with -tags failpoint self-SIGKILLs (exit 137)
#              inside two durability windows — after-harvest/before-DONE and
#              after-journal-write/before-admit — restart, diff digests
#   drain      SIGTERM mid-campaign: graceful exit 0, queued jobs requeued,
#              restart finishes them, diff digests
set -eu

WORK=$(mktemp -d)
FLEETD_PID=""
cleanup() {
    [ -n "$FLEETD_PID" ] && kill -9 "$FLEETD_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "fleet_chaos: $*" >&2
    tail -40 "$WORK/fleetd.log" >&2 || true
    exit 1
}

go build -tags failpoint -o "$WORK/fleetd" ./cmd/fleetd
go build -o "$WORK/fleetctl" ./cmd/fleetctl

JOBS=16
SUBMIT="submit -n $JOBS -workload hover -seconds 10 -vary 6 -seed 50"

# start_fleetd <journal-dir>: boot fleetd on dynamic ports against the given
# journal and point CTL at it. Extra environment (failpoints) via FLEETD_ENV.
start_fleetd() {
    rm -f "$WORK/addr"
    env $FLEETD_ENV "$WORK/fleetd" -http 127.0.0.1:0 -telem 127.0.0.1:0 \
        -addrfile "$WORK/addr" -lanes 4 -journal "$1" \
        >>"$WORK/fleetd.log" 2>&1 &
    FLEETD_PID=$!
    i=0
    while [ ! -s "$WORK/addr" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "fleetd never wrote its addrfile"
        sleep 0.1
    done
    . "$WORK/addr" # sets http_addr / telem_addr
    CTL="$WORK/fleetctl -addr http://$http_addr -telem $telem_addr -retries 8 -wait-ready 15s"
}

# finish <out-file>: wait for every job, verify digest agreement, snapshot
# the per-job digest table.
finish() {
    $CTL wait -verify -timeout 300s
    $CTL digests >"$1"
    [ "$(wc -l <"$1")" -eq "$JOBS" ] || fail "$1: expected $JOBS digest lines"
}

# stop_graceful: SIGTERM must drain and exit 0 — the graceful-shutdown
# contract.
stop_graceful() {
    kill -TERM "$FLEETD_PID"
    rc=0
    wait "$FLEETD_PID" || rc=$?
    FLEETD_PID=""
    [ "$rc" -eq 0 ] || fail "graceful drain exited $rc, want 0"
}

echo "fleet_chaos: baseline — uninterrupted campaign"
FLEETD_ENV="" start_fleetd "$WORK/j-base"
$CTL $SUBMIT >/dev/null
finish "$WORK/baseline.txt"
stop_graceful

echo "fleet_chaos: phase sigkill — kill -9 mid-campaign, recover, compare"
FLEETD_ENV="" start_fleetd "$WORK/j-kill"
$CTL $SUBMIT >/dev/null
sleep 0.1
kill -9 "$FLEETD_PID"
wait "$FLEETD_PID" 2>/dev/null || true
FLEETD_PID=""
FLEETD_ENV="" start_fleetd "$WORK/j-kill"
grep -q "journal replay" "$WORK/fleetd.log" || fail "restart did not replay the journal"
finish "$WORK/kill9.txt"
diff "$WORK/baseline.txt" "$WORK/kill9.txt" || fail "digests diverged after SIGKILL recovery"
stop_graceful

for fp in fleet/harvested fleet/submit-journaled; do
    echo "fleet_chaos: phase failpoint — process dies at $fp"
    dir="$WORK/j-$(echo "$fp" | tr / -)"
    FLEETD_ENV="FLEET_FAILPOINT=$fp" start_fleetd "$dir"
    # The submit-window failpoint kills fleetd inside the POST, so the
    # submit command itself may die with the connection.
    $CTL $SUBMIT >/dev/null 2>&1 || true
    rc=0
    wait "$FLEETD_PID" || rc=$?
    FLEETD_PID=""
    [ "$rc" -eq 137 ] || fail "expected self-SIGKILL (137) at $fp, got $rc"
    FLEETD_ENV="" start_fleetd "$dir"
    finish "$WORK/fp.txt"
    diff "$WORK/baseline.txt" "$WORK/fp.txt" || fail "digests diverged after $fp crash"
    stop_graceful
done

echo "fleet_chaos: phase drain — SIGTERM mid-campaign, requeue, finish"
FLEETD_ENV="" start_fleetd "$WORK/j-drain"
$CTL $SUBMIT >/dev/null
sleep 0.1
stop_graceful
FLEETD_ENV="" start_fleetd "$WORK/j-drain"
finish "$WORK/drain.txt"
diff "$WORK/baseline.txt" "$WORK/drain.txt" || fail "digests diverged across a graceful drain"
stop_graceful

echo "fleet_chaos: ok"
