#!/bin/sh
# Smoke test for the multi-tenant sweep server (`last_serve`,
# DESIGN.md §4g): start a daemon, hit it with parallel identical
# clients, and assert
#  - every served `last-divergence-v2` report is byte-identical to the
#    offline `last_obs diverge --json` artifact for the same spec;
#  - concurrent identical queries cost exactly one simulation of the
#    N-ISA group (in-flight coalescing / warm-store reuse, read from
#    `status`);
#  - a warm repeat query simulates nothing (`simulated_specs` frozen);
#  - a malformed request gets a structured error and the daemon
#    survives to answer the next query;
#  - a clean shutdown leaves no leaked unix socket file and the daemon
#    process actually exits.
#
# Usage: scripts/serve_smoke.sh    (from the repo root)
#
# Exit status: 0 when every check passed; nonzero (with a FAILED line)
# otherwise.
set -u

cd "$(dirname "$0")/.."
repo=$(pwd)

fail() {
    echo "serve_smoke: FAILED: $1" >&2
    [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null
    exit 1
}

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null ||
    fail "configure"
cmake --build build-perf -j "$(nproc)" --target last_serve last_obs >/dev/null ||
    fail "build"
serve=$repo/build-perf/tools/last_serve
obs=$repo/build-perf/tools/last_obs

tmp=$(mktemp -d /tmp/last_serve_XXXXXX) || fail "mktemp"
trap 'rm -rf "$tmp"' EXIT INT TERM
sock=$tmp/serve.sock

workload=atomicred
scale=0.25

# ---------------------------------------------------------------- 1 --
echo "serve_smoke: [1/5] offline reference artifact"
"$obs" diverge "$workload" --scale "$scale" --json "$tmp/offline.json" \
    >/dev/null 2>&1 || fail "offline last_obs diverge"

# ---------------------------------------------------------------- 2 --
echo "serve_smoke: [2/5] daemon + 4 parallel identical clients"
"$serve" serve --unix "$sock" --workers 2 2>"$tmp/daemon.log" &
daemon_pid=$!
for i in 1 2 3 4 5 6 7 8 9 10; do
    [ -S "$sock" ] && break
    sleep 0.2
done
[ -S "$sock" ] || fail "daemon did not come up (see $tmp/daemon.log)"

client_pids=
for i in 1 2 3 4; do
    "$serve" client --unix "$sock" diverge "$workload" \
        --scale "$scale" --out "$tmp/served_$i.json" \
        2>"$tmp/client_$i.log" &
    client_pids="$client_pids $!"
done
wait_status=0
for pid in $client_pids; do
    wait "$pid" || wait_status=1
done
[ "$wait_status" -eq 0 ] || fail "a parallel client exited nonzero"

for i in 1 2 3 4; do
    cmp -s "$tmp/served_$i.json" "$tmp/offline.json" ||
        fail "served report $i differs from the offline artifact"
done
grep -q '"schema":"last-divergence-v2"' "$tmp/served_1.json" ||
    fail "served report is not a last-divergence-v2 payload"
grep -q '"PTXL"' "$tmp/served_1.json" ||
    fail "served report is missing the PTXL column"

# ---------------------------------------------------------------- 3 --
echo "serve_smoke: [3/5] one simulated ISA group, warm repeat adds none"
status=$("$serve" client --unix "$sock" status) || fail "status query"
echo "$status" | grep -q '"simulated_specs":3' ||
    fail "expected exactly one simulated ISA group (HSAIL+GCN3+PTXL), got: $status"

"$serve" client --unix "$sock" diverge "$workload" --scale "$scale" \
    --out "$tmp/warm.json" 2>"$tmp/warm.log" || fail "warm query"
cmp -s "$tmp/warm.json" "$tmp/offline.json" ||
    fail "warm served report differs from the offline artifact"
grep -q "served from cache" "$tmp/warm.log" ||
    fail "warm query was not served from the store"
status=$("$serve" client --unix "$sock" status) || fail "status query"
echo "$status" | grep -q '"simulated_specs":3' ||
    fail "warm query simulated something: $status"

# ---------------------------------------------------------------- 4 --
echo "serve_smoke: [4/5] malformed request, daemon survives"
garbage_out=$(printf 'this is not json\n' | timeout 10 \
    python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(sys.stdin.buffer.read())
print(s.makefile().readline(), end="")
' "$sock") || fail "raw garbage round-trip"
echo "$garbage_out" | grep -q '"error_kind":"parse"' ||
    fail "garbage line did not get a structured parse error"
kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on garbage input"
"$serve" client --unix "$sock" ping >/dev/null || fail "post-garbage ping"

# ---------------------------------------------------------------- 5 --
echo "serve_smoke: [5/5] clean shutdown, no leaked socket"
"$serve" client --unix "$sock" shutdown >/dev/null || fail "shutdown"
for i in 1 2 3 4 5 6 7 8 9 10; do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.2
done
kill -0 "$daemon_pid" 2>/dev/null && fail "daemon still running"
wait "$daemon_pid" 2>/dev/null
daemon_pid=
[ -e "$sock" ] && fail "leaked socket file $sock"

echo "serve_smoke: OK"
exit 0
