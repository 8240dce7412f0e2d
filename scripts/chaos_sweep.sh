#!/bin/sh
# Chaos harness for the crash-safe sweep orchestration (DESIGN.md §4e):
# injects the failures the supervisor exists to survive — worker
# crashes, torn worker output, the supervisor itself SIGKILLed
# mid-campaign, a shard cache truncated between runs — and asserts the
# campaign always converges to a merged cache byte-identical to the
# committed last_bench_cache.csv (and a divergence report identical to
# an uninterrupted run's). Finishes with the warm-resume check: a
# campaign whose parts all verify must skip every shard and simulate
# nothing.
#
# Usage: scripts/chaos_sweep.sh    (from the repo root)
#
# Exit status: 0 when every scenario converged byte-identically;
# nonzero (with a FAILED line) otherwise.
set -u

cd "$(dirname "$0")/.."
repo=$(pwd)

fail() {
    echo "chaos_sweep: FAILED: $1" >&2
    exit 1
}

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null ||
    fail "configure"
cmake --build build-perf -j "$(nproc)" --target last_sweep >/dev/null ||
    fail "build"
sweep=$repo/build-perf/tools/last_sweep

tmp=$(mktemp -d /tmp/last_chaos_XXXXXX) || fail "mktemp"
trap 'rm -rf "$tmp"' EXIT INT TERM

events() { # events DIR EVENT -> count of journal lines with that event
    if [ -f "$1/journal.jsonl" ]; then
        grep -c "\"event\":\"$2\"" "$1/journal.jsonl" || true
    else
        echo 0
    fi
}

# ---------------------------------------------------------------- 1 --
# Reference: an uninterrupted campaign. Its merged cache must be
# byte-identical to the committed sweep artifact, which every chaos
# scenario below is then measured against.
echo "chaos_sweep: [1/5] reference uninterrupted campaign"
"$sweep" orchestrate --shards 2 --work-dir "$tmp/ref" \
    --out "$tmp/ref/merged.csv" --diverge "$tmp/ref/diverge.json" \
    >/dev/null 2>&1 || fail "reference campaign"
cmp -s "$tmp/ref/merged.csv" last_bench_cache.csv ||
    fail "reference merge differs from committed last_bench_cache.csv"

# ---------------------------------------------------------------- 2 --
# Worker chaos: shard 0's first attempt crashes at startup (SIGKILL —
# the atomic writer guarantees it leaves nothing behind); shard 1's
# first attempt completes, then its output is truncated mid-file and
# it exits 0 anyway (a lying exit status over a torn artifact). The
# supervisor must distrust both — crash retried, truncation caught by
# verification — and the retries converge byte-identically.
echo "chaos_sweep: [2/5] worker crash + torn output"
cat > "$tmp/chaos.sh" <<'EOF'
#!/bin/sh
# argv: $1 = real worker, $2... = its argv; $7 is the --out path.
real="$1"; shift
if [ "${LAST_CHAOS_ATTEMPT:-0}" = 1 ]; then
    if [ "${LAST_CHAOS_SHARD:-x}" = 0 ]; then
        kill -9 $$
    fi
    if [ "${LAST_CHAOS_SHARD:-x}" = 1 ]; then
        "$real" "$@" || exit $?
        out="$6"
        half=$(( $(wc -c < "$out") / 2 ))
        head -c "$half" "$out" > "$out.torn" && mv "$out.torn" "$out"
        exit 0
    fi
fi
exec "$real" "$@"
EOF
chmod +x "$tmp/chaos.sh"
"$sweep" orchestrate --shards 2 --work-dir "$tmp/chaos" \
    --out "$tmp/chaos/merged.csv" --diverge "$tmp/chaos/diverge.json" \
    --chaos-exec "$tmp/chaos.sh" --backoff-ms 10 --poll-ms 10 \
    >/dev/null 2>&1 || fail "chaos campaign did not converge"
cmp -s "$tmp/chaos/merged.csv" last_bench_cache.csv ||
    fail "chaos merge differs from committed last_bench_cache.csv"
cmp -s "$tmp/chaos/diverge.json" "$tmp/ref/diverge.json" ||
    fail "chaos divergence report differs from the reference"
[ "$(events "$tmp/chaos" failed)" -ge 2 ] ||
    fail "journal did not record both injected failures"

# ---------------------------------------------------------------- 3 --
# Supervisor killed mid-campaign: SIGKILL the supervisor once the
# journal records the first shard as done (reaping its orphaned
# workers via the pids the journal recorded), then --resume. The
# finished shard's cache verifies and is skipped; only the unfinished
# one re-runs.
echo "chaos_sweep: [3/5] supervisor SIGKILL mid-campaign + resume"
"$sweep" orchestrate --shards 2 --work-dir "$tmp/kill" \
    --out "$tmp/kill/merged.csv" --poll-ms 10 >/dev/null 2>&1 &
pid=$!
i=0
while [ "$(events "$tmp/kill" done)" -lt 1 ]; do
    kill -0 "$pid" 2>/dev/null || fail "supervisor exited before kill"
    i=$((i + 1))
    [ "$i" -le 600 ] || fail "no shard finished within 60s"
    sleep 0.1
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
sed -n 's/.*"pid":\([0-9][0-9]*\).*/\1/p' "$tmp/kill/journal.jsonl" |
    xargs -r kill -9 2>/dev/null
sleep 0.2 # let any just-shot orphan disappear before the resume
[ -e "$tmp/kill/merged.csv" ] &&
    fail "merged cache exists even though the supervisor was killed"
"$sweep" orchestrate --shards 2 --work-dir "$tmp/kill" \
    --out "$tmp/kill/merged.csv" --resume >/dev/null 2>&1 ||
    fail "resume after supervisor kill"
cmp -s "$tmp/kill/merged.csv" last_bench_cache.csv ||
    fail "post-kill resume differs from committed last_bench_cache.csv"
[ "$(events "$tmp/kill" skipped)" -ge 1 ] ||
    fail "resume re-ran a shard whose cache verified"

# ---------------------------------------------------------------- 4 --
# Torn shard cache between runs: truncate one verified part, --resume.
# The strict loader rejects the torn part (the v6 eof trailer makes a
# cut at a row boundary detectable), that shard alone re-runs, and the
# merge is byte-identical again.
echo "chaos_sweep: [4/5] truncated shard cache + resume"
half=$(( $(wc -c < "$tmp/kill/part_0.csv") / 2 ))
head -c "$half" "$tmp/kill/part_0.csv" > "$tmp/kill/part_0.torn" &&
    mv "$tmp/kill/part_0.torn" "$tmp/kill/part_0.csv"
before_running=$(events "$tmp/kill" running)
"$sweep" orchestrate --shards 2 --work-dir "$tmp/kill" \
    --out "$tmp/kill/merged.csv" --resume >/dev/null 2>&1 ||
    fail "resume after part truncation"
cmp -s "$tmp/kill/merged.csv" last_bench_cache.csv ||
    fail "post-truncation resume differs from committed cache"
after_running=$(events "$tmp/kill" running)
[ "$((after_running - before_running))" -eq 1 ] ||
    fail "expected exactly one shard re-run, got $((after_running - before_running))"

# ---------------------------------------------------------------- 5 --
# Warm resume: every part verifies, so the campaign must skip both
# shards and spawn no worker at all — the crash-free fast path.
echo "chaos_sweep: [5/5] warm resume simulates nothing"
before_running=$(events "$tmp/kill" running)
"$sweep" orchestrate --shards 2 --work-dir "$tmp/kill" \
    --out "$tmp/kill/merged.csv" --resume >/dev/null 2>&1 ||
    fail "warm resume"
after_running=$(events "$tmp/kill" running)
[ "$after_running" -eq "$before_running" ] ||
    fail "warm resume spawned a worker"
[ "$(events "$tmp/kill" skipped)" -ge 3 ] ||
    fail "warm resume did not skip both shards"
cmp -s "$tmp/kill/merged.csv" last_bench_cache.csv ||
    fail "warm resume changed the merged cache"

# Bonus: permanent failure surfaces as exit 2 (quarantine rows), never
# as silence. The always-crashing worker burns no simulator time.
cat > "$tmp/die.sh" <<'EOF'
#!/bin/sh
kill -9 $$
EOF
chmod +x "$tmp/die.sh"
"$sweep" orchestrate --shards 2 --work-dir "$tmp/doomed" \
    --out "$tmp/doomed/merged.csv" --chaos-exec "$tmp/die.sh" \
    --max-attempts 2 --backoff-ms 5 --poll-ms 5 >/dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] ||
    fail "doomed campaign exited $rc, expected 2 (quarantine rows)"
grep -q "worker-crash" "$tmp/doomed/merged.csv" ||
    fail "doomed merge lacks synthesized worker-crash quarantine rows"

echo "chaos_sweep: OK"
