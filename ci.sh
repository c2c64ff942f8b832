#!/usr/bin/env bash
# Hermetic CI: the workspace must build, test, and bench-compile with no
# network and no registry. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== guard: workspace dependencies are path-only =="
# `cargo tree` prints registry packages as `name vX.Y.Z` with no source
# suffix, path packages as `name vX.Y.Z (/abs/path)`. Any dependency
# line lacking a local-path suffix means someone reintroduced a
# registry/git dependency — fail loudly before the build masks it with
# a cached copy.
# A dependency that cannot resolve offline (i.e. a registry dep with no
# cached copy) makes `cargo tree` itself fail, which must also fail the
# guard — so check its exit status before filtering.
tree=$(cargo tree --workspace --edges normal,build,dev --prefix none --offline)
non_path=$(printf '%s\n' "$tree" | sort -u | grep -v '^\s*$' | grep -v ' (/' || true)
if [[ -n "$non_path" ]]; then
    echo "error: non-path dependencies found:" >&2
    echo "$non_path" >&2
    exit 1
fi
echo "ok"

echo "== guard: one atomic-write site, one wire-field reader, one per-tile slot map, one error vocabulary, one liveness signal, and the platform's non-test size =="
# Every durable file goes through dfm_cache::blob::write_atomic. A
# second tmp+rename writer anywhere else is the duplication PR 12
# removed; fail before it can grow its own corruption paths. "Non-test"
# is everything before a file's first `#[cfg(test)]`, outside tests/
# and benches/.
non_test='FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t'
stray=$(find crates src -name '*.rs' ! -path '*/tests/*' ! -path '*/benches/*' \
        ! -path crates/cache/src/blob.rs -print0 |
    xargs -0 awk "$non_test"' && /fs::rename|with_extension\("tmp"\)/{print FILENAME":"FNR": "$0}')
renames=$(awk "$non_test"' && /fs::rename\(/' crates/cache/src/blob.rs | wc -l)
if [[ -n "$stray" || "$renames" -ne 1 ]]; then
    echo "error: atomic writes belong in crates/cache/src/blob.rs (exactly one fs::rename):" >&2
    echo "$stray" >&2
    echo "fs::rename call sites in blob.rs: $renames" >&2
    exit 1
fi
# The figure ISSUE 12's "less code" criterion is measured by (7 836
# before the sealed-blob/resolve_tile collapse).
find crates/signoff/src crates/cache/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"'{n++} END{print "signoff+cache non-test lines: " n}'
# ISSUE 15's figure (1 036 before the one-reader rewrite), and its
# rule: every protocol and spec field is decoded by codec::Fields, so a
# raw `.get("` chain in either decoder is a second field reader with its
# own idea of what absent, null and mistyped mean.
awk "$non_test"'{n++} END{print "crates/signoff/src/proto.rs non-test lines: " n}' \
    crates/signoff/src/proto.rs
raw_get=$(awk "$non_test"' && /\.get\("/{print FILENAME":"FNR": "$0}' \
    crates/signoff/src/proto.rs crates/signoff/src/spec.rs)
if [[ -n "$raw_get" ]]; then
    echo "error: wire fields are read through codec::Fields (req/opt/nullable), not .get(\"…\"):" >&2
    echo "$raw_get" >&2
    exit 1
fi
# ISSUE 16's figure (1 909 before the seven per-tile collections of
# `JobMut` became one slot map inside `Run`), and its rule: a job
# remembers each tile in exactly one place, so neither struct may
# declare a second collection keyed by tile index.
awk "$non_test"'{n++} END{print "service.rs + service/{commit,attempt}.rs non-test lines: " n}' \
    crates/signoff/src/service.rs crates/signoff/src/service/commit.rs \
    crates/signoff/src/service/attempt.rs
per_tile=$(awk "$non_test"' && /^(pub(\([a-z]+\))? )?struct (JobMut|Run) /{s=$0; n=0}
    s && /(BTreeMap<usize,|BTreeSet<usize>|VecDeque<usize>)/{n++}
    s && /^}/{if (n > 1) print s " declares " n " per-tile collections"; s=""}' \
    crates/signoff/src/service/commit.rs)
if [[ -n "$per_tile" ]]; then
    echo "error: per-tile state lives in the one slot map of service/commit.rs:" >&2
    echo "$per_tile" >&2
    exit 1
fi
# ISSUE 18's figure (2 501 before `Rejection`, `SubmitError`,
# `classify` and the untyped client entry points were folded into
# `ErrorObj { code: ErrorCode, .. }`), and its rule: a failure gets its
# code where it happens, as an enum variant, and nothing downstream
# decides one from text — no message-prefix match, no comparison of a
# code with a string literal, no `ErrorObj` built from a `&str` code.
awk "$non_test"'{n++} END{print "client.rs + server.rs + service.rs + sched.rs non-test lines: " n}' \
    crates/signoff/src/client.rs crates/signoff/src/server.rs \
    crates/signoff/src/service.rs crates/signoff/src/sched.rs
code_from_text=$(find crates/signoff/src src/bin -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /starts_with\("no such|\.code\.as_str\(\)|\.code *[=!]= *"|" *[=!]= *[a-z_.]*\.code\>|ErrorObj::coded\( *"|\<code: *"/{print FILENAME":"FNR": "$0}')
if [[ -n "$code_from_text" ]]; then
    echo "error: an error code is an ErrorCode variant chosen where the failure happens, never read off text:" >&2
    echo "$code_from_text" >&2
    exit 1
fi
# ISSUE 13's figure: 824 before nested regions went inline and the
# streaming/ordered reducers and unsupervised submits were deleted.
awk "$non_test"'{n++} END{print "crates/par/src/lib.rs non-test lines: " n}' crates/par/src/lib.rs
# The shard puller's figure (610 before the heartbeat frame and the
# lease clock were deleted), and its rule: an answered `shard.pull` is
# the only liveness signal, so no non-test line of the platform or the
# fault registry names a heartbeat, and the virtual watchdog budget
# belongs to tile attempts alone.
awk "$non_test"'{n++} END{print "crates/signoff/src/shard.rs non-test lines: " n}' \
    crates/signoff/src/shard.rs
second_clock=$(find crates/signoff/src crates/fault/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && (tolower($0) ~ /heartbeat/ ||
        (/WATCHDOG_VMS/ && FILENAME != "crates/signoff/src/service/attempt.rs")) {
        print FILENAME":"FNR": "$0}')
if [[ -n "$second_clock" ]]; then
    echo "error: a shard is alive while it answers its pulls; no heartbeat, no lease clock:" >&2
    echo "$second_clock" >&2
    exit 1
fi

echo "== lint (clippy, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== build (release, offline) =="
cargo build --release --offline

echo "== benchmark package builds against the workspace API (offline, locked) =="
# `benchmark/` is its own workspace with a pinned lockfile and path
# deps on crates/*: pruning a pub item it links against, or adding a
# dependency edge, must fail here rather than in the benchmark
# pipeline. One short workload run proves it still computes the right
# bytes, and nothing it does may dirty the pinned files.
cargo test --offline --locked --manifest-path benchmark/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload shard_2x1 --seed 11 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct":true'
# `wire_warm` is the one workload that is all wire (proto, codec,
# server, client), so a traced second of it also proves the JSON reader
# and writer round-trip real frames. Its two codec figures are echoed
# as a record only: one traced run is too noisy to gate on.
wire=$(cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload wire_warm --seed 11 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct":true' <<<"$wire"
grep -o '"\(proto.submit_decode_ms\|codec.parse_json_mb_per_s\)":{[^}]*}' <<<"$wire" |
    sed 's/^/wire_warm (record, not gated): /' || true
if [[ -n "$(git status --porcelain benchmark/ BENCHMARK.json)" ]]; then
    echo "error: benchmark/ or BENCHMARK.json changed:" >&2
    git status --porcelain benchmark/ BENCHMARK.json >&2
    exit 1
fi

echo "== test (offline, DFM_THREADS=1) =="
DFM_THREADS=1 cargo test -q --workspace --offline

echo "== test (offline, DFM_THREADS=4) =="
# Same suite under a parallel pool: the determinism contract says the
# results — including every golden digest — must not change.
DFM_THREADS=4 cargo test -q --workspace --offline

echo "== benches compile (offline) =="
cargo bench --no-run --offline

echo "== tiled signoff bench + gauges (offline) =="
# Pins the tiled full-deck DRC bench in the JSON report, including the
# peak-per-tile working-set gauges that back the "never materialises a
# full layer" claim. The tiled-vs-flat equivalence suites themselves
# run above, under both thread counts, each at two tile sizes.
# Bench binaries run with the package dir as cwd, so pass an absolute
# report path.
DFM_BENCH_JSON="$PWD/target/tiled-bench.json" \
    cargo bench -p dfm-bench --bench engines --offline -- tiled_drc
grep -q '"gauges"' target/tiled-bench.json

echo "== signoff kill-and-resume smoke (offline, loopback only) =="
# Boots the signoff server on an ephemeral loopback port, submits a
# job, kills the server mid-run with SIGKILL, restarts it over the same
# checkpoint directory, resumes, and requires the final report to be
# byte-identical to the flat single-shot engines. This is the
# checkpoint/resume contract exercised across a real process death.
BIN=target/release/dfm-signoff
SPEC_FLAGS=(--tile 1700 --halo 64 --litho-layer 4/0)
WORK=$(mktemp -d)
SERVER=""
SHARD_A=""
SHARD_B=""
COORD=""
cleanup() {
    for P in "$SERVER" "$SHARD_A" "$SHARD_B" "$COORD"; do
        if [[ -n "$P" ]]; then kill -9 "$P" 2>/dev/null || true; fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT
"$BIN" gen --out "$WORK/block.gds" --width 6000 --height 6000 --seed 7 >/dev/null
"$BIN" flat-report --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" >"$WORK/flat.txt"

# First life: slowed tiles so the SIGKILL lands mid-run, after at least
# one tile has been checkpointed.
DFM_SIGNOFF_TILE_DELAY_MS=60 "$BIN" serve --threads 2 --port 0 \
    --ckpt "$WORK/ckpt" --port-file "$WORK/port" >/dev/null &
SERVER=$!
for _ in $(seq 100); do [[ -s "$WORK/port" ]] && break; sleep 0.05; done
PORT=$(cat "$WORK/port")
JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
for _ in $(seq 200); do
    compgen -G "$WORK/ckpt/job-$JOB/tile-*.bin" >/dev/null && break
    sleep 0.05
done
compgen -G "$WORK/ckpt/job-$JOB/tile-*.bin" >/dev/null
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true

# Second life: full speed. The job reloads from disk as partial; resume
# recomputes exactly the missing tiles.
"$BIN" serve --threads 4 --port 0 --ckpt "$WORK/ckpt" --port-file "$WORK/port2" >/dev/null &
SERVER=$!
for _ in $(seq 100); do [[ -s "$WORK/port2" ]] && break; sleep 0.05; done
PORT=$(cat "$WORK/port2")
"$BIN" resume --addr "127.0.0.1:$PORT" --job "$JOB" >/dev/null
"$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/resumed.txt"
"$BIN" shutdown --addr "127.0.0.1:$PORT"
wait "$SERVER" 2>/dev/null || true
SERVER=""
diff "$WORK/flat.txt" "$WORK/resumed.txt"
echo "ok: resumed report is byte-identical to the flat run"

echo "== fault-injection smoke (offline, loopback only) =="
# Two deterministic fault plans through the real server, each at a
# 1-thread and a 4-thread pool:
#  * retry.plan — every tile's first attempt panics; the supervisor
#    retries, the job ends 'done', and the report must be byte-identical
#    to the no-fault flat run (faults below the quarantine threshold are
#    invisible in the bytes).
#  * quarantine.plan — tile 1 panics on every attempt; the job must
#    settle 'partial' (never bare 'failed') with a manifest naming
#    exactly tile 1.
# Both runs must also agree with each other byte-for-byte across thread
# counts — events included (the fixed-plan determinism contract).
cat >"$WORK/retry.plan" <<'EOF'
seed 11
rule signoff.tile.compute panic attempt<1
EOF
cat >"$WORK/quarantine.plan" <<'EOF'
seed 11
rule signoff.tile.compute panic key=1
EOF
for PLAN in retry quarantine; do
    for T in 1 4; do
        PORTF="$WORK/port-$PLAN-$T"
        DFM_THREADS=$T "$BIN" serve --threads "$T" --port 0 --port-file "$PORTF" \
            --fault-plan "$WORK/$PLAN.plan" >/dev/null &
        SERVER=$!
        for _ in $(seq 100); do [[ -s "$PORTF" ]] && break; sleep 0.05; done
        PORT=$(cat "$PORTF")
        JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
        # Exit-code contract: a quarantined job settles partial and
        # `results --wait` says so with exit 2; a clean job exits 0.
        rc=0
        "$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/$PLAN-$T.txt" || rc=$?
        if [[ "$PLAN" == quarantine ]]; then [[ $rc -eq 2 ]]; else [[ $rc -eq 0 ]]; fi
        "$BIN" status --addr "127.0.0.1:$PORT" --job "$JOB" >"$WORK/$PLAN-$T.status"
        "$BIN" events --addr "127.0.0.1:$PORT" --job "$JOB" >"$WORK/$PLAN-$T.events"
        "$BIN" shutdown --addr "127.0.0.1:$PORT"
        wait "$SERVER" 2>/dev/null || true
        SERVER=""
    done
    diff "$WORK/$PLAN-1.txt" "$WORK/$PLAN-4.txt"
    diff "$WORK/$PLAN-1.events" "$WORK/$PLAN-4.events"
done
grep -q ": done tiles" "$WORK/retry-1.status"
diff "$WORK/flat.txt" "$WORK/retry-1.txt"
grep -q " retry " "$WORK/retry-1.events"
grep -q ": partial tiles" "$WORK/quarantine-1.status"
grep -q "quarantined 1 " "$WORK/quarantine-1.status"
grep -q "^quarantine: 1 tiles excluded$" "$WORK/quarantine-1.txt"
grep -q "^quarantine.tile 1: " "$WORK/quarantine-1.txt"
echo "ok: supervised retries keep the bytes; quarantine settles partial with a manifest"

echo "== warm-cache smoke (offline, loopback only) =="
# The content-addressed result cache must be invisible in the bytes and
# visible in the work: the same job twice on a cache-armed server, at a
# 1-thread and a 4-thread pool. Run 2 must report >0 cached tiles, both
# runs (and both thread counts) must agree byte-for-byte with each other
# and with the flat single-shot run, and the cache store itself must
# verify clean.
for T in 1 4; do
    PORTF="$WORK/port-cache-$T"
    DFM_THREADS=$T "$BIN" serve --threads "$T" --port 0 --port-file "$PORTF" \
        --cache "$WORK/cache-$T" >/dev/null &
    SERVER=$!
    for _ in $(seq 100); do [[ -s "$PORTF" ]] && break; sleep 0.05; done
    PORT=$(cat "$PORTF")
    for RUN in 1 2; do
        JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
        "$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/cache-$T-run$RUN.txt"
        "$BIN" status --addr "127.0.0.1:$PORT" --job "$JOB" >"$WORK/cache-$T-run$RUN.status"
    done
    "$BIN" shutdown --addr "127.0.0.1:$PORT"
    wait "$SERVER" 2>/dev/null || true
    SERVER=""
    diff "$WORK/cache-$T-run1.txt" "$WORK/cache-$T-run2.txt"
    diff "$WORK/flat.txt" "$WORK/cache-$T-run1.txt"
    grep -q " cached 0 " "$WORK/cache-$T-run1.status"
    CACHED=$(sed -n 's/.* cached \([0-9][0-9]*\) .*/\1/p' "$WORK/cache-$T-run2.status")
    [[ "$CACHED" -gt 0 ]]
done
diff "$WORK/cache-1-run2.txt" "$WORK/cache-4-run2.txt"
"$BIN" cache stats --dir "$WORK/cache-1" | grep -q "^entries "
"$BIN" cache verify --dir "$WORK/cache-1" | grep -q " removed 0$"
echo "ok: warm resubmission serves $CACHED tiles from the cache, bytes unchanged"

echo "== cache verify flags corruption (offline, exit-code contract) =="
# Flip bytes in one sealed entry: `cache verify` must repair it AND
# exit non-zero (3), so a pipeline cannot silently pass over bit-rot.
# A second verify over the repaired store is clean again and exits 0.
ENTRY=$(find "$WORK/cache-1" -name 'e-*.bin' -type f | sort | head -1)
[[ -n "$ENTRY" ]]
printf 'bit-rot' >>"$ENTRY"
rc=0
"$BIN" cache verify --dir "$WORK/cache-1" >"$WORK/verify-corrupt.out" || rc=$?
[[ $rc -eq 3 ]]
! grep -q " removed 0$" "$WORK/verify-corrupt.out"
"$BIN" cache verify --dir "$WORK/cache-1" | grep -q " removed 0$"
echo "ok: corruption is repaired and reported with exit 3"

echo "== score + auto-fix smoke (offline, exit-code contract) =="
# `score` emits one deterministic JSON line and exits by the contract
# (0 pass / 1 below threshold / 2 partial / 3 error). `fix` runs the
# greedy auto-fix search, resubmits through the same cache-armed
# service, and reports score before/after plus how many tiles each pass
# recomputed — a warm rerun of the whole loop must recompute nothing.
SCORE_CACHE="$WORK/score-cache"
"$BIN" score --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" --cache "$SCORE_CACHE" >"$WORK/score-cold.json"
"$BIN" score --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" --cache "$SCORE_CACHE" >"$WORK/score-warm.json"
diff "$WORK/score-cold.json" "$WORK/score-warm.json"
grep -q '"score":' "$WORK/score-cold.json"
"$BIN" fix --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" --cache "$SCORE_CACHE" \
    --out "$WORK/fixed.gds" >"$WORK/fix1.json"
grep -q '"changed":true' "$WORK/fix1.json"
[[ -s "$WORK/fixed.gds" ]]
# The kept techniques must strictly improve the aggregate score.
awk -F'"score_before":|,"score_after":|,"delta":' '{ exit !($3 > $2) }' "$WORK/fix1.json"
# Pass 1 of the fix rode the warm cache from the score runs above.
grep -q '"before":{"tiles_total":[0-9]*,"tiles_cached":[0-9]*,"tiles_recomputed":0}' "$WORK/fix1.json"
# Rerunning the whole loop against the same cache is pure cache
# traffic: both passes report zero recomputed tiles.
"$BIN" fix --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" --cache "$SCORE_CACHE" >"$WORK/fix2.json"
[[ $(grep -o '"tiles_recomputed":0' "$WORK/fix2.json" | wc -l) -eq 2 ]]
# Exit-code contract: a pass threshold the layout cannot meet exits 1;
# an operational error exits 3.
printf 'pass 1.0\nmetric via.redundancy weight 1 scorer identity\n' >"$WORK/strict.spec"
rc=0
"$BIN" score --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}" --score "$WORK/strict.spec" >/dev/null || rc=$?
[[ $rc -eq 1 ]]
rc=0
"$BIN" score --gds "$WORK/does-not-exist.gds" >/dev/null 2>&1 || rc=$?
[[ $rc -eq 3 ]]
echo "ok: fix improves the score; warm reruns recompute nothing; exit codes hold"

echo "== multi-tenant scheduler smoke (offline, loopback only) =="
# A tenant plan through the real server at a 1-thread and a 4-thread
# pool: three jobs across two tenants must all complete with reports
# byte-identical to each other across thread counts and to the flat
# run, an over-quota submission must be bounced with a parseable v2
# error object and CLI exit 4, and per-job event streams must agree
# across thread counts (the scheduler is invisible in the bytes).
cat >"$WORK/tenants.conf" <<'EOF'
tenant acme weight 2 max_jobs 2
tenant beta weight 1 max_jobs 1
global max_inflight 4
EOF
for T in 1 4; do
    PORTF="$WORK/port-mt-$T"
    DFM_SIGNOFF_TILE_DELAY_MS=40 DFM_THREADS=$T "$BIN" serve --threads "$T" \
        --port 0 --port-file "$PORTF" --tenants "$WORK/tenants.conf" >/dev/null &
    SERVER=$!
    for _ in $(seq 100); do [[ -s "$PORTF" ]] && break; sleep 0.05; done
    PORT=$(cat "$PORTF")
    J1=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" \
        "${SPEC_FLAGS[@]}" --tenant acme --priority 3)
    J2=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" \
        "${SPEC_FLAGS[@]}" --tenant beta)
    J3=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" \
        "${SPEC_FLAGS[@]}" --tenant acme)
    # beta allows one active job; a second must be refused with the
    # structured code, a retry hint, and exit code 4 — backpressure a
    # client can parse and act on.
    rc=0
    "$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" \
        "${SPEC_FLAGS[@]}" --tenant beta >"$WORK/mt-$T-reject.json" 2>/dev/null || rc=$?
    [[ $rc -eq 4 ]]
    grep -q '"code":"quota_exceeded"' "$WORK/mt-$T-reject.json"
    grep -q '"retry_after_vms":' "$WORK/mt-$T-reject.json"
    for JOB in "$J1" "$J2" "$J3"; do
        "$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait \
            >"$WORK/mt-$T-job$JOB.txt"
        "$BIN" events --addr "127.0.0.1:$PORT" --job "$JOB" >"$WORK/mt-$T-job$JOB.events"
    done
    "$BIN" status --addr "127.0.0.1:$PORT" --job "$J1" >"$WORK/mt-$T.status"
    grep -q "tenant acme prio 3" "$WORK/mt-$T.status"
    "$BIN" shutdown --addr "127.0.0.1:$PORT"
    wait "$SERVER" 2>/dev/null || true
    SERVER=""
done
for JOB in 1 2 3; do
    diff "$WORK/mt-1-job$JOB.txt" "$WORK/mt-4-job$JOB.txt"
    diff "$WORK/mt-1-job$JOB.events" "$WORK/mt-4-job$JOB.events"
    # The spec line carries the tenant/priority, so compare the
    # analysis body against the flat run modulo that one line.
    diff <(grep -v '^spec: ' "$WORK/flat.txt") \
         <(grep -v '^spec: ' "$WORK/mt-1-job$JOB.txt")
done
echo "ok: fair-share serving is byte-identical across thread counts; quotas bounce with exit 4"

echo "== multi-shard coordinator smoke (offline, loopback only) =="
# Two shard servers plus a coordinator speaking the v2 shard frames, at
# a 1-thread and a 4-thread pool: the coordinated report must be
# byte-identical across thread counts and to the flat single-process
# run, events included — the cluster is invisible in the bytes. Then
# both failure legs, each across a real process death:
#  * SIGKILL one shard mid-job — the coordinator re-dispatches the lost
#    range to the survivor and the bytes still match flat.
#  * SIGKILL the coordinator mid-job — a fresh `coordinate` over the
#    same checkpoint root reattaches to the still-running shards,
#    resumes, and renders the same bytes.
for T in 1 4; do
    PA="$WORK/port-sa-$T"; PB="$WORK/port-sb-$T"; PC="$WORK/port-co-$T"
    DFM_THREADS=$T "$BIN" serve --threads "$T" --port 0 --port-file "$PA" \
        --shard-of 0/2 >/dev/null &
    SHARD_A=$!
    DFM_THREADS=$T "$BIN" serve --threads "$T" --port 0 --port-file "$PB" \
        --shard-of 1/2 >/dev/null &
    SHARD_B=$!
    for F in "$PA" "$PB"; do
        for _ in $(seq 100); do [[ -s "$F" ]] && break; sleep 0.05; done
    done
    DFM_THREADS=$T "$BIN" coordinate \
        --shards "127.0.0.1:$(cat "$PA"),127.0.0.1:$(cat "$PB")" \
        --threads "$T" --port 0 --port-file "$PC" >/dev/null &
    COORD=$!
    for _ in $(seq 100); do [[ -s "$PC" ]] && break; sleep 0.05; done
    PORT=$(cat "$PC")
    JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
    "$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/shard-$T.txt"
    "$BIN" events --addr "127.0.0.1:$PORT" --job "$JOB" >"$WORK/shard-$T.events"
    "$BIN" shutdown --addr "127.0.0.1:$PORT"
    wait "$COORD" 2>/dev/null || true; COORD=""
    for F in "$PA" "$PB"; do "$BIN" shutdown --addr "127.0.0.1:$(cat "$F")"; done
    wait "$SHARD_A" 2>/dev/null || true; SHARD_A=""
    wait "$SHARD_B" 2>/dev/null || true; SHARD_B=""
    diff "$WORK/flat.txt" "$WORK/shard-$T.txt"
done
diff "$WORK/shard-1.events" "$WORK/shard-4.events"
echo "ok: coordinated runs are byte-identical to the flat run at both thread counts"

# Shard death mid-job: slowed tiles so the SIGKILL lands while the
# survivor still has work; the lost range must be re-dispatched and the
# final report must still match the flat bytes.
PA="$WORK/port-sa-kill"; PB="$WORK/port-sb-kill"; PC="$WORK/port-co-kill"
DFM_SIGNOFF_TILE_DELAY_MS=100 "$BIN" serve --threads 2 --port 0 --port-file "$PA" \
    --shard-of 0/2 >/dev/null &
SHARD_A=$!
DFM_SIGNOFF_TILE_DELAY_MS=100 "$BIN" serve --threads 2 --port 0 --port-file "$PB" \
    --shard-of 1/2 >/dev/null &
SHARD_B=$!
for F in "$PA" "$PB"; do
    for _ in $(seq 100); do [[ -s "$F" ]] && break; sleep 0.05; done
done
"$BIN" coordinate --shards "127.0.0.1:$(cat "$PA"),127.0.0.1:$(cat "$PB")" \
    --threads 2 --port 0 --port-file "$PC" >/dev/null &
COORD=$!
for _ in $(seq 100); do [[ -s "$PC" ]] && break; sleep 0.05; done
PORT=$(cat "$PC")
JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
# Wait until merging is underway but far from done, then kill shard 0.
for _ in $(seq 100); do
    N=$("$BIN" events --addr "127.0.0.1:$PORT" --job "$JOB" | wc -l)
    [[ "$N" -ge 2 ]] && break
    sleep 0.05
done
kill -9 "$SHARD_A"
wait "$SHARD_A" 2>/dev/null || true; SHARD_A=""
"$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/shard-kill.txt"
"$BIN" shutdown --addr "127.0.0.1:$PORT"
wait "$COORD" 2>/dev/null || true; COORD=""
"$BIN" shutdown --addr "127.0.0.1:$(cat "$PB")"
wait "$SHARD_B" 2>/dev/null || true; SHARD_B=""
diff "$WORK/flat.txt" "$WORK/shard-kill.txt"
echo "ok: shard death re-dispatches to the survivor, bytes unchanged"

# Coordinator death mid-job: the restarted coordinator derives the same
# identity from the checkpoint root, reattaches to the shards' retained
# jobs, and replays from its last merged prefix.
PA="$WORK/port-sa-re"; PB="$WORK/port-sb-re"; PC="$WORK/port-co-re"
DFM_SIGNOFF_TILE_DELAY_MS=100 "$BIN" serve --threads 2 --port 0 --port-file "$PA" \
    --shard-of 0/2 >/dev/null &
SHARD_A=$!
DFM_SIGNOFF_TILE_DELAY_MS=100 "$BIN" serve --threads 2 --port 0 --port-file "$PB" \
    --shard-of 1/2 >/dev/null &
SHARD_B=$!
for F in "$PA" "$PB"; do
    for _ in $(seq 100); do [[ -s "$F" ]] && break; sleep 0.05; done
done
SHARDS="127.0.0.1:$(cat "$PA"),127.0.0.1:$(cat "$PB")"
"$BIN" coordinate --shards "$SHARDS" --threads 2 --port 0 --port-file "$PC" \
    --ckpt "$WORK/coord-ckpt" >/dev/null &
COORD=$!
for _ in $(seq 100); do [[ -s "$PC" ]] && break; sleep 0.05; done
PORT=$(cat "$PC")
JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
for _ in $(seq 200); do
    compgen -G "$WORK/coord-ckpt/job-$JOB/tile-*.bin" >/dev/null && break
    sleep 0.05
done
compgen -G "$WORK/coord-ckpt/job-$JOB/tile-*.bin" >/dev/null
kill -9 "$COORD"
wait "$COORD" 2>/dev/null || true; COORD=""
"$BIN" coordinate --shards "$SHARDS" --threads 2 --port 0 --port-file "$PC.2" \
    --ckpt "$WORK/coord-ckpt" >/dev/null &
COORD=$!
for _ in $(seq 100); do [[ -s "$PC.2" ]] && break; sleep 0.05; done
PORT=$(cat "$PC.2")
"$BIN" resume --addr "127.0.0.1:$PORT" --job "$JOB" >/dev/null
"$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/shard-resumed.txt"
"$BIN" shutdown --addr "127.0.0.1:$PORT"
wait "$COORD" 2>/dev/null || true; COORD=""
for F in "$PA" "$PB"; do "$BIN" shutdown --addr "127.0.0.1:$(cat "$F")"; done
wait "$SHARD_A" 2>/dev/null || true; SHARD_A=""
wait "$SHARD_B" 2>/dev/null || true; SHARD_B=""
diff "$WORK/flat.txt" "$WORK/shard-resumed.txt"
echo "ok: restarted coordinator reattaches and replays, bytes unchanged"

echo "== graceful drain smoke (offline, loopback only) =="
# `shutdown --drain` must finish and checkpoint the in-flight tiles
# before acknowledging — so the second life resumes from a non-empty
# durable prefix and still renders the flat bytes.
DFM_SIGNOFF_TILE_DELAY_MS=60 "$BIN" serve --threads 2 --port 0 \
    --ckpt "$WORK/drain-ckpt" --port-file "$WORK/drain-port" >/dev/null &
SERVER=$!
for _ in $(seq 100); do [[ -s "$WORK/drain-port" ]] && break; sleep 0.05; done
PORT=$(cat "$WORK/drain-port")
JOB=$("$BIN" submit --addr "127.0.0.1:$PORT" --gds "$WORK/block.gds" "${SPEC_FLAGS[@]}")
for _ in $(seq 200); do
    compgen -G "$WORK/drain-ckpt/job-$JOB/tile-*.bin" >/dev/null && break
    sleep 0.05
done
"$BIN" shutdown --addr "127.0.0.1:$PORT" --drain
wait "$SERVER" 2>/dev/null || true
SERVER=""
# The drain ack means the in-flight tiles reached disk before exit.
compgen -G "$WORK/drain-ckpt/job-$JOB/tile-*.bin" >/dev/null
"$BIN" serve --threads 4 --port 0 --ckpt "$WORK/drain-ckpt" \
    --port-file "$WORK/drain-port2" >/dev/null &
SERVER=$!
for _ in $(seq 100); do [[ -s "$WORK/drain-port2" ]] && break; sleep 0.05; done
PORT=$(cat "$WORK/drain-port2")
"$BIN" resume --addr "127.0.0.1:$PORT" --job "$JOB" >/dev/null
"$BIN" results --addr "127.0.0.1:$PORT" --job "$JOB" --wait >"$WORK/drained.txt"
"$BIN" shutdown --addr "127.0.0.1:$PORT"
wait "$SERVER" 2>/dev/null || true
SERVER=""
diff "$WORK/flat.txt" "$WORK/drained.txt"
echo "ok: drained shutdown hands off cleanly; resumed bytes match flat"

echo "== crash-simulation matrix (offline, deterministic) =="
# The dfm-sim harness kills-and-restarts the whole stack at every
# registered crash site and re-runs its robustness scenarios, asserting
# byte-identity to the crash-free golden run. The transcript must be
# byte-identical across worker counts — determinism under crashes is
# the same contract as determinism under threads.
# dfm-sim is no dependency of the root package, so the release build
# above does not produce its binary.
cargo build --release --offline -p dfm-sim
SIM=target/release/dfm-sim
DFM_THREADS=1 "$SIM" --seed 7 --root "$WORK/sim-t1" >"$WORK/sim-1.txt"
DFM_THREADS=4 "$SIM" --seed 7 --root "$WORK/sim-t4" >"$WORK/sim-4.txt"
diff "$WORK/sim-1.txt" "$WORK/sim-4.txt"
grep -q "^result: PASS$" "$WORK/sim-1.txt"
grep -q "^sites covered: " "$WORK/sim-1.txt"
# One matching 4-thread run can be luck; ten more in a row make the
# transcript a repeatable gate rather than a sample.
for I in $(seq 10); do
    DFM_THREADS=4 "$SIM" --seed 7 --root "$WORK/sim-r$I" >"$WORK/sim-r$I.txt"
    diff "$WORK/sim-1.txt" "$WORK/sim-r$I.txt"
    grep -q "^result: PASS$" "$WORK/sim-r$I.txt"
    rm -rf "$WORK/sim-r$I"
done
echo "ok: every crash site recovers byte-identically at both worker counts, 11 of 11 at 4"

echo "CI OK"
