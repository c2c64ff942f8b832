#!/usr/bin/env bash
# Hermetic CI: the workspace must build and test with no network and no
# registry. Run from the repo root.
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

echo "== guard: one atomic-write site, one wire-field reader, one per-tile slot map, one error vocabulary, one liveness signal, one way to wait, one test harness, one DRC index, one kernel per certified rule, one grouping sweep, five grid indexes, five engine fork regions, four tile-view sites, and the platform's and the layout crate's non-test size =="
# Every durable file goes through dfm_cache::blob::write_atomic. A
# second tmp+rename writer anywhere else is the duplication PR 12
# removed; fail before it can grow its own corruption paths. "Non-test"
# is everything before a file's first `#[cfg(test)]`, outside tests/.
non_test='FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t'
stray=$(find crates src -name '*.rs' ! -path '*/tests/*' ! -path crates/cache/src/blob.rs -print0 |
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
# streaming/ordered reducers and unsupervised submits were deleted; 636
# (652 once rustfmt-formatted) before `par_chunks_mut`, which lost its
# last caller when the raster bands became plain loops, was deleted.
awk "$non_test"'{n++} END{print "crates/par/src/lib.rs non-test lines: " n}' crates/par/src/lib.rs
# The layout crate's figure: 2 704 (tile.rs 495), or 2 839 once
# rustfmt-formatted, while a tiling could be sourced from a flat layout or
# a library, with a layer filter, non-square tiles and a second hierarchy
# walk in Library::flatten; 2 770 before `gds::to_text` and
# `Library::instance_counts`, which had no caller, were deleted; 2 706
# before the `LayoutView` trait, which no tile caller used, went; 2 621
# before the windowed walk's shape index and lattice ranges (2 802).
awk "$non_test"'{n++} END{print "crates/layout/src non-test lines: " n}' crates/layout/src/*.rs
# One grid index: `GridIndex` is built once from its items into a dense
# bucket array and answers one query, so its non-test code names no
# hash map and no reusable searcher. The figure: 220 lines when it grew
# bucket by bucket into a HashMap and deduplicated through a Searcher.
awk "$non_test"'{n++} END{print "crates/geom/src/index.rs non-test lines: " n}' crates/geom/src/index.rs
second_index=$(awk "$non_test"' && /HashMap|Searcher/{print FILENAME":"FNR": "$0}' crates/geom/src/index.rs)
if [[ -n "$second_index" ]]; then
    echo "error: GridIndex is one dense index with one query; no HashMap buckets, no Searcher:" >&2
    echo "$second_index" >&2
    exit 1
fi
# One index per prepared layer: boundary edges come sorted along the axis
# a facing sweep or corner scan walks, so an edge's or a corner's
# partners are one run of its own list, and `dfm-drc` indexes only a
# layer's rects (`PreparedLayer::new`). The figure: `check.rs` was 764
# lines when a prepared layer also indexed its vertical and horizontal
# edges and each corner scan indexed its corners. `tiled.rs` is echoed
# next to it: the flat checks of `MinSpaceTo`, `Enclosure`, `WideSpace`
# and `Density` run the tile kernels over one whole-layout tile, and the
# two files were 713 + 915 = 1 628 lines while each of those rules had a
# flat body in `check.rs` and a tile body in `tiled.rs`.
awk "$non_test"'{n++} END{print "crates/drc/src/check.rs non-test lines: " n}' crates/drc/src/check.rs
awk "$non_test"'{n++} END{print "crates/drc/src/tiled.rs non-test lines: " n}' crates/drc/src/tiled.rs
drc_indexes=$(find crates/drc/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /GridIndex::new\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
echo "GridIndex::new( sites in crates/drc/src: $(grep -c . <<<"$drc_indexes")"
if [[ $(grep -c . <<<"$drc_indexes") -ne 1 ]]; then
    echo "error: dfm-drc builds one index, a prepared layer's rects; partners are runs of the sorted edge and corner lists:" >&2
    echo "$drc_indexes" >&2
    exit 1
fi
# One kernel per certified rule: a separation is measured only in the
# `MinSpaceTo` and `WideSpace` tile kernels and in `enclosure_margin`,
# which the flat checks reach through those kernels. The call sites were
# 5 while `check.rs` kept a flat twin of each kernel.
separations=$(find crates/drc/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /min_separation\(/ && !/fn min_separation\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
echo "min_separation( call sites in crates/drc/src: $(grep -c . <<<"$separations")"
if [[ $(grep -c . <<<"$separations") -ne 3 ]]; then
    echo "error: a certified rule is measured by its one tile kernel, which the flat check runs too:" >&2
    echo "$separations" >&2
    exit 1
fi
# One grouping sweep: "which rects lie within d of each other" is
# `dfm_geom::group_within` in `region.rs` — connected components, the
# via census, the redundant-via singles and the min-area merge all call
# it — so no other non-test file keeps a union-find. The workspace
# builds five grid indexes (the shape index, a prepared layer's rects,
# the Monte-Carlo components, the redundant-via components and cuts);
# it built 8 when `Region::interacting`, `classify` and `singles_of`
# each indexed their own rects. The figure: `region.rs` was 557 lines
# before the sweep became `group_within` and 586 after; deleting
# `interacting` and `not_interacting`, which nothing called, took it
# to 544.
awk "$non_test"'{n++} END{print "crates/geom/src/region.rs non-test lines: " n}' crates/geom/src/region.rs
finds=$(find crates/*/src src -name '*.rs' ! -path crates/geom/src/region.rs -print0 |
    xargs -0 awk "$non_test"' && /fn find\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
if [[ -n "$finds" ]]; then
    echo "error: rects within d of each other are grouped by dfm_geom::group_within; no second union-find:" >&2
    echo "$finds" >&2
    exit 1
fi
indexes=$(find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /GridIndex::new\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
echo "GridIndex::new( sites in crates/*/src and src: $(grep -c . <<<"$indexes")"
if [[ $(grep -c . <<<"$indexes") -ne 5 ]]; then
    echo "error: a grouping question goes through group_within, not a new index; say why another is needed and re-pin (5):" >&2
    echo "$indexes" >&2
    exit 1
fi
# Tiles are the parallel unit: the service's WorkerPool runs them, and
# a region entered on a pool worker runs inline. Inside the engines a
# `dfm_par::par_*` fork region is kept only where a flat top-level
# caller measured a gain on 2 cores (EXPERIMENTS.md, fork-region
# table): the per-rule DRC map, the anchor scan, post-litho extraction
# and two Monte-Carlo seed fan-outs. The anchor scan and the fan-outs
# were judged again against a region known to pay and one that forks
# nothing, and kept for good (EXPERIMENTS.md, "fork regions, judged for
# good"). The three raster bands went back to plain loops when the
# tap-major blur left each band a few hundred µs of work
# (EXPERIMENTS.md, "a blur that vectorises"). A new one arrives with
# its measurement and a new pin; a `use dfm_par` import counts as one
# more site, so the count cannot be dodged.
forks=$(find crates/drc/src crates/litho/src crates/yieldsim/src crates/pattern/src \
    crates/timing/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /dfm_par::par_|use dfm_par/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
echo "dfm_par::par_ fork regions in crates/{drc,litho,yieldsim,pattern,timing}/src: $(grep -c . <<<"$forks")"
if [[ $(grep -c . <<<"$forks") -ne 5 ]]; then
    echo "error: an engine fork region must pay on 2 cores; measure it and re-pin (5):" >&2
    echo "$forks" >&2
    exit 1
fi
# One prepared tile: a job materialises each distinct tile window once
# (JobContext::compute_tile) and every rule, CA and litho read their
# layers, edges and facing sweeps off it. The other three sites are the
# one-shot wrappers — `rule_tile_partial`, `ca_tile_partial`,
# `printed_tile_piece` — that build a consumer's own view for tests and
# the benchmark's replay (5 until `facing_pair_partial`, which had no
# caller outside tests, was deleted). A new per-rule view is work the
# prepared tile already did; it arrives with its reason and a new pin.
views=$(find crates/drc/src crates/yieldsim/src crates/litho/src crates/signoff/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /view_layers\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}')
echo "view_layers( sites in crates/{drc,yieldsim,litho,signoff}/src: $(grep -c . <<<"$views")"
if [[ $(grep -c . <<<"$views") -ne 4 ]]; then
    echo "error: tile views are built once per window in JobContext::compute_tile; say why another is needed and re-pin (4):" >&2
    echo "$views" >&2
    exit 1
fi
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
# One way to wait: a job's condvar answers `wait` and the `events` and
# `shard.pull` long polls, so the platform sleeps in exactly two places
# — a tile's `tile_delay` (service/attempt.rs) and the client's
# `real_sleep`, called only for reconnect backoff and admission
# `retry_after_vms` hints. Every `…sleep(` call counts, `real_sleep(`
# too: four sites (tile_delay, real_sleep's body, its two callers). No
# poll loop may sleep between requests again, and neither the pool nor
# the fault registry sleeps: an injected delay is virtual time.
sleeps=$(find crates/signoff/src crates/sim/src crates/par/src crates/fault/src -name '*.rs' -print0 |
    xargs -0 awk "$non_test"' && /sleep\(/ && !/fn [_[:alnum:]]*sleep\(/{print FILENAME":"FNR": "$0}')
echo "non-test sleep call sites in crates/{signoff,sim,par,fault}/src: $(grep -c . <<<"$sleeps")"
stray_sleeps=$(grep -v -e '^crates/signoff/src/service/attempt\.rs:' \
    -e '^crates/signoff/src/client\.rs:' <<<"$sleeps" || true)
if [[ -n "$stray_sleeps" || $(grep -c . <<<"$sleeps") -ne 4 ]]; then
    echo "error: wait on the job's condvar (events / shard.pull long-poll), do not sleep:" >&2
    echo "$sleeps" >&2
    exit 1
fi

# One test harness: the CLI contract is tests/cli_contract.rs, which waits
# on blocking `events` calls. Read as code (comments, quoted strings
# dropped), ci.sh has no `sleep` word and no `&` but `&&` and redirections,
# so no background server or poll loop can come back into bash.
test_sleeps=$(grep -c 'sleep(' tests/cli_contract.rs || true)
code=$(sed -E -e '/^[[:space:]]*#/d' -e "s/'[^']*'|\"[^\"]*\"//g" -e 's/[[:space:]]#.*//' ci.sh)
ci_sleeps=$(grep -c '\<sleep\>' <<<"$code" || true)
ci_spawns=$(sed -e 's/&&//g' -e 's/[<>|]&//g' -e 's/&>//g' <<<"$code" | grep -c '&' || true)
echo "sleep( calls in tests/cli_contract.rs: $test_sleeps; sleeps / background spawns in ci.sh: $ci_sleeps / $ci_spawns"
if [[ "$test_sleeps" -ne 0 || "$ci_sleeps" -ne 0 || "$ci_spawns" -ne 0 ]]; then
    echo "error: the CLI contract lives in tests/cli_contract.rs and waits on events, never a sleep" >&2
    exit 1
fi
echo "== format (rustfmt ratchet: dfm-geom, dfm-drc, dfm-litho, dfm-layout, dfm-par, dfm-yield, dfm-core, dfm-signoff, dfm-rand, dfm-dpt, dfm-check, dfm-timing, dfm-cache, dfm-score) =="
# These crates are rustfmt-clean; another crate joins the list in the
# change that formats it, so a formatting pass never lands as unrelated
# hunks in someone else's diff. Formatting dfm-signoff moved the platform
# figures echoed above: signoff+cache 7 467 → 8 038, proto.rs 784 → 889,
# service trio 1 957 → 2 218, client/server/service/sched 2 290 → 2 432,
# shard.rs 546 → 566; formatting dfm-cache moved signoff+cache 8 040 →
# 8 065.
cargo fmt --check -p dfm-geom -p dfm-drc -p dfm-litho -p dfm-layout -p dfm-par -p dfm-yield \
    -p dfm-core -p dfm-signoff -p dfm-rand -p dfm-dpt -p dfm-check -p dfm-timing -p dfm-cache \
    -p dfm-score

echo "== doc (rustdoc, -D warnings) =="
# Every library's docs build without a broken or private intra-doc
# link. `--lib` skips the `dfm-signoff` binary, whose doc output would
# share a file name with the library's.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

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
# `edit_resubmit` is the one workload whose jobs are warm but not whole:
# each one-square edit must hit 96-99 of 100 tiles through the
# service's raw-key memo and recompute the 1-4 it dirtied, and every
# 20th edit's report is compared with the flat path's, so a memo that
# answered with a wrong digest shows here as `"correct":false`.
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload edit_resubmit --seed 11 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct":true'
# `wire_warm` is the one workload that is all wire (proto, codec,
# server, client), so a traced second of it also proves the JSON reader
# and writer round-trip real frames. Its two codec figures are echoed
# as a record only: one traced run is too noisy to gate on.
wire=$(cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload wire_warm --seed 11 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct":true' <<<"$wire"
grep -o '"\(proto.submit_decode_ms\|codec.parse_json_mb_per_s\)":{[^}]*}' <<<"$wire" |
    sed 's/^/wire_warm (record, not gated): /' || true
# `tenants_mixed` is the one workload with two tenants contending. A
# plan without `global max_inflight` gets a grant window of the pool
# width (`min(nproc, 4)` threads here), so the pool's queue can never
# hold more than that: a hard bound, not a timing. The interactive
# tenant's slowdown behind `bulk` is echoed as a record only.
tenants=$(cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload tenants_mixed --seed 11 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct":true' <<<"$tenants"
width=$(( $(nproc) < 4 ? $(nproc) : 4 ))
peak=$(grep -o '"par.queue_depth_peak":{"value":[0-9.]*' <<<"$tenants" | grep -o '[0-9.]*$')
echo "tenants_mixed par.queue_depth_peak: $peak (bound: $width)"
if ! awk -v p="$peak" -v w="$width" 'BEGIN{exit !(p != "" && p <= w)}'; then
    echo "error: the pool queue outgrew the grant window (pool width $width)" >&2
    exit 1
fi
grep -o '"sched.inter_slowdown_x":{[^}]*}' <<<"$tenants" |
    sed 's/^/tenants_mixed (record, not gated): /' || true
# `cold_litho` is the one workload with litho on: its `correct` means
# the tiled printed layer (rasterise, blur, threshold per tile) merged
# to the flat path's bytes. The litho tile time and share are echoed as
# a record only.
litho=$(cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload cold_litho --seed 11 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct":true' <<<"$litho"
grep -o '"\(litho.tile_ms_p50\|attr.litho_share\)":{[^}]*}' <<<"$litho" |
    sed 's/^/cold_litho (record, not gated): /' || true
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

echo "== crash-simulation matrix (offline, deterministic) =="
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
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

echo "== fix: the in-design loop is byte-identical across worker counts =="
# `fix` scores a block through the service, runs the greedy auto-fix
# (redundant vias, wire spreading on METAL1 and METAL2, widening) on the
# flat engines and rescores. Neither the fixed GDS nor the verdict line
# may depend on the service's worker count. The wall time is a record,
# not gated.
BIN=target/release/dfm-signoff
"$BIN" gen --out "$WORK/fix-in.gds" --width 20000 --height 20000 --seed 11 >/dev/null
for T in 1 2; do
    start=$(date +%s%N)
    "$BIN" fix --gds "$WORK/fix-in.gds" --out "$WORK/fix-t$T.gds" --threads "$T" >"$WORK/fix-t$T.json"
    echo "fix --threads $T on the 20 µm seed-11 block (record, not gated): $(( ($(date +%s%N) - start) / 1000000 )) ms"
done
cmp "$WORK/fix-t1.gds" "$WORK/fix-t2.gds"
cmp "$WORK/fix-t1.json" "$WORK/fix-t2.json"

echo "CI OK"
