//! The traced run: one job per workload replayed by hand, on the calling
//! thread, through the layers' public functions, each call wrapped in a
//! span; plus the probes and comparison runs the per-layer metrics need.
//!
//! Three kinds of number come out of it:
//!
//! * **path metrics** — time and counts of the layers the workload's job
//!   passes through, read off the replay's spans. A layer that is not on
//!   the job's path reads 0 on that workload.
//! * **probes** — unit costs that do not depend on the workload's input
//!   (scheduler grant loop, pool round trip, JSON and hex throughput on a
//!   fixed buffer, ping) or that fill in an operation the path skipped
//!   (tile digests and partial encode/decode on uncached workloads).
//!   Probe spans carry job id 0 and never enter the attribution.
//! * **comparisons** — the same job on a 1-thread service (unattributed
//!   time), in-process (wire and shard overhead), alone (tenant slowdown).

use crate::spans::{self, Span, Tracer};
use crate::stats;
use crate::workloads::{self, Env, Phase, Served, Target};
use dfm_cache::{CacheKey, TileCache};
use dfm_drc::{rule_tile_partial, RulePartial};
use dfm_layout::{gds, TiledLayout, TilingConfig};
use dfm_litho::{Condition, LithoSimulator};
use dfm_par::{CancelToken, WorkerPool};
use dfm_signoff::checkpoint::JobDir;
use dfm_signoff::codec::{from_hex, parse_json, to_hex};
use dfm_signoff::proto::{Request, Response};
use dfm_signoff::sched::Scheduler;
use dfm_signoff::{
    decode_tile_partial, encode_tile_partial, Client, JobContext, JobSpec, JobStatus, SchedConfig,
    ServiceConfig, SignoffService, TileCacheMark, TileOutcome, TileOutcomeKind, TilePartial,
};
use dfm_yield::critical_area::ca_tile_partial;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Job id of the replayed job's spans; probes carry [`PROBE`].
const JOB: u64 = 1;
const PROBE: u64 = 0;
/// Edit indices no measured phase reaches, for the replays' own edits.
const REPLAY_EDIT: u64 = 1 << 40;

pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Σ self time per layer of the replayed job, in ms.
    pub layer_self_ms: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

/// Which protocol frames the workload's job crosses.
#[derive(Clone, Copy, PartialEq)]
enum Frames {
    None,
    /// `submit` in, `results` out.
    Wire,
    /// `shard.dispatch` to each of two shards, their outcome logs back.
    Shard,
}

/// What every replay pass of a workload shares.
struct Plan<'a> {
    spec: &'a JobSpec,
    cache: Option<&'a TileCache>,
    frames: Frames,
    /// A settled status to put in the `results` frame.
    status: &'a JobStatus,
}

#[derive(Default)]
struct Replayed {
    partials: Vec<TilePartial>,
    text: String,
    hits: u64,
    misses: u64,
    violations: usize,
    submit_frame_bytes: usize,
}

/// Replays one job of GDS `bytes`; `ctx` is the context of the same bytes
/// (rule deck, digests, merge).
fn replay(t: &mut Tracer, p: &Plan, bytes: &[u8], ctx: &JobContext) -> Replayed {
    t.set_job(JOB);
    t.span("replay", |t| {
        let mut out = Replayed::default();
        let shard_ranges = |n: usize| [(0, n / 2), (n / 2, n)];
        match p.frames {
            Frames::None => {}
            Frames::Wire => {
                let request = Request::Submit {
                    spec: p.spec.clone(),
                    gds: bytes.to_vec(),
                    idem: None,
                };
                out.submit_frame_bytes = frame_round_trip(t, &request);
            }
            Frames::Shard => {
                for range in shard_ranges(ctx.tile_count()) {
                    let request = Request::ShardDispatch {
                        coord: 1,
                        origin: 1,
                        gen: 0,
                        spec: p.spec.clone(),
                        gds: bytes.to_vec(),
                        ranges: Some(vec![range]),
                    };
                    out.submit_frame_bytes = frame_round_trip(t, &request);
                }
            }
        }
        let lib = t
            .span("gds.parse", |_| gds::from_bytes(bytes))
            .expect("replayed GDS parses");
        let tiling = TilingConfig::builder()
            .tile(p.spec.tile)
            .halo(p.spec.halo)
            .build()
            .expect("tiling");
        let layout = t
            .span("tile.build", |_| TiledLayout::from_library(lib, tiling))
            .expect("replayed GDS tiles");
        let halo = ctx.content_halo();
        let sim = LithoSimulator::for_feature_size(p.spec.litho_feature);
        for tile in 0..layout.tile_count() {
            let cache_key = |t: &mut Tracer| {
                t.span("job.cache_key", |t| CacheKey {
                    spec: ctx.cache_spec_digest(),
                    deck: ctx.cache_deck_digest(),
                    tile: t.span("tile.digest", |_| layout.tile_content_digest(tile, halo)),
                })
            };
            let cached = p.cache.and_then(|cache| {
                let key = cache_key(t);
                let bytes = t.span("cache.lookup", |_| cache.lookup(key))?;
                t.span("ckpt.decode", |_| decode_tile_partial(&bytes, tile))
            });
            let partial = match cached {
                Some(partial) => {
                    out.hits += 1;
                    partial
                }
                None => {
                    out.misses += 1;
                    let partial = t.span("job.compute_tile", |t| {
                        compute_tile(t, ctx, &layout, &sim, tile)
                    });
                    if let Some(cache) = p.cache {
                        // The service keys the store separately from the lookup.
                        let key = cache_key(t);
                        let bytes = t.span("ckpt.encode", |_| encode_tile_partial(&partial));
                        t.span("cache.store", |_| cache.store(key, &bytes));
                    }
                    partial
                }
            };
            out.partials.push(partial);
        }
        if p.frames == Frames::Shard {
            out.partials = shard_round_trip(t, std::mem::take(&mut out.partials));
        }
        let report = t
            .span("job.merge", |_| ctx.merge(&out.partials))
            .expect("merge replayed partials");
        out.violations = report.drc.as_ref().map_or(0, |d| d.violation_count());
        out.text = t.span("report.render", |_| report.render_text(p.spec));
        if p.frames == Frames::Wire {
            let response = Response::Results {
                status: p.status.clone(),
                report_text: out.text.clone(),
            };
            let line = t.span("proto.results_encode", |_| response.to_json().render());
            let back = t
                .span("proto.results_decode", |_| Response::parse(&line))
                .expect("results frame parses");
            assert_eq!(back, response, "results frame round trip");
        }
        out
    })
}

/// Renders and re-parses a request frame; returns its size in bytes.
fn frame_round_trip(t: &mut Tracer, request: &Request) -> usize {
    let line = t.span("proto.submit_encode", |_| request.to_json().render());
    let back = t
        .span("proto.submit_decode", |_| Request::parse(&line))
        .expect("request frame parses");
    assert_eq!(&back, request, "request frame round trip");
    line.len()
}

/// `JobContext::compute_tile`, one span per engine call.
fn compute_tile(
    t: &mut Tracer,
    ctx: &JobContext,
    layout: &TiledLayout,
    sim: &LithoSimulator,
    tile: usize,
) -> TilePartial {
    let drc: Vec<RulePartial> = ctx
        .deck
        .rules()
        .iter()
        .map(|rule| t.span("drc.rule_tile", |_| rule_tile_partial(rule, layout, tile)))
        .collect();
    let ca = ctx.spec.ca_layer.map(|layer| {
        t.span("ca.tile", |_| {
            ca_tile_partial(layout, layer, ctx.spec.ca_range(), tile)
        })
    });
    let litho = ctx.spec.litho_layer.map(|layer| {
        t.span("litho.tile", |_| {
            sim.printed_tile_piece(layout, layer, Condition::nominal(), tile)
        })
    });
    let mut rects_peak = drc.iter().map(RulePartial::rect_count).max().unwrap_or(0);
    if let Some(ca) = &ca {
        rects_peak = rects_peak.max(ca.rects);
    }
    TilePartial {
        tile,
        drc,
        ca,
        litho,
        rects_peak,
    }
}

/// Each shard streams its outcome log back one settled tile per pull
/// (tiles settle further apart than the puller's cadence); the
/// coordinator parses every frame and decodes the partial it carries.
fn shard_round_trip(t: &mut Tracer, partials: Vec<TilePartial>) -> Vec<TilePartial> {
    let mut merged = Vec::with_capacity(partials.len());
    for (seq, partial) in partials.iter().enumerate() {
        let outcome = TileOutcome {
            tile: partial.tile,
            retries: Vec::new(),
            kind: TileOutcomeKind::Done {
                data: t.span("ckpt.encode", |_| encode_tile_partial(partial)),
                ckpt_degraded: false,
                cache: TileCacheMark::None,
            },
        };
        let response = Response::ShardOutcomes {
            outcomes: vec![outcome],
            next: seq as u64 + 1,
            settled: false,
            draining: false,
        };
        let line = t.span("proto.outcomes_encode", |_| response.to_json().render());
        let back = t
            .span("proto.outcomes_decode", |_| Response::parse(&line))
            .expect("outcome frame parses");
        let Response::ShardOutcomes { mut outcomes, .. } = back else {
            panic!("outcome frame changed kind")
        };
        let Some(TileOutcomeKind::Done { data, .. }) = outcomes.pop().map(|o| o.kind) else {
            panic!("outcome changed kind")
        };
        let partial = t.span("ckpt.decode", |_| decode_tile_partial(&data, partial.tile));
        merged.push(partial.expect("outcome payload decodes"));
    }
    merged
}

/// The bytes a replay submits: the workload's job, or on `edit_resubmit`
/// the `n`-th of a run of edits one nm apart — distinct content, so each
/// recomputes, but the same dirty tiles, so the passes do equal work.
fn replay_bytes(env: &Env, n: i64) -> Vec<u8> {
    let Some(edits) = &env.edits else {
        return env.job.gds.clone();
    };
    let r = edits.rect(REPLAY_EDIT);
    edits.gds_with(dfm_geom::Rect::new(r.x0 + n, r.y0, r.x1 + n, r.y1))
}

/// Runs the traced replay, the probes and the comparison jobs.
pub fn trace(env: &Env, phase: &Phase) -> Traced {
    let spec = env.job.spec.clone();
    let frames = match env.name {
        "wire_warm" => Frames::Wire,
        "shard_2x1" => Frames::Shard,
        _ => Frames::None,
    };
    let status = env
        .service
        .list()
        .pop()
        .expect("the measured phase ran a job");
    let cache = env.cache.clone();

    // Spans off, on, off: the same work each time, and holding the traced
    // pass against the mean of its neighbours cancels a drifting host.
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let plan = Plan {
        spec: &spec,
        cache: cache.as_deref(),
        frames,
        status: &status,
    };
    let untraced_ms = |n: i64| {
        let bytes = replay_bytes(env, n);
        let ctx = JobContext::build(&spec, &bytes).expect("replay context");
        let t = Instant::now();
        let replayed = replay(&mut Tracer::new(false), &plan, &bytes, &ctx);
        std::hint::black_box(&replayed.text);
        ms_since(t)
    };
    let off_before = untraced_ms(0);
    let mut tracer = Tracer::new(true);
    tracer.set_job(PROBE);
    let bytes = replay_bytes(env, 1);
    let ctx = tracer
        .span("job.context_build", |_| JobContext::build(&spec, &bytes))
        .expect("replay context");
    let t = Instant::now();
    let replayed = replay(&mut tracer, &plan, &bytes, &ctx);
    let on_ms = ms_since(t);
    let off_ms = (off_before + untraced_ms(2)) / 2.0;
    if env.name != "edit_resubmit" {
        assert_eq!(
            replayed.text,
            env.job.flat_text(),
            "the by-hand replay must give the flat report"
        );
    }
    m.insert(
        "trace.spans",
        tracer.spans().iter().filter(|s| s.job == JOB).count() as f64,
    );
    m.insert("trace.overhead_share", (on_ms - off_ms) / off_ms);

    // Probes that fill in operations the job's path skipped.
    tracer.set_job(PROBE);
    if cache.is_none() {
        for tile in 0..ctx.tile_count() {
            tracer.span("job.cache_key", |t| CacheKey {
                spec: ctx.cache_spec_digest(),
                deck: ctx.cache_deck_digest(),
                tile: t.span("tile.digest", |_| ctx.tile_content_digest(tile)),
            });
        }
    }
    let on_path = |t: &Tracer, name: &str| t.spans().iter().any(|s| s.name == name);
    let encoded: Vec<Vec<u8>> = if on_path(&tracer, "ckpt.encode") {
        replayed.partials.iter().map(encode_tile_partial).collect()
    } else {
        replayed
            .partials
            .iter()
            .map(|p| tracer.span("ckpt.encode", |_| encode_tile_partial(p)))
            .collect()
    };
    if !on_path(&tracer, "ckpt.decode") {
        for (tile, bytes) in encoded.iter().enumerate() {
            tracer
                .span("ckpt.decode", |_| decode_tile_partial(bytes, tile))
                .expect("partial decodes");
        }
    }
    // No workload arms a checkpoint root (see README: its hundred fsyncs a
    // job are at the mercy of the sandbox's disk), so the write and resume
    // paths are probed on every workload instead.
    let dir = JobDir::new(&env.scratch().join("ckpt-probe"), 1);
    tracer
        .span("ckpt.persist_submission", |_| {
            dir.persist_submission(&spec.to_json().render(), &bytes)
        })
        .expect("persist submission");
    for partial in &replayed.partials {
        tracer
            .span("ckpt.write_tile", |_| dir.write_tile(partial))
            .expect("write tile checkpoint");
    }
    let loaded = tracer.span("ckpt.load_tiles", |_| dir.load_tiles(ctx.tile_count()));
    assert_eq!(
        loaded, replayed.partials,
        "checkpointed tiles load back unchanged"
    );

    // Path metrics, read off the spans.
    let d = spans::durations_ms(tracer.spans());
    let sum = |name: &str| d.get(name).map_or(0.0, |v| v.iter().sum());
    let mean_us = |name: &str| {
        d.get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64 * 1e3)
    };
    let p50 = |name: &str| d.get(name).map_or(0.0, |v| stats::median(v));
    let count = |name: &str| d.get(name).map_or(0, Vec::len) as f64;
    let tiles = ctx.tile_count();
    // Engine time per tile: Σ of that engine's spans within each tile.
    let rules = ctx.deck.rules().len().max(1);
    let drc_per_tile: Vec<f64> = d.get("drc.rule_tile").map_or(Vec::new(), |v| {
        v.chunks(rules).map(|c| c.iter().sum()).collect()
    });
    m.insert("gds.parse_ms", sum("gds.parse"));
    m.insert(
        "gds.parse_mb_per_s",
        bytes.len() as f64 / 1e6 / (sum("gds.parse") / 1e3),
    );
    m.insert("gds.bytes", bytes.len() as f64);
    m.insert("tile.build_ms", sum("tile.build"));
    m.insert("tile.digest_us_per_tile", mean_us("tile.digest"));
    m.insert(
        "tile.view_rects_peak",
        replayed
            .partials
            .iter()
            .map(|p| p.rects_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("drc.tile_ms_p50", stats::median(&drc_per_tile));
    m.insert("drc.job_ms", sum("drc.rule_tile"));
    m.insert("drc.rule_calls", count("drc.rule_tile"));
    m.insert("drc.violations", replayed.violations as f64);
    m.insert("ca.tile_ms_p50", p50("ca.tile"));
    m.insert("ca.job_ms", sum("ca.tile"));
    m.insert("litho.tile_ms_p50", p50("litho.tile"));
    m.insert("litho.job_ms", sum("litho.tile"));
    m.insert("job.context_build_ms", sum("job.context_build"));
    m.insert("job.compute_tile_ms_p50", p50("job.compute_tile"));
    m.insert("job.cache_key_us", mean_us("job.cache_key"));
    m.insert("job.merge_ms", sum("job.merge"));
    m.insert("report.render_ms", sum("report.render"));
    m.insert("ckpt.encode_us_per_tile", mean_us("ckpt.encode"));
    m.insert("ckpt.decode_us_per_tile", mean_us("ckpt.decode"));
    m.insert(
        "ckpt.partial_bytes_per_tile",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / tiles as f64,
    );
    m.insert("ckpt.write_tile_us", mean_us("ckpt.write_tile"));
    m.insert("ckpt.load_tiles_ms", sum("ckpt.load_tiles"));
    m.insert("cache.lookup_us", mean_us("cache.lookup"));
    m.insert("cache.store_us", mean_us("cache.store"));
    let lookups = replayed.hits + replayed.misses;
    m.insert(
        "cache.hit_ratio",
        if cache.is_some() {
            replayed.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    m.insert(
        "cache.tiles_recomputed",
        if cache.is_some() {
            replayed.misses as f64
        } else {
            0.0
        },
    );
    m.insert(
        "cache.bytes_on_disk",
        cache.as_ref().map_or(0.0, |c| c.stats().bytes as f64),
    );
    m.insert(
        "proto.submit_encode_ms",
        sum("proto.submit_encode") / count("proto.submit_encode").max(1.0),
    );
    m.insert(
        "proto.submit_decode_ms",
        sum("proto.submit_decode") / count("proto.submit_decode").max(1.0),
    );
    m.insert(
        "proto.submit_frame_bytes",
        replayed.submit_frame_bytes as f64,
    );
    m.insert(
        "proto.results_decode_us",
        mean_us("proto.results_decode") + mean_us("proto.outcomes_decode"),
    );

    // Attribution: Σ self time per layer of the replayed job.
    let layer_self_ms = spans::layer_self_ms(tracer.spans(), JOB);
    let total: f64 = layer_self_ms.values().sum();
    let share = |layers: &[&str]| {
        layers
            .iter()
            .map(|l| layer_self_ms.get(l).copied().unwrap_or(0.0))
            .sum::<f64>()
            / total
    };
    m.insert("attr.total_ms", total);
    m.insert("attr.engines_share", share(&["drc", "yieldsim", "litho"]));
    m.insert("attr.drc_ca_share", share(&["drc", "yieldsim"]));
    m.insert("attr.litho_share", share(&["litho"]));
    m.insert("attr.proto_codec_share", share(&["proto", "codec"]));
    m.insert("attr.store_share", share(&["cache", "checkpoint"]));

    // Counters the service kept during the measured phase.
    let pool = env.service.pool_stats();
    m.insert("par.queue_depth_peak", pool.queue_depth_peak as f64);
    m.insert("par.in_flight_peak", pool.in_flight_peak as f64);
    m.insert("sched.grants", env.service.grant_log().len() as f64);
    m.insert("sched.bulk_job_ms_p50", stats::median(&phase.bulk_job_ms));
    m.insert(
        "shard.tiles_redispatched",
        env.service
            .shard_stats()
            .map_or(0.0, |s| s.tiles_redispatched as f64),
    );
    let (tail_pct, tail_ms) = stats::tail(&phase.job_ms);
    m.insert("client.job_ms_tail", tail_ms);
    m.insert("client.job_ms_tail_pct", tail_pct);

    // Comparisons.
    let job_p50 = stats::median(&phase.job_ms);
    let (one_thread_ms, ack_ms) = match frames {
        // Compute is nil on wire_warm, so pool width is moot: the measured
        // jobs are the 1-thread jobs, and the ack is the submit call.
        Frames::Wire => (job_p50, wire_submit_ack_ms(env)),
        _ => one_thread_job(env),
    };
    // The serial replay of shard_2x1 cannot be held against the two
    // parallel shards, so there the in-process 1-thread job is held
    // against the replay without its frames.
    let explained = if frames == Frames::Shard {
        total * (1.0 - share(&["proto", "codec"]))
    } else {
        total
    };
    m.insert("service.submit_ack_ms", ack_ms);
    m.insert("service.unattributed_ms", one_thread_ms - explained);
    m.insert(
        "service.unattributed_share",
        (one_thread_ms - explained) / one_thread_ms,
    );
    let job = &env.job;
    let in_process = |service: &SignoffService| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                Target::Local(service)
                    .run_job(&job.spec, job.gds.clone())
                    .expect("in-process comparison job");
                ms_since(t)
            })
            .collect();
        stats::median(&runs)
    };
    for off_path in [
        "wire.overhead_ms",
        "shard.overhead_ms",
        "shard.overhead_x",
        "sched.inter_alone_ms",
        "sched.inter_slowdown_x",
    ] {
        m.insert(off_path, 0.0);
    }
    match env.name {
        "wire_warm" => {
            m.insert("wire.overhead_ms", job_p50 - in_process(&env.service));
        }
        "shard_2x1" => {
            let local = SignoffService::with_config(ServiceConfig::builder().threads(2).build());
            let base = in_process(&local);
            m.insert("shard.overhead_ms", job_p50 - base);
            m.insert("shard.overhead_x", job_p50 / base);
        }
        "tenants_mixed" => {
            let alone = in_process(&env.service);
            m.insert("sched.inter_alone_ms", alone);
            m.insert("sched.inter_slowdown_x", job_p50 / alone);
        }
        _ => {}
    }

    // Input-independent probes.
    m.insert("sched.grant_us", sched_grant_us());
    m.insert("par.dispatch_us", par_dispatch_us());
    m.insert("wire.ping_us", ping_us(env));
    let (json_mb_s, hex_mb_s) = codec_mb_per_s();
    m.insert("codec.parse_json_mb_per_s", json_mb_s);
    m.insert("codec.hex_mb_per_s", hex_mb_s);

    Traced {
        metrics: m,
        layer_self_ms,
        spans: tracer.spans().to_vec(),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The workload's job on a fresh 1-thread in-process service armed like
/// the workload's own: medians over three jobs of `(job ms, submit-call
/// ms)`.
fn one_thread_job(env: &Env) -> (f64, f64) {
    let mut cfg = ServiceConfig::builder().threads(1);
    if let Some(cache) = &env.cache {
        cfg = cfg.cache(Arc::clone(cache));
    }
    let service = SignoffService::with_config(cfg.build());
    let (jobs, acks): (Vec<f64>, Vec<f64>) = (3..6)
        .map(|n| {
            let bytes = replay_bytes(env, n);
            let t = Instant::now();
            let id = service
                .submit(env.job.spec.clone(), bytes)
                .expect("1-thread comparison job submits");
            let ack = ms_since(t);
            service.wait(id).expect("1-thread comparison job settles");
            service
                .report_text(id, false)
                .expect("1-thread comparison job reports");
            (ms_since(t), ack)
        })
        .unzip();
    (stats::median(&jobs), stats::median(&acks))
}

/// Median round trip of the `submit` request alone on the warm server.
fn wire_submit_ack_ms(env: &Env) -> f64 {
    let mut client =
        Client::connect(env.server_addr().expect("wire_warm has a server")).expect("connect");
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            client
                .submit(env.job.spec.clone(), env.job.gds.clone())
                .expect("submit");
            ms_since(t)
        })
        .collect();
    stats::median(&runs)
}

/// `admit` / `enqueue` / `resolved` over 10 000 no-op tiles, per tile.
fn sched_grant_us() -> f64 {
    const TILES: usize = 10_000;
    let t = Instant::now();
    let mut sched: Scheduler<()> = Scheduler::new(SchedConfig::open());
    sched
        .admit(1, "default", 0, TILES as u64)
        .expect("open plan admits");
    let mut granted = sched.enqueue(1, (), 0..TILES).len();
    for tile in 0..TILES {
        granted += sched.resolved(1, tile).len();
    }
    assert_eq!(granted, TILES, "every tile granted exactly once");
    t.elapsed().as_secs_f64() * 1e6 / TILES as f64
}

/// `submit_sequenced` of a no-op task until its exit hook has run, per
/// round trip, on a pool as wide as the service's.
fn par_dispatch_us() -> f64 {
    const ROUNDS: u64 = 2_000;
    let pool = WorkerPool::new(workloads::pool_threads());
    let token = CancelToken::new();
    let (tx, rx) = std::sync::mpsc::channel();
    let t = Instant::now();
    for seq in 0..ROUNDS {
        let tx = tx.clone();
        pool.submit_sequenced(
            seq,
            &token,
            || {},
            move |_| tx.send(()).expect("probe receiver alive"),
        );
        rx.recv().expect("exit hook ran");
    }
    t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
}

/// Median `ping` round trip on a loopback server (the workload's own
/// where it has one).
fn ping_us(env: &Env) -> f64 {
    let own;
    let addr = match env.server_addr() {
        Some(addr) => addr,
        None => {
            own = Served::start(Arc::new(SignoffService::with_config(
                ServiceConfig::builder().threads(1).build(),
            )));
            own.addr.as_str()
        }
    };
    let mut client = Client::connect(addr).expect("connect for ping");
    let pings: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            client.ping().expect("ping");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&pings)
}

/// Throughput of `parse_json` on one 256 KiB string value and of the hex
/// codec (encode + decode) on 1 MiB, in MB of input per second. Fixed
/// sizes: `parse_json` is not linear in string length, so its rate only
/// compares at equal size.
fn codec_mb_per_s() -> (f64, f64) {
    let doc = format!("{{\"gds_hex\":\"{}\"}}", "5a".repeat(128 * 1024));
    let t = Instant::now();
    std::hint::black_box(parse_json(std::hint::black_box(&doc)).expect("probe document parses"));
    let json = doc.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
    let raw: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let t = Instant::now();
    let back = from_hex(&to_hex(std::hint::black_box(&raw))).expect("hex round trip");
    let hex = raw.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
    assert_eq!(back, raw);
    (json, hex)
}
