//! The metric names every later performance or simplicity PR is judged
//! by. `BENCHMARK.json` at the repo root lists exactly these; a unit test
//! keeps the two in step.

/// An end-to-end metric: `(name, unit, better, regression bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// Reported by every workload with `--trace 0`. `failed_share` is not in
/// this list because the contract wants metrics that are never 0: it is
/// carried by the `attempted` / `failed` keys of the result line instead,
/// where any increase fails the run.
///
/// The issue proposed 10 % (25 % for `setup_s`). The 2-core sandbox that
/// defined the benchmark does not resolve that: a whole run of a cold
/// workload is now and then 15-20 % slower than its neighbours for
/// reasons outside the process, and ten-run quartile spreads reached
/// 8.7 % / 7.0 % / 16 % / 5.1 %. The bounds are about three times those,
/// up to the contract's ceiling of 25 %.
pub const END_TO_END: [EndToEnd; 4] = [
    ("job_ms_p50", "ms", "lower", 0.25),
    ("tiles_per_s", "tiles/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Reported by every workload with `--trace 1`. A metric of a layer the
/// workload's job does not pass through reads 0 there.
pub const PER_LAYER: [PerLayer; 61] = [
    ("gds.parse_ms", "ms", "lower"),
    ("gds.parse_mb_per_s", "MB/s", "higher"),
    ("gds.bytes", "bytes", "lower"),
    ("tile.build_ms", "ms", "lower"),
    ("tile.digest_us_per_tile", "us", "lower"),
    ("tile.view_rects_peak", "count", "lower"),
    ("drc.tile_ms_p50", "ms", "lower"),
    ("drc.job_ms", "ms", "lower"),
    ("drc.rule_calls", "count", "lower"),
    ("drc.violations", "count", "lower"),
    ("ca.tile_ms_p50", "ms", "lower"),
    ("ca.job_ms", "ms", "lower"),
    ("litho.tile_ms_p50", "ms", "lower"),
    ("litho.job_ms", "ms", "lower"),
    ("job.context_build_ms", "ms", "lower"),
    ("job.compute_tile_ms_p50", "ms", "lower"),
    ("job.cache_key_us", "us", "lower"),
    ("job.merge_ms", "ms", "lower"),
    ("report.render_ms", "ms", "lower"),
    ("ckpt.encode_us_per_tile", "us", "lower"),
    ("ckpt.decode_us_per_tile", "us", "lower"),
    ("ckpt.partial_bytes_per_tile", "bytes", "lower"),
    ("ckpt.write_tile_us", "us", "lower"),
    ("ckpt.load_tiles_ms", "ms", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.store_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.tiles_recomputed", "count", "lower"),
    ("cache.bytes_on_disk", "bytes", "lower"),
    ("proto.submit_encode_ms", "ms", "lower"),
    ("proto.submit_decode_ms", "ms", "lower"),
    ("proto.submit_frame_bytes", "bytes", "lower"),
    ("proto.results_decode_us", "us", "lower"),
    ("codec.parse_json_mb_per_s", "MB/s", "higher"),
    ("codec.hex_mb_per_s", "MB/s", "higher"),
    ("wire.ping_us", "us", "lower"),
    ("wire.overhead_ms", "ms", "lower"),
    ("client.job_ms_tail", "ms", "lower"),
    ("client.job_ms_tail_pct", "%", "higher"),
    ("sched.grant_us", "us", "lower"),
    ("sched.grants", "count", "lower"),
    ("sched.inter_alone_ms", "ms", "lower"),
    ("sched.inter_slowdown_x", "x", "lower"),
    ("sched.bulk_job_ms_p50", "ms", "lower"),
    ("par.dispatch_us", "us", "lower"),
    ("par.queue_depth_peak", "count", "lower"),
    ("par.in_flight_peak", "count", "higher"),
    ("shard.overhead_ms", "ms", "lower"),
    ("shard.overhead_x", "x", "lower"),
    ("shard.tiles_redispatched", "count", "lower"),
    ("service.submit_ack_ms", "ms", "lower"),
    ("service.unattributed_ms", "ms", "lower"),
    ("service.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    // Share of the replayed job's attributed time per group of layers:
    // what each workload was built to load.
    ("attr.total_ms", "ms", "lower"),
    ("attr.engines_share", "ratio", "lower"),
    ("attr.drc_ca_share", "ratio", "lower"),
    ("attr.litho_share", "ratio", "lower"),
    ("attr.proto_codec_share", "ratio", "lower"),
    ("attr.store_share", "ratio", "lower"),
];
