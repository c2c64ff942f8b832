//! # dfm-signoff — an async signoff job service
//!
//! The "always-on" delivery vehicle for the workspace's signoff
//! engines: a long-running service that accepts GDS jobs, decomposes
//! each into per-tile tasks (one prepared view per distinct window, read
//! by DRC via [`dfm_drc::rule_view_partial`], litho print via
//! [`dfm_litho::LithoSimulator::printed_view_piece`] and critical area
//! via [`dfm_yield::critical_area::ca_view_partial`]), schedules them
//! across a persistent [`dfm_par::WorkerPool`], and merges the per-tile
//! partials **in tile order** so the final report
//! is bit-identical to a flat single-shot run — at any worker count,
//! and after any number of cancel/kill/resume cycles.
//!
//! The pieces:
//!
//! * [`JobSpec`] — what to analyse (tech, tiling, which engines),
//! * [`JobContext`] / [`TilePartial`] — the pure per-tile task and its
//!   mergeable result,
//! * [`SignoffReport`] — the merged report with a canonical text
//!   rendering ([`SignoffReport::render_text`]) that is byte-compared
//!   against [`flat_report`] in tests and CI,
//! * [`SignoffService`] — the job store: states, per-tile progress,
//!   monotonic event sequence numbers, incremental (prefix-merged)
//!   results, checkpoint/resume, and supervised retry/quarantine
//!   (bounded per-tile retries with deterministic virtual-clock
//!   backoff; tiles that exhaust their budget are quarantined and the
//!   job settles `Partial` with an explicit manifest — testable
//!   end-to-end through the `dfm_fault` injection plane),
//! * a **content-addressed result cache** (arm via
//!   [`ServiceConfig::cache`] with a [`dfm_cache::TileCache`]): tiles
//!   whose `(spec, rule deck, tile content + halo)` digests
//!   ([`JobContext::cache_key`]) match a stored result are served from
//!   disk and never reach the pool, so resubmitting an edited layout
//!   recomputes only the tiles whose geometry actually changed,
//! * [`proto`] / [`server`] / [`client`] — a line-delimited-JSON
//!   protocol over `std::net` TCP, rendered through the hand-rolled
//!   [`dfm_bench::json`] writer,
//! * [`shard`] — horizontal scale-out: a coordinator fans each job
//!   out across N shard servers by deterministic tile-range partition
//!   ([`shard::partition_range`]), streams their outcome logs back,
//!   and merges through the same tile-ordered commit machinery — so
//!   the coordinated event stream and report are byte-identical to a
//!   single process, with dead shards re-dispatched to survivors or
//!   degraded to a deterministic `Partial` manifest.
//!
//! # Determinism argument
//!
//! Every tile task is a pure function of `(spec, tile index)`; the
//! scheduler's only job is to get each partial computed *once* and
//! into the store. The merge folds partials in tile index order, so
//! the report depends on the set of partials — never on when, where,
//! or how often they were computed. A resumed job recomputes exactly
//! the missing tiles and merges the same set, hence the same bytes.
//! The same purity makes caching safe: a stored partial is
//! indistinguishable from a recomputed one, so cache hits can never
//! change a report — only skip work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autofix;
pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod job;
pub mod proto;
pub mod report;
pub mod sched;
pub mod scoring;
pub mod server;
pub mod service;
pub mod shard;
pub mod spec;

pub use autofix::{auto_fix, FixOutcome};
pub use checkpoint::{decode_tile_partial, encode_tile_partial};
pub use client::{Client, ClientBuilder, RequestError};
pub use scoring::flat_score;
pub use job::{JobContext, TilePartial, CACHE_KEY_VERSION};
pub use report::{flat_report, CaSummary, LithoSummary, QuarantinedTile, SignoffReport};
pub use sched::{Grant, SchedConfig, TenantPolicy};
pub use proto::{ErrorCode, ErrorObj, PROTO_VERSION};
pub use server::Server;
pub use service::{
    JobEvent, JobEventKind, JobState, JobStatus, ServiceConfig, ServiceConfigBuilder,
    SignoffService,
};
pub use shard::{
    ShardGrant, ShardStats, TileCacheMark, TileOutcome, TileOutcomeKind, TileRetry,
    SITE_SHARD_DISPATCH, SITE_SHARD_PULL,
};
pub use spec::JobSpec;
