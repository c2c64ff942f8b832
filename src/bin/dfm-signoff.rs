//! `dfm-signoff` — the command-line front-end of the signoff job
//! service.
//!
//! ```text
//! dfm-signoff serve   [--threads N] [--port P] [--ckpt DIR] [--port-file FILE]
//!                     [--fault-plan FILE] [--max-attempts N]
//!                     [--cache DIR] [--cache-max-bytes N] [--tenants FILE]
//!                     [--shard-of K/N]
//! dfm-signoff coordinate --shards HOST:PORT[,HOST:PORT...] [serve flags]
//! dfm-signoff gen     --out FILE [--width NM] [--height NM] [--seed S]
//! dfm-signoff submit  --addr HOST:PORT --gds FILE [--idem KEY] [--retry N]
//!                     [--tenant T] [--priority P] [spec flags]
//! dfm-signoff status  --addr HOST:PORT --job ID [--tenant T] [--priority P]
//! dfm-signoff events  --addr HOST:PORT --job ID [--since SEQ]
//! dfm-signoff results --addr HOST:PORT --job ID [--partial] [--wait] [--tenant T] [--priority P]
//! dfm-signoff score   --addr HOST:PORT --job ID
//! dfm-signoff score   --gds FILE [--cache DIR] [--threads N] [spec flags]
//! dfm-signoff fix     --gds FILE [--out FILE] [--cache DIR] [--threads N] [spec flags]
//! dfm-signoff cancel  --addr HOST:PORT --job ID
//! dfm-signoff resume  --addr HOST:PORT --job ID
//! dfm-signoff list    --addr HOST:PORT
//! dfm-signoff shutdown --addr HOST:PORT [--drain]
//! dfm-signoff flat-report --gds FILE [spec flags]
//! dfm-signoff cache   stats|verify|clear --dir DIR
//! ```
//!
//! ## Exit codes
//!
//! Every subcommand follows one contract: `0` — success (for scoring
//! commands: the score passed), `1` — the score is below its pass
//! threshold (or a metric under its floor), `2` — the job settled
//! `Partial` (quarantined tiles; any score covers only the surviving
//! tiles), `3` — operational error (bad arguments, I/O, protocol,
//! failed jobs), `4` — the server refused the submission at admission
//! (code `unknown_tenant`, `quota_exceeded`, `busy` or `draining`:
//! unknown tenant, tenant quota, global backpressure, or a server that
//! is shutting down; nothing was enqueued). A rejected `submit` prints
//! the structured v2 error object (`{code, message,
//! retry_after_vms?}`) on stdout so scripts can parse the code and the
//! deterministic retry-after hint.
//!
//! ## Multi-tenant serving
//!
//! `serve --tenants FILE` arms admission control and weighted
//! fair-share scheduling from a tenant plan (see
//! `dfm_signoff::sched::SchedConfig`): `tenant NAME weight W
//! [max_jobs N] [max_tiles N]` lines plus an optional `global
//! max_inflight N max_pending_tiles N` line. `submit --tenant/--priority`
//! tags the job; on `status`/`results` the same flags act as ownership
//! assertions (the command fails rather than report a job that belongs
//! to a different tenant). Without `--tenants`, every tenant is
//! accepted at weight 1 with no quotas — exactly the pre-scheduler
//! behaviour.
//!
//! ## Scale-out (sharding)
//!
//! `serve --shard-of K/N` starts a server that owns deterministic
//! tile-range partition `K` (0-based) of any job dispatched to it by a
//! coordinator. `coordinate --shards A,B,...` starts a coordinator:
//! a full signoff server whose job execution fans each submitted job
//! out across the listed shard servers by tile range, streams their
//! outcome logs back, and merges them through the same tile-ordered
//! commit machinery — so the coordinated event stream, final report,
//! and exit code are byte-identical to a plain `serve` run. Admission
//! control (`--tenants`) stays at the coordinator; shards trust its
//! grants. A dead shard's unfinished range is re-dispatched to a
//! surviving shard (recovering through the tile cache where warm); if
//! no shard survives, the job settles `Partial` with a per-shard
//! quarantine manifest. `coordinate` accepts all `serve` flags, so a
//! `--ckpt` root gives the coordinator checkpoint/resume: a restarted
//! coordinator re-dispatches each unsettled job and recovers already
//! merged tiles from its checkpoint.
//!
//! ## Scoring and auto-fix
//!
//! `--score FILE|default|none` (a spec flag) attaches a
//! manufacturability score spec to the job; the service computes the
//! score when the job settles and `score` fetches its deterministic
//! JSON line. `score --gds` runs the same thing locally through an
//! in-process service (arm `--cache DIR` to reuse/populate a tile
//! cache). `fix` scores the layout, runs the greedy score-guided
//! auto-fix search (redundant vias, wire spreading, wire widening —
//! each kept only when the score strictly improves), resubmits the
//! fixed layout through the same service, and reports
//! before/after/delta plus how many tiles the resubmission actually
//! recomputed — with a warm `--cache`, only the content-dirty ones.
//!
//! `--cache DIR` arms the content-addressed per-tile result cache:
//! resubmitting a layout recomputes only the tiles whose content
//! (at the job's analysis halo) actually changed — everything else is
//! served from disk. The `cache` subcommand inspects or maintains such
//! a directory offline: `stats` prints entry/byte/counter totals,
//! `verify` checksums every entry (removing any that fail), and
//! `clear` empties the store. A cleared or corrupted cache is never an
//! error — affected tiles just recompute.
//!
//! Spec flags (shared by `submit`, `flat-report`, `score`, and `fix`,
//! so the paths use identical defaults): `--name S --tech n65|n45|n28
//! --tile NM --halo NM --no-drc --ca-layer L/D|none --ca-x0 NM
//! --litho-layer L/D|none --litho-feature NM --score FILE|default|none`.
//!
//! `flat-report` runs the same job single-shot with no tiling and no
//! service; its output is byte-identical to `results` for the same
//! spec and GDS — that equality is checked in CI.
//!
//! `--fault-plan FILE` arms the deterministic fault-injection plane
//! from a `dfm-fault` plan file (see that crate's text format); it is
//! a test/CI facility — without the flag every fault probe is a no-op.

use dfm_practice::bench::json::JsonValue;
use dfm_practice::cache::TileCache;
use dfm_practice::fault::{FaultPlan, FaultPlane};
use dfm_practice::layout::{gds, generate, Technology};
use dfm_practice::score::{exit_code, EXIT_ERROR, EXIT_PASS, EXIT_REJECTED};
use dfm_practice::signoff::service::{JobEventKind, JobState, JobStatus, TILE_DELAY_ENV};
use dfm_practice::signoff::{
    auto_fix, flat_report, flat_score, Client, FixOutcome, JobSpec, RequestError, SchedConfig,
    Server, ServiceConfig, SignoffService,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("dfm-signoff: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let Some(cmd) = args.first() else {
        return Err(format!("no subcommand\n{USAGE}"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "serve" => serve(rest),
        "coordinate" => coordinate(rest),
        "gen" => gen(rest),
        "submit" => submit(rest),
        "status" => status(rest),
        "events" => events(rest),
        "results" => results(rest),
        "score" => score_cmd(rest),
        "fix" => fix(rest),
        "cancel" => with_job(rest, |client, job| client.cancel(job).map(print_status)),
        "resume" => with_job(rest, |client, job| client.resume(job).map(print_status)),
        "list" => list(rest),
        "shutdown" => shutdown(rest),
        "flat-report" => flat(rest),
        "cache" => cache_cmd(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(EXIT_PASS)
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  dfm-signoff serve   [--threads N] [--port P] [--ckpt DIR] [--port-file FILE]
                      [--fault-plan FILE] [--max-attempts N]
                      [--cache DIR] [--cache-max-bytes N] [--tenants FILE]
                      [--shard-of K/N]
  dfm-signoff coordinate --shards HOST:PORT[,HOST:PORT...] [serve flags]
  dfm-signoff gen     --out FILE [--width NM] [--height NM] [--seed S]
  dfm-signoff submit  --addr HOST:PORT --gds FILE [--wait] [--idem KEY] [--retry N]
                      [--tenant T] [--priority P] [spec flags]
  dfm-signoff status  --addr HOST:PORT --job ID [--tenant T] [--priority P]
  dfm-signoff events  --addr HOST:PORT --job ID [--since SEQ]
  dfm-signoff results --addr HOST:PORT --job ID [--partial] [--wait] [--tenant T] [--priority P]
  dfm-signoff score   --addr HOST:PORT --job ID
  dfm-signoff score   --gds FILE [--cache DIR] [--threads N] [spec flags]
  dfm-signoff fix     --gds FILE [--out FILE] [--cache DIR] [--threads N] [spec flags]
  dfm-signoff cancel  --addr HOST:PORT --job ID
  dfm-signoff resume  --addr HOST:PORT --job ID
  dfm-signoff list    --addr HOST:PORT
  dfm-signoff shutdown --addr HOST:PORT [--drain]
  dfm-signoff flat-report --gds FILE [spec flags]
  dfm-signoff cache   stats|verify|clear --dir DIR
spec flags: --name S --tech n65|n45|n28 --tile NM --halo NM --no-drc
            --ca-layer L/D|none --ca-x0 NM --litho-layer L/D|none --litho-feature NM
            --score FILE|default|none
exit codes: 0 pass, 1 score below threshold, 2 partial (quarantined), 3 error,
            4 submission rejected at admission (tenant/quota/backpressure/draining)";

/// Minimal `--flag value` / `--flag` scanner.
struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args, used: vec![false; args.len()] }
    }

    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, String> {
        for i in 0..self.args.len() {
            if self.args[i] == flag {
                let v = self.args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
                self.used[i] = true;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn present(&mut self, flag: &str) -> bool {
        for i in 0..self.args.len() {
            if self.args[i] == flag {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value for {flag}: '{v}'")),
        }
    }

    fn finish(self) -> Result<(), String> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(format!("unexpected argument '{}'\n{USAGE}", self.args[i]));
            }
        }
        Ok(())
    }
}

/// The shared spec flags: `submit` and `flat-report` parse through
/// this one function, so their defaults can never drift apart.
fn spec_from_flags(flags: &mut Flags<'_>) -> Result<JobSpec, String> {
    let mut spec = JobSpec::default();
    if let Some(name) = flags.value("--name")? {
        spec.name = name.to_string();
    }
    if let Some(tech) = flags.value("--tech")? {
        spec.tech = tech.to_string();
    }
    if let Some(tile) = flags.parsed("--tile")? {
        spec.tile = tile;
    }
    if let Some(halo) = flags.parsed("--halo")? {
        spec.halo = halo;
    }
    if flags.present("--no-drc") {
        spec.drc = false;
    }
    if let Some(layer) = flags.value("--ca-layer")? {
        spec.ca_layer = parse_layer_flag(layer, "--ca-layer")?;
    }
    if let Some(x0) = flags.parsed("--ca-x0")? {
        spec.ca_x0 = x0;
    }
    if let Some(layer) = flags.value("--litho-layer")? {
        spec.litho_layer = parse_layer_flag(layer, "--litho-layer")?;
    }
    if let Some(f) = flags.parsed("--litho-feature")? {
        spec.litho_feature = f;
    }
    if let Some(score) = flags.value("--score")? {
        spec.score = match score {
            "none" => None,
            "default" => Some("default".to_string()),
            path => Some(
                std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?,
            ),
        };
    }
    spec.validate()?;
    Ok(spec)
}

fn parse_layer_flag(
    v: &str,
    flag: &str,
) -> Result<Option<dfm_practice::layout::Layer>, String> {
    if v == "none" {
        return Ok(None);
    }
    let (l, d) = v.split_once('/').ok_or_else(|| format!("{flag} wants L/D or 'none'"))?;
    let l: u16 = l.parse().map_err(|_| format!("{flag}: bad layer number '{v}'"))?;
    let d: u16 = d.parse().map_err(|_| format!("{flag}: bad datatype '{v}'"))?;
    Ok(Some(dfm_practice::layout::Layer::new(l, d)))
}

fn connect(flags: &mut Flags<'_>) -> Result<Client, String> {
    let addr = flags.value("--addr")?.ok_or("--addr HOST:PORT is required")?;
    Client::connect(addr)
}

fn job_id(flags: &mut Flags<'_>) -> Result<u64, String> {
    flags.parsed("--job")?.ok_or_else(|| "--job ID is required".to_string())
}

/// Writes lines to stdout, treating a broken pipe (e.g. `| head`) as
/// a normal early exit instead of a panic.
fn emit_lines(lines: &[String]) -> Result<(), String> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in lines {
        match writeln!(out, "{line}") {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
            Err(e) => return Err(format!("stdout: {e}")),
        }
    }
    Ok(())
}

fn print_status(s: dfm_practice::signoff::service::JobStatus) {
    let err = s.error.as_deref().unwrap_or("-");
    println!(
        "job {} '{}' tenant {} prio {}: {} tiles {}/{} quarantined {} cached {} next_seq {} error {}",
        s.id,
        s.name,
        s.tenant,
        s.priority,
        s.state,
        s.tiles_done,
        s.tiles_total,
        s.tiles_quarantined,
        s.tiles_cached,
        s.next_seq,
        err
    );
}

fn serve(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let shard_of = match flags.value("--shard-of")? {
        None => None,
        Some(v) => Some(parse_shard_of(v)?),
    };
    serve_with(flags, shard_of, Vec::new())
}

fn coordinate(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let list = flags.value("--shards")?.ok_or("--shards HOST:PORT[,HOST:PORT...] is required")?;
    let shards: Vec<String> =
        list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if shards.is_empty() {
        return Err(format!("--shards has no addresses in '{list}'"));
    }
    serve_with(flags, None, shards)
}

/// `--shard-of K/N`: this server owns tile-range partition `K`
/// (0-based) out of `N` when a coordinator dispatches without explicit
/// ranges.
fn parse_shard_of(v: &str) -> Result<(u64, u64), String> {
    let (k, n) = v.split_once('/').ok_or_else(|| format!("--shard-of wants K/N, got '{v}'"))?;
    let k: u64 = k.parse().map_err(|_| format!("--shard-of: bad shard index '{v}'"))?;
    let n: u64 = n.parse().map_err(|_| format!("--shard-of: bad shard count '{v}'"))?;
    if n == 0 || k >= n {
        return Err(format!("--shard-of: need K < N and N >= 1, got '{v}'"));
    }
    Ok((k, n))
}

/// The shared body of `serve` and `coordinate`: both are a full
/// signoff server; the only differences are whether jobs run locally,
/// as one shard's partition, or fanned out across `shards`.
fn serve_with(
    mut flags: Flags<'_>,
    shard_of: Option<(u64, u64)>,
    shards: Vec<String>,
) -> Result<u8, String> {
    let threads = flags.parsed("--threads")?.unwrap_or(4);
    let port: u16 = flags.parsed("--port")?.unwrap_or(0);
    let ckpt = flags.value("--ckpt")?.map(std::path::PathBuf::from);
    let port_file = flags.value("--port-file")?.map(str::to_string);
    let fault_plan = flags.value("--fault-plan")?.map(str::to_string);
    let max_attempts: Option<u64> = flags.parsed("--max-attempts")?;
    let cache_dir = flags.value("--cache")?.map(std::path::PathBuf::from);
    let cache_max_bytes: Option<u64> = flags.parsed("--cache-max-bytes")?;
    let tenants_file = flags.value("--tenants")?.map(str::to_string);
    flags.finish()?;
    if cache_dir.is_none() && cache_max_bytes.is_some() {
        return Err("--cache-max-bytes needs --cache DIR".to_string());
    }
    let fault_plane = match fault_plan {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            Some(Arc::new(FaultPlane::new(FaultPlan::parse(&text)?)))
        }
    };
    let tile_delay = std::env::var(TILE_DELAY_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::ZERO, Duration::from_millis);
    let cache = match cache_dir {
        None => None,
        Some(dir) => Some(Arc::new(
            TileCache::open(&dir, cache_max_bytes)
                .map_err(|e| format!("open cache {}: {e}", dir.display()))?,
        )),
    };
    let mut cfg = ServiceConfig::builder().threads(threads).tile_delay(tile_delay);
    if let Some(n) = max_attempts {
        cfg = cfg.max_attempts(n);
    }
    if let Some((k, n)) = shard_of {
        cfg = cfg.shard_of(k, n);
    }
    if !shards.is_empty() {
        cfg = cfg.shards(shards);
    }
    if let Some(root) = ckpt {
        cfg = cfg.ckpt_root(root);
    }
    if let Some(plane) = fault_plane {
        cfg = cfg.fault_plane(plane);
    }
    if let Some(cache) = cache {
        cfg = cfg.cache(cache);
    }
    if let Some(path) = tenants_file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        cfg = cfg.sched(SchedConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let service = Arc::new(SignoffService::with_config(cfg.build()));
    let server = Server::bind(service, port)?;
    let addr = server.local_addr();
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", addr.port()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("listening on {addr}");
    server.serve().map(|()| EXIT_PASS)
}

fn gen(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let out = flags.value("--out")?.ok_or("--out FILE is required")?.to_string();
    let width = flags.parsed("--width")?.unwrap_or(6_000);
    let height = flags.parsed("--height")?.unwrap_or(6_000);
    let seed = flags.parsed("--seed")?.unwrap_or(7);
    flags.finish()?;
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams { width, height, ..Default::default() };
    let lib = generate::routed_block(&tech, params, seed);
    gds::write_file(&lib, &out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(EXIT_PASS)
}

fn submit(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let gds_path = flags.value("--gds")?.ok_or("--gds FILE is required")?.to_string();
    let wait = flags.present("--wait");
    let idem = flags.value("--idem")?.map(str::to_string);
    let retry: Option<u64> = flags.parsed("--retry")?;
    let mut spec = spec_from_flags(&mut flags)?;
    if let Some(tenant) = flags.value("--tenant")? {
        spec.tenant = tenant.to_string();
    }
    if let Some(priority) = flags.parsed("--priority")? {
        spec.priority = priority;
    }
    spec.validate()?;
    flags.finish()?;
    let bytes = std::fs::read(&gds_path).map_err(|e| format!("read {gds_path}: {e}"))?;
    // `--retry N` keeps resubmitting while the server answers with a
    // deterministic retry-after hint (backpressure), so a rejected-then-
    // admitted submission needs no wrapper script.
    let attempt = if let Some(tries) = retry {
        client.submit_until_admitted(spec, bytes, idem.as_deref(), tries)
    } else {
        client.submit_idem(spec, bytes, idem.as_deref())
    };
    let job = match attempt {
        Ok(job) => job,
        // An admission refusal is its own exit code (4) and prints the
        // machine-readable v2 error object on stdout, so callers can
        // parse the code and the deterministic retry-after hint.
        Err(RequestError::Server(err)) if err.code.is_admission_refusal() => {
            println!("{}", err.to_json().render());
            eprintln!("dfm-signoff: submission rejected: {err}");
            return Ok(EXIT_REJECTED);
        }
        Err(e) => return Err(e.into()),
    };
    println!("{job}");
    if !wait {
        return Ok(EXIT_PASS);
    }
    let status = client.wait(job)?;
    if let Some(err) = &status.error {
        return Err(format!("job {job} failed: {err}"));
    }
    print_status(status.clone());
    Ok(status_exit_code(&status))
}

fn status(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let job = job_id(&mut flags)?;
    let owner = owner_flags(&mut flags)?;
    flags.finish()?;
    let status = client.status(job)?;
    check_owner(&status, &owner)?;
    print_status(status);
    Ok(EXIT_PASS)
}

/// The `--tenant` / `--priority` ownership assertions shared by
/// `status` and `results`.
fn owner_flags(flags: &mut Flags<'_>) -> Result<(Option<String>, Option<u8>), String> {
    Ok((flags.value("--tenant")?.map(str::to_string), flags.parsed("--priority")?))
}

/// Fails (exit 3) when the job on the server does not match the
/// caller's asserted tenant/priority — a guard against scripts reading
/// some other tenant's job by a stale or mistyped id.
fn check_owner(status: &JobStatus, owner: &(Option<String>, Option<u8>)) -> Result<(), String> {
    if let Some(tenant) = &owner.0 {
        if &status.tenant != tenant {
            return Err(format!(
                "job {} belongs to tenant '{}', not '{tenant}'",
                status.id, status.tenant
            ));
        }
    }
    if let Some(priority) = owner.1 {
        if status.priority != priority {
            return Err(format!(
                "job {} has priority {}, not {priority}",
                status.id, status.priority
            ));
        }
    }
    Ok(())
}

fn with_job(
    args: &[String],
    f: impl FnOnce(&mut Client, u64) -> Result<(), String>,
) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let job = job_id(&mut flags)?;
    flags.finish()?;
    f(&mut client, job).map(|()| EXIT_PASS)
}

fn events(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let job = job_id(&mut flags)?;
    let since = flags.parsed("--since")?.unwrap_or(0);
    flags.finish()?;
    let (events, next) = client.events(job, since)?;
    let mut lines = Vec::with_capacity(events.len() + 1);
    for e in &events {
        lines.push(match &e.kind {
            JobEventKind::State(state) => format!("{} state {state}", e.seq),
            JobEventKind::TileDone { tile, completed, total } => {
                format!("{} tile {tile} done ({completed}/{total})", e.seq)
            }
            JobEventKind::TileRetry { tile, attempt, backoff_vms, reason } => {
                format!(
                    "{} tile {tile} retry after attempt {attempt} (backoff {backoff_vms} vms): {reason}",
                    e.seq
                )
            }
            JobEventKind::TileQuarantined { tile, attempts, reason } => {
                format!("{} tile {tile} quarantined after {attempts} attempts: {reason}", e.seq)
            }
            JobEventKind::CkptDegraded { tile } => {
                format!("{} tile {tile} checkpoint degraded (kept in memory)", e.seq)
            }
            JobEventKind::TileCacheHit { tile } => {
                format!("{} tile {tile} cache hit (served without computing)", e.seq)
            }
            JobEventKind::TileCacheStore { tile } => {
                format!("{} tile {tile} cache store", e.seq)
            }
            JobEventKind::Score { bits, pass } => {
                format!("{} score {} pass {pass}", e.seq, f64::from_bits(*bits))
            }
        });
    }
    lines.push(format!("next_seq {next}"));
    emit_lines(&lines).map(|()| EXIT_PASS)
}

fn results(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let job = job_id(&mut flags)?;
    let partial = flags.present("--partial");
    let wait = flags.present("--wait");
    let owner = owner_flags(&mut flags)?;
    flags.finish()?;
    if wait {
        let status = client.wait(job)?;
        if let Some(err) = &status.error {
            return Err(format!("job {job} failed: {err}"));
        }
    }
    let (status, report_text) = client.results(job, partial)?;
    check_owner(&status, &owner)?;
    print!("{report_text}");
    Ok(status_exit_code(&status))
}

fn list(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    flags.finish()?;
    let jobs = client.list()?;
    let mut rows: Vec<Vec<String>> = vec![
        ["ID", "NAME", "TENANT", "PRIO", "STATE", "TILES", "QUAR", "CACHED"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    ];
    for s in &jobs {
        rows.push(vec![
            s.id.to_string(),
            s.name.clone(),
            s.tenant.clone(),
            s.priority.to_string(),
            s.state.to_string(),
            format!("{}/{}", s.tiles_done, s.tiles_total),
            s.tiles_quarantined.to_string(),
            s.tiles_cached.to_string(),
        ]);
    }
    let mut widths = vec![0_usize; rows[0].len()];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            cells.join("  ").trim_end().to_string()
        })
        .collect();
    emit_lines(&lines).map(|()| EXIT_PASS)
}

fn shutdown(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let mut client = connect(&mut flags)?;
    let drain = flags.present("--drain");
    flags.finish()?;
    client.shutdown_mode(drain).map(|()| EXIT_PASS)
}

fn cache_cmd(args: &[String]) -> Result<u8, String> {
    let Some(action) = args.first() else {
        return Err(format!("cache needs an action: stats, verify, or clear\n{USAGE}"));
    };
    let mut flags = Flags::new(&args[1..]);
    let dir = flags.value("--dir")?.ok_or("--dir DIR is required")?.to_string();
    flags.finish()?;
    let cache = TileCache::open(std::path::Path::new(&dir), None)
        .map_err(|e| format!("open cache {dir}: {e}"))?;
    match action.as_str() {
        "stats" => {
            let s = cache.stats();
            println!(
                "entries {} bytes {} corrupt_dropped {}",
                s.entries, s.bytes, s.corrupt_dropped
            );
        }
        "verify" => {
            let r = cache.verify();
            // The open scan above already dropped any entry whose
            // decode failed, so count those with the verify sweep —
            // a fresh process must still report the corruption it
            // repaired.
            let removed = cache.stats().corrupt_dropped;
            println!("ok {} removed {removed}", r.ok);
            // Corruption that had to be quarantined is an operational
            // error even though the cache is healthy again: CI must see
            // a non-zero exit so silent bit-rot cannot pass a pipeline.
            if removed > 0 {
                return Ok(EXIT_ERROR);
            }
        }
        "clear" => {
            let removed = cache.clear().map_err(|e| format!("clear cache {dir}: {e}"))?;
            println!("cleared {removed}");
        }
        other => {
            return Err(format!("unknown cache action '{other}' (stats|verify|clear)\n{USAGE}"))
        }
    }
    Ok(EXIT_PASS)
}

fn flat(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let gds_path = flags.value("--gds")?.ok_or("--gds FILE is required")?.to_string();
    let spec = spec_from_flags(&mut flags)?;
    flags.finish()?;
    let lib = gds::read_file(&gds_path).map_err(|e| format!("read {gds_path}: {e}"))?;
    if spec.score.is_none() {
        let report = flat_report(&spec, &lib)?;
        print!("{}", report.render_text(&spec));
        return Ok(EXIT_PASS);
    }
    let (report, score) = flat_score(&spec, &lib)?;
    print!("{}", report.render_text(&spec));
    println!("{}", score.render());
    Ok(score.exit_code(false))
}

/// The exit code for a settled, non-failed job status: `Partial`
/// dominates, then a failing score, then pass. Unscored jobs read as
/// passing (code 0 / 2 on quarantine).
fn status_exit_code(status: &JobStatus) -> u8 {
    exit_code(status.score_pass.unwrap_or(true), status.state == JobState::Partial)
}

/// An in-process service for the local `score`/`fix` forms — same
/// deterministic scheduler as `serve`, optionally cache-armed.
fn local_service(threads: usize, cache_dir: Option<&str>) -> Result<SignoffService, String> {
    let cache = match cache_dir {
        None => None,
        Some(dir) => Some(Arc::new(
            TileCache::open(std::path::Path::new(dir), None)
                .map_err(|e| format!("open cache {dir}: {e}"))?,
        )),
    };
    let mut cfg = ServiceConfig::builder().threads(threads);
    if let Some(cache) = cache {
        cfg = cfg.cache(cache);
    }
    Ok(SignoffService::with_config(cfg.build()))
}

/// Submits one job, waits for it to settle, and fetches its score
/// JSON. Failed jobs surface as `Err` (exit 3).
fn run_scored_job(
    service: &SignoffService,
    spec: &JobSpec,
    gds: Vec<u8>,
) -> Result<(JobStatus, String), String> {
    let job = service.submit(spec.clone(), gds)?;
    let status = service.wait(job)?;
    if let Some(err) = &status.error {
        return Err(format!("job {job} failed: {err}"));
    }
    Ok(service.score_json(job)?)
}

fn score_cmd(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let gds_path = flags.value("--gds")?.map(str::to_string);
    // Remote form: fetch the score of a job on a server.
    let Some(gds_path) = gds_path else {
        let mut client = connect(&mut flags)?;
        let job = job_id(&mut flags)?;
        flags.finish()?;
        let (status, score_json) = client.score(job)?;
        println!("{score_json}");
        return Ok(status_exit_code(&status));
    };
    // Local form: run the job through an in-process service.
    let cache_dir = flags.value("--cache")?.map(str::to_string);
    let threads = flags.parsed("--threads")?.unwrap_or(4);
    let mut spec = spec_from_flags(&mut flags)?;
    flags.finish()?;
    if spec.score.is_none() {
        spec.score = Some("default".to_string());
    }
    let bytes = std::fs::read(&gds_path).map_err(|e| format!("read {gds_path}: {e}"))?;
    let service = local_service(threads, cache_dir.as_deref())?;
    let (status, score_json) = run_scored_job(&service, &spec, bytes)?;
    println!("{score_json}");
    Ok(status_exit_code(&status))
}

fn fix(args: &[String]) -> Result<u8, String> {
    let mut flags = Flags::new(args);
    let gds_path = flags.value("--gds")?.ok_or("--gds FILE is required")?.to_string();
    let out_path = flags.value("--out")?.map(str::to_string);
    let cache_dir = flags.value("--cache")?.map(str::to_string);
    let threads = flags.parsed("--threads")?.unwrap_or(4);
    let mut spec = spec_from_flags(&mut flags)?;
    flags.finish()?;
    if spec.score.is_none() {
        spec.score = Some("default".to_string());
    }
    let bytes = std::fs::read(&gds_path).map_err(|e| format!("read {gds_path}: {e}"))?;
    let service = local_service(threads, cache_dir.as_deref())?;

    // Pass 1: score the layout as-is, populating the cache when armed.
    let (before_status, _) = run_scored_job(&service, &spec, bytes.clone())?;
    // The greedy fix search runs on the flat engines (no tiling).
    let outcome = auto_fix(&spec, &bytes)?;
    // Pass 2: resubmit through the same service — with a warm cache
    // only the content-dirty tiles recompute.
    let (after_status, _) = run_scored_job(&service, &spec, outcome.gds.clone())?;

    if let Some(path) = &out_path {
        std::fs::write(path, &outcome.gds).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", fix_report_json(&outcome, &before_status, &after_status).render());
    Ok(status_exit_code(&after_status))
}

/// The `fix` verdict line: aggregate before/after/delta, what was
/// applied, per-metric score deltas, and how much of each service pass
/// the tile cache absorbed.
fn fix_report_json(
    outcome: &FixOutcome,
    before: &JobStatus,
    after: &JobStatus,
) -> JsonValue {
    let metric_deltas: Vec<JsonValue> = outcome
        .score_after
        .metrics
        .iter()
        .map(|m| {
            let prior = outcome
                .score_before
                .metric(&m.key)
                .map_or(m.score, |b| b.score);
            JsonValue::obj([
                ("key", JsonValue::str(m.key.clone())),
                ("before", JsonValue::Num(prior)),
                ("after", JsonValue::Num(m.score)),
                ("delta", JsonValue::Num(m.score - prior)),
            ])
        })
        .collect();
    let job_obj = |s: &JobStatus| {
        JsonValue::obj([
            ("tiles_total", JsonValue::Num(s.tiles_total as f64)),
            ("tiles_cached", JsonValue::Num(s.tiles_cached as f64)),
            (
                "tiles_recomputed",
                JsonValue::Num(s.tiles_total.saturating_sub(s.tiles_cached) as f64),
            ),
        ])
    };
    JsonValue::obj([
        ("changed", JsonValue::Bool(outcome.changed)),
        (
            "applied",
            JsonValue::Arr(outcome.applied.iter().map(JsonValue::str).collect()),
        ),
        ("edits", JsonValue::Num(outcome.edits as f64)),
        ("score_before", JsonValue::Num(outcome.score_before.score)),
        ("score_after", JsonValue::Num(outcome.score_after.score)),
        ("delta", JsonValue::Num(outcome.delta())),
        ("pass_before", JsonValue::Bool(outcome.score_before.pass)),
        ("pass_after", JsonValue::Bool(outcome.score_after.pass)),
        ("metrics", JsonValue::Arr(metric_deltas)),
        (
            "jobs",
            JsonValue::obj([("before", job_obj(before)), ("after", job_obj(after))]),
        ),
    ])
}
