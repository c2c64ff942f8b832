//! The six closed-loop workloads: set-up, measured phase, output check.
//!
//! Every workload drives the service as `dfm-signoff serve` configures
//! it: pool threads = `min(nproc, 4)`, `DFM_THREADS` left alone. Each
//! client sends its next job only when the previous report is in hand.

use crate::inputs;
use dfm_cache::TileCache;
use dfm_layout::{gds, layers, Library};
use dfm_signoff::{
    flat_report, Client, JobContext, JobSpec, JobState, JobStatus, SchedConfig, Server,
    ServiceConfig, SignoffService,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `(name, why, measured jobs per second of --seconds)` of every
/// workload, in run order. The measured phase is sized in jobs, not in
/// time: `--seconds` times the rate, so it lasts about `--seconds` at the
/// commit that defined the benchmark, while tile, cache and memory
/// counts repeat exactly from run to run (the service keeps every job it
/// has seen, so `peak_rss_mb` follows the job count).
pub const WORKLOADS: [(&str, &str, f64); 6] = [
    ("cold_drc_ca", "default DRC+CA job, 100 uncached tiles in-process: drc and yieldsim are the job", 3.0),
    ("cold_litho", "same tile pipeline with METAL1 litho on: raster and blur dominate, DRC is the minority", 2.4),
    ("edit_resubmit", "one-rect edits on a cache-armed service: 96-99 of 100 tiles hit, 1-4 recompute and are stored", 20.0),
    ("wire_warm", "fully cached job over loopback TCP: proto, codec, server and client are the job", 7.0),
    ("shard_2x1", "coordinator plus two 1-thread shards on a tiny hierarchical GDS: dispatch, streaming, merge", 12.0),
    ("tenants_mixed", "weight-2 interactive tenant behind a weight-1 bulk tenant: sched, window and pool intake", 3.0),
];

/// Tenant plan of `tenants_mixed`.
const TENANT_PLAN: &str = "tenant bulk weight 1\ntenant inter weight 2\n";
/// `shard_2x1` array. Small on purpose: outcome frames grow with the
/// array, `parse_json` grows faster than the frame, and the puller batches
/// whatever settled while it was parsing, so from about 20 x 20 up job time
/// turns bimodal (a batch of three costs nine single frames) and no median
/// over a ten-second run is steady.
const SRAM_ROWS: u16 = 12;
const SRAM_COLS: u16 = 12;
/// On `edit_resubmit`, every edit with `k % EDIT_CHECK_EVERY == 0` is
/// checked against the flat path after the measured phase.
const EDIT_CHECK_EVERY: u64 = 20;

/// Pool threads as `dfm-signoff serve` would pick on this host.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory under `benchmark/out/` keyed by pid, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: results, traces and scratch roots — all inside the
/// checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A `Server` accepting on its own thread until the value is dropped.
pub struct Served {
    pub addr: String,
    pub service: Arc<SignoffService>,
    thread: Option<JoinHandle<()>>,
}

impl Served {
    pub fn start(service: Arc<SignoffService>) -> Served {
        let server = Server::bind(Arc::clone(&service), 0).expect("bind loopback port 0");
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || {
            let _ = server.serve();
        });
        Served {
            addr,
            service,
            thread: Some(thread),
        }
    }
}

impl Drop for Served {
    /// Sends the shutdown frame and waits for the accept loop to end.
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One job as a client sees it: submit, wait, fetch the report text.
pub enum Target<'a> {
    Local(&'a SignoffService),
    Wire(&'a mut Client),
}

impl Target<'_> {
    pub fn run_job(&mut self, spec: &JobSpec, gds: Vec<u8>) -> Result<(JobStatus, String), String> {
        match self {
            Target::Local(service) => {
                let id = service.submit(spec.clone(), gds)?;
                service.wait(id)?;
                service.report_text(id, false)
            }
            Target::Wire(client) => {
                let id = client.submit(spec.clone(), gds)?;
                client.wait(id)?;
                client.results(id, false)
            }
        }
    }
}

/// A job's fixed inputs.
#[derive(Clone)]
pub struct JobInput {
    pub spec: JobSpec,
    pub lib: Library,
    pub gds: Vec<u8>,
    /// Tiles the job decomposes into.
    pub tiles: usize,
}

impl JobInput {
    fn new(spec: JobSpec, lib: Library, gds: Vec<u8>) -> JobInput {
        let tiles = JobContext::build(&spec, &gds)
            .expect("generated job builds")
            .tile_count();
        JobInput {
            spec,
            lib,
            gds,
            tiles,
        }
    }

    /// A routed block of one of the three sides the workloads use, each
    /// with its nominal GDS size (the mean over seeds).
    fn routed(name: &str, side: i64, tile: i64, seed: u64) -> JobInput {
        let nominal_bytes = match side {
            40_000 => 592_000,
            20_000 => 146_000,
            12_000 => 51_000,
            _ => unreachable!("no nominal size for a {side} nm block"),
        };
        let spec = JobSpec {
            name: name.to_string(),
            tile,
            halo: 512,
            ..JobSpec::default()
        };
        let (lib, gds) = inputs::routed_block(side, nominal_bytes, seed);
        JobInput::new(spec, lib, gds)
    }

    /// The report the independent flat path gives for this input.
    pub fn flat_text(&self) -> String {
        flat_text(&self.spec, &self.lib)
    }
}

fn flat_text(spec: &JobSpec, lib: &Library) -> String {
    flat_report(spec, lib)
        .expect("flat report of a generated layout")
        .render_text(spec)
}

/// Everything a workload needs between set-up and tear-down. Dropping it
/// shuts the servers down, joins their threads and removes the scratch
/// roots (fields drop in declaration order).
pub struct Env {
    pub name: &'static str,
    /// The measured job (on `tenants_mixed`: the `inter` tenant's).
    pub job: JobInput,
    /// `tenants_mixed` only: the `bulk` tenant's job.
    pub bulk: Option<JobInput>,
    /// `edit_resubmit` only: the edits of `job`'s layout.
    pub edits: Option<inputs::Edits>,
    client: Option<Client>,
    servers: Vec<Served>,
    /// The service jobs land on: in-process target, server side of
    /// `wire_warm`, coordinator of `shard_2x1`.
    pub service: Arc<SignoffService>,
    pub cache: Option<Arc<TileCache>>,
    scratch: Scratch,
}

type Config = dfm_signoff::ServiceConfigBuilder;

fn config() -> Config {
    ServiceConfig::builder().threads(pool_threads())
}

fn service(cfg: Config) -> Arc<SignoffService> {
    Arc::new(SignoffService::with_config(cfg.build()))
}

/// Builds inputs, boots the service (and servers), runs priming jobs.
/// Everything here is what `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Result<Env, String> {
    let name = WORKLOADS
        .iter()
        .map(|(n, ..)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let scratch = Scratch::new(name);
    let mut env = match name {
        "cold_drc_ca" => Env::new(
            name,
            JobInput::routed(name, 40_000, 4096, seed),
            service(config()),
            scratch,
        ),
        "cold_litho" => {
            let mut job = JobInput::routed(name, 20_000, 2048, seed);
            job.spec.litho_layer = Some(layers::METAL1);
            Env::new(name, job, service(config()), scratch)
        }
        "edit_resubmit" => {
            let job = JobInput::routed(name, 40_000, 4096, seed);
            let cache = open_cache(&scratch);
            let svc = service(config().cache(Arc::clone(&cache)));
            let mut env = Env::new(name, job, svc, scratch);
            env.edits = Some(inputs::Edits::new(&env.job.lib, 40_000, seed));
            env.cache = Some(cache);
            env
        }
        "wire_warm" => {
            let job = JobInput::routed(name, 12_000, 2048, seed);
            let cache = open_cache(&scratch);
            let served = Served::start(service(config().cache(Arc::clone(&cache))));
            let client = Client::connect(&served.addr)?;
            let mut env = Env::new(name, job, Arc::clone(&served.service), scratch);
            env.cache = Some(cache);
            env.client = Some(client);
            env.servers = vec![served];
            env
        }
        "shard_2x1" => {
            let spec = JobSpec {
                name: name.to_string(),
                tile: 2048,
                halo: 512,
                ..JobSpec::default()
            };
            let lib = inputs::sram_array(SRAM_ROWS, SRAM_COLS);
            let gds = inputs::encode(&lib);
            let job = JobInput::new(spec, lib, gds);
            let servers: Vec<Served> = (0..2)
                .map(|k| Served::start(service(ServiceConfig::builder().threads(1).shard_of(k, 2))))
                .collect();
            let addrs = servers.iter().map(|s| s.addr.clone()).collect();
            let mut env = Env::new(name, job, service(config().shards(addrs)), scratch);
            env.servers = servers;
            env
        }
        "tenants_mixed" => {
            let tenant = |tenant: &str, mut job: JobInput| {
                job.spec.tenant = tenant.to_string();
                job
            };
            let bulk = tenant("bulk", JobInput::routed("bulk", 40_000, 4096, seed));
            let inter = tenant(
                "inter",
                JobInput::routed("inter", 12_000, 4096, seed.wrapping_add(1)),
            );
            let plan = SchedConfig::parse(TENANT_PLAN)?;
            let mut env = Env::new(name, inter, service(config().sched(plan)), scratch);
            env.bulk = Some(bulk);
            env
        }
        _ => unreachable!("name was matched against WORKLOADS"),
    };
    env.prime()?;
    Ok(env)
}

fn open_cache(scratch: &Scratch) -> Arc<TileCache> {
    Arc::new(TileCache::open(scratch.path().join("cache"), None).expect("open tile cache"))
}

impl Env {
    fn new(
        name: &'static str,
        job: JobInput,
        service: Arc<SignoffService>,
        scratch: Scratch,
    ) -> Env {
        Env {
            name,
            job,
            bulk: None,
            edits: None,
            client: None,
            servers: Vec::new(),
            service,
            cache: None,
            scratch,
        }
    }

    /// The workload's scratch root, removed when the `Env` is dropped.
    pub fn scratch(&self) -> &Path {
        self.scratch.path()
    }

    /// Address of the first server (`wire_warm`: the one clients talk to).
    pub fn server_addr(&self) -> Option<&str> {
        self.servers.first().map(|s| s.addr.as_str())
    }

    pub fn target(&mut self) -> Target<'_> {
        match &mut self.client {
            Some(client) => Target::Wire(client),
            None => Target::Local(&self.service),
        }
    }

    /// Priming jobs: warm-ups on the cold workloads, the cache fill on the
    /// warm ones. Their reports are not checked; the measured jobs' are.
    fn prime(&mut self) -> Result<(), String> {
        let warmups = match self.name {
            "cold_drc_ca" | "cold_litho" => 2,
            _ => 1,
        };
        let job = self.job.clone();
        for _ in 0..warmups {
            self.target().run_job(&job.spec, job.gds.clone())?;
        }
        if let Some(bulk) = self.bulk.clone() {
            self.target().run_job(&bulk.spec, bulk.gds)?;
        }
        Ok(())
    }

    /// Tiles settled so far across every job the service has seen; the
    /// difference of two snapshots is the tile count of a phase.
    fn settled_tiles(&self) -> u64 {
        self.service
            .list()
            .iter()
            .map(|s| s.tiles_done as u64)
            .sum()
    }
}

/// What the measured phase observed.
#[derive(Default)]
pub struct Phase {
    /// Submit-to-report wall time of every measured job, in ms (on
    /// `tenants_mixed`: the `inter` tenant's jobs).
    pub job_ms: Vec<f64>,
    /// `tenants_mixed` only: the `bulk` jobs that finished in the phase.
    pub bulk_job_ms: Vec<f64>,
    /// Tiles settled during the phase, all clients.
    pub tiles: u64,
    /// Wall time of the phase minus client think time (input generation
    /// between jobs, nonzero only on `edit_resubmit`).
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Report text of the first measured job.
    first_report: String,
    /// `edit_resubmit`: `(k, report)` of the edits to check afterwards.
    edit_reports: Vec<(u64, String)>,
    /// The first few failures, for the human-readable output.
    pub diagnostics: Vec<String>,
}

impl Phase {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.diagnostics.len() < 8 {
            self.diagnostics.push(what);
        }
    }

    /// Books one finished job: anything but a `Done` job of `tiles` tiles
    /// is a failure. Returns the report text of a good job.
    fn book(
        &mut self,
        label: &str,
        result: Result<(JobStatus, String), String>,
        tiles: usize,
    ) -> Option<(JobStatus, String)> {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.fail(format!("{label}: {e}"));
                None
            }
            Ok((status, _)) if status.state != JobState::Done || status.tiles_total != tiles => {
                self.fail(format!(
                    "{label}: state {} with {}/{} tiles, want done with {tiles}",
                    status.state, status.tiles_done, status.tiles_total
                ));
                None
            }
            Ok(ok) => Some(ok),
        }
    }

    /// One timed resubmission of fixed bytes: a good job adds its time to
    /// `job_ms`, and its report must equal the first one's.
    fn resubmit(&mut self, label: &str, mut target: Target<'_>, job: &JobInput) {
        let gds = job.gds.clone();
        let t = Instant::now();
        let result = target.run_job(&job.spec, gds);
        let ms = ms_since(t);
        if let Some((_, text)) = self.book(label, result, job.tiles) {
            self.job_ms.push(ms);
            if self.first_report.is_empty() {
                self.first_report = text;
            } else if text != self.first_report {
                self.fail(format!("{label}: report differs from the first job's"));
            }
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the closed loop: `seconds` times the workload's job rate, at
/// least one job.
pub fn measure(env: &mut Env, seconds: f64) -> Phase {
    let rate = WORKLOADS
        .iter()
        .find(|(n, ..)| *n == env.name)
        .expect("env names a workload")
        .2;
    let jobs = ((seconds * rate).round() as u64).max(1);
    match env.name {
        "edit_resubmit" => measure_edits(env, jobs),
        "tenants_mixed" => measure_tenants(env, jobs),
        _ => measure_fixed(env, jobs),
    }
}

/// One client resubmitting the same bytes.
fn measure_fixed(env: &mut Env, jobs: u64) -> Phase {
    let mut phase = Phase::default();
    let job = env.job.clone();
    let tiles_before = env.settled_tiles();
    let start = Instant::now();
    for k in 0..jobs {
        phase.resubmit(&format!("job {k}"), env.target(), &job);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.tiles = env.settled_tiles() - tiles_before;
    phase
}

/// One client submitting the base plus one unique seeded rectangle per
/// job. Generating the bytes is client think time, outside every timer.
fn measure_edits(env: &mut Env, jobs: u64) -> Phase {
    let mut phase = Phase::default();
    let job = env.job.clone();
    let tiles_before = env.settled_tiles();
    let mut think = Duration::ZERO;
    let start = Instant::now();
    for k in 0..jobs {
        let label = format!("edit {k}");
        let t = Instant::now();
        let gds = env
            .edits
            .as_ref()
            .expect("edit_resubmit has an edit series")
            .gds(k);
        think += t.elapsed();
        let t = Instant::now();
        let result = env.target().run_job(&job.spec, gds);
        let ms = ms_since(t);
        if let Some((status, text)) = phase.book(&label, result, job.tiles) {
            phase.job_ms.push(ms);
            let recomputed = status.tiles_total - status.tiles_cached;
            if !(1..=4).contains(&recomputed) {
                phase.fail(format!("{label}: {recomputed} tiles recomputed, want 1-4"));
            }
            if k % EDIT_CHECK_EVERY == 0 {
                phase.edit_reports.push((k, text));
            }
        }
    }
    phase.wall_s = (start.elapsed() - think).as_secs_f64();
    phase.tiles = env.settled_tiles() - tiles_before;
    phase
}

/// Two client threads on one service: `bulk` resubmits back-to-back while
/// `inter` runs its closed loop. The phase closes with the last `inter`
/// job: tiles `bulk` has settled by then count, the rest of its in-flight
/// job is waited for and checked but not counted.
fn measure_tenants(env: &mut Env, jobs: u64) -> Phase {
    let mut phase = Phase::default();
    let inter = env.job.clone();
    let bulk = env.bulk.clone().expect("tenants_mixed has a bulk job");
    let service = Arc::clone(&env.service);
    let stop = AtomicBool::new(false);
    let tiles_before = env.settled_tiles();
    let start = Instant::now();
    let mut bulk_phase = std::thread::scope(|scope| {
        let bulk_client = scope.spawn(|| {
            let mut phase = Phase::default();
            while !stop.load(Ordering::SeqCst) {
                let in_phase = phase.job_ms.len();
                let label = format!("bulk job {}", phase.attempted);
                phase.resubmit(&label, Target::Local(&service), &bulk);
                if stop.load(Ordering::SeqCst) {
                    // Finished after the phase closed: checked, not timed.
                    phase.job_ms.truncate(in_phase);
                }
            }
            phase
        });
        for k in 0..jobs {
            phase.resubmit(&format!("inter job {k}"), Target::Local(&service), &inter);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.tiles = env.settled_tiles() - tiles_before;
        stop.store(true, Ordering::SeqCst);
        bulk_client.join().expect("bulk client thread")
    });
    if bulk_phase.first_report != bulk.flat_text() {
        bulk_phase.fail("bulk: first report differs from the flat path".to_string());
    }
    phase.attempted += bulk_phase.attempted;
    phase.failed += bulk_phase.failed;
    phase.diagnostics.extend(bulk_phase.diagnostics);
    phase.bulk_job_ms = bulk_phase.job_ms;
    phase
}

/// The output check against the independent flat path; run after the
/// measured phase, outside every timer. Adds to `phase.failed`.
pub fn verify(env: &Env, phase: &mut Phase) {
    if env.name == "edit_resubmit" {
        for (k, text) in std::mem::take(&mut phase.edit_reports) {
            let bytes = env
                .edits
                .as_ref()
                .expect("edit_resubmit has an edit series")
                .gds(k);
            let lib = gds::from_bytes(&bytes).expect("edited layout parses");
            if text != flat_text(&env.job.spec, &lib) {
                phase.fail(format!("edit {k}: report differs from the flat path"));
            }
        }
    } else if phase.first_report != env.job.flat_text() {
        phase.fail("first report differs from the flat path".to_string());
    }
}
