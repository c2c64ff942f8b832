//! The `dfm-signoff` command line's contract, checked against real
//! child processes of the built binary: exit codes 0–4, the
//! admission-refusal JSON, the status line, `cache stats|verify`, the
//! `fix` verdict, the serving flags, and three real `kill -9`s. Every
//! other property of the platform is pinned in-process; DESIGN.md
//! ("Where the loopback smokes went") names the test for each. Nothing
//! here sleeps: a server's address is read off its `listening on ADDR`
//! line and progress is awaited with blocking `events` calls.

use dfm_practice::bench::json::JsonValue;
use dfm_practice::signoff::codec::parse_json;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_dfm-signoff");
/// The 6 µm block at 1.7 µm tiles: 16 tiles, litho on.
const SPEC: [&str; 6] = ["--tile", "1700", "--halo", "64", "--litho-layer", "4/0"];
/// Slows every tile so a kill, cancel or drain lands mid-job.
const SLOW: (&str, &str) = ("DFM_SIGNOFF_TILE_DELAY_MS", "60");

/// Runs the binary to completion, requires exit code `want`, and
/// returns its stdout.
fn expect(want: i32, args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn dfm-signoff");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(want), "{args:?}\nstdout: {stdout}\nstderr: {stderr}");
    stdout
}

/// A running child, its stderr discarded (a fault plan's injected
/// panics would flood the test output). Dropping it is `kill -9` (and a
/// reap), so an assertion that panics mid-test leaves no server behind.
struct Proc {
    child: Child,
    out: BufReader<ChildStdout>,
    /// The `listening on ADDR` address of a `serve` / `coordinate` child.
    addr: String,
}

impl Proc {
    fn spawn(args: &[&str], env: &[(&str, &str)]) -> Proc {
        let mut cmd = Command::new(BIN);
        let cmd = cmd.args(args).envs(env.iter().copied()).stdout(Stdio::piped());
        let cmd = cmd.stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn dfm-signoff");
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        Proc { child, out, addr: String::new() }
    }

    /// Starts a server and reads the address it prints first.
    fn server(args: &[&str], env: &[(&str, &str)]) -> Proc {
        let mut proc = Proc::spawn(args, env);
        proc.addr = proc.line().strip_prefix("listening on ").expect("listening line").to_string();
        proc
    }

    /// The child's next stdout line, without its newline.
    fn line(&mut self) -> String {
        let mut line = String::new();
        self.out.read_line(&mut line).expect("read child stdout");
        line.trim_end().to_string()
    }

    /// Waits for the child to end on its own and returns its exit code.
    fn exit(mut self) -> Option<i32> {
        self.child.wait().expect("wait").code()
    }

    /// `shutdown [--drain]`: the command and the server both exit 0.
    fn stop(self, drain: bool) {
        let drain: &[&str] = if drain { &["--drain"] } else { &[] };
        expect(0, &[&["shutdown", "--addr", &self.addr][..], drain].concat());
        assert_eq!(self.exit(), Some(0), "server exit code");
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn serve(flags: &[&str], env: &[(&str, &str)]) -> Proc {
    Proc::server(&[&["serve", "--threads", "2"][..], flags].concat(), env)
}

/// A scratch directory holding the 16-tile block and its flat report.
struct Work {
    dir: PathBuf,
    gds: String,
    flat: String,
}

impl Work {
    fn new(tag: &str) -> Work {
        let dir = std::env::temp_dir().join(format!("dfm-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let gds = dir.join("block.gds").display().to_string();
        expect(0, &["gen", "--out", &gds, "--width", "6000", "--height", "6000", "--seed", "7"]);
        let flat = expect(0, &[&["flat-report", "--gds", &gds][..], &SPEC].concat());
        Work { dir, gds, flat }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    fn submit_args<'a>(&'a self, addr: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        [&["submit", "--addr", addr, "--gds", &self.gds][..], &SPEC, extra].concat()
    }

    /// `submit` of the block to `addr`, exiting `want`: the job id
    /// (and, under `--wait`, the status line) or the refusal JSON.
    fn submit(&self, want: i32, addr: &str, extra: &[&str]) -> String {
        expect(want, &self.submit_args(addr, extra)).trim_end().to_string()
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `cmd --addr ADDR --job JOB extra…`, exiting `want`.
fn on_job(want: i32, cmd: &str, addr: &str, job: &str, extra: &[&str]) -> String {
    expect(want, &[&[cmd, "--addr", addr, "--job", job][..], extra].concat())
}

/// Follows `events` (each call long-polls at the job's head) until a
/// line containing `pat` arrives.
fn await_event(addr: &str, job: &str, pat: &str) {
    let mut since = "0".to_string();
    for _ in 0..100 {
        let out = on_job(0, "events", addr, job, &["--since", &since]);
        let (events, next) = out.trim_end().rsplit_once('\n').unwrap_or(("", out.trim_end()));
        if events.contains(pat) {
            return;
        }
        since = next.strip_prefix("next_seq ").expect("next_seq line").to_string();
    }
    panic!("job {job}: no event containing {pat:?}");
}

/// The files in `dir` whose names start with `prefix`.
fn files(dir: &str, prefix: &str) -> Vec<PathBuf> {
    let paths = std::fs::read_dir(dir).expect("read dir").map(|e| e.expect("entry").path());
    paths.filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix)).collect()
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("no field {key}"))
}

#[test]
fn fault_plans_exit_0_after_retries_and_2_on_quarantine() {
    let w = Work::new("fault");
    for (plan, rule, want) in [("retry", "attempt<1", 0), ("quarantine", "key=1", 2)] {
        let path = w.path(plan);
        std::fs::write(&path, format!("seed 11\nrule signoff.tile.compute panic {rule}\n")).unwrap();
        let server = serve(&["--fault-plan", &path], &[]);
        let job = w.submit(0, &server.addr, &[]);
        let report = on_job(want, "results", &server.addr, &job, &["--wait"]);
        let status = on_job(0, "status", &server.addr, &job, &[]);
        if want == 0 {
            assert_eq!(report, w.flat);
            assert!(status.contains(": done tiles 16/16 quarantined 0 "), "{status}");
            let events = on_job(0, "events", &server.addr, &job, &[]);
            assert!(events.contains(" retry after attempt 0 "), "{events}");
        } else {
            let manifest = "\nquarantine: 1 tiles excluded\nquarantine.tile 1: ";
            assert!(report.contains(manifest), "{report}");
            assert!(status.contains(": partial tiles 15/16 quarantined 1 "), "{status}");
        }
        server.stop(false);
    }
}

#[test]
fn warm_cache_serves_every_tile_and_verify_exits_3_on_corruption() {
    let w = Work::new("cache");
    let cache = w.path("cache");
    let server = serve(&["--cache", &cache], &[]);
    for cached in [" cached 0 ", " cached 16 "] {
        let out = w.submit(0, &server.addr, &["--wait"]);
        let (job, status) = out.split_once('\n').expect("job id, then the status line");
        assert!(status.contains(": done tiles 16/16 ") && status.contains(cached), "{status}");
        assert_eq!(on_job(0, "results", &server.addr, job, &[]), w.flat);
    }
    server.stop(false);

    assert!(expect(0, &["cache", "stats", "--dir", &cache]).starts_with("entries 16 bytes "));
    assert!(expect(0, &["cache", "verify", "--dir", &cache]).ends_with(" removed 0\n"));
    let entry = &files(&cache, "e-")[0];
    let mut bytes = std::fs::read(entry).unwrap();
    bytes.extend_from_slice(b"bit-rot");
    std::fs::write(entry, bytes).unwrap();
    assert!(expect(3, &["cache", "verify", "--dir", &cache]).ends_with(" removed 1\n"));
    assert!(expect(0, &["cache", "verify", "--dir", &cache]).ends_with(" removed 0\n"));
}

#[test]
fn score_and_fix_exit_by_the_contract_and_fix_writes_its_verdict() {
    let w = Work::new("score");
    let cache = w.path("cache");
    let score = |gds: &str, extra: &[&str], want| {
        let out = expect(want, &[&["score", "--gds", gds][..], &SPEC, extra].concat());
        parse_json(&out).expect("score JSON")
    };
    let before = score(&w.gds, &["--cache", &cache], 0);
    assert_eq!(field(&before, "pass").as_bool(), Some(true));
    let strict = w.path("strict.spec");
    std::fs::write(&strict, "pass 1.0\nmetric via.redundancy weight 1 scorer identity\n").unwrap();
    score(&w.gds, &["--score", &strict], 1);
    expect(3, &["score", "--gds", &w.path("missing.gds")]);
    // A stdout reader that has gone away is an early exit, not a panic.
    for args in [[&["flat-report", "--gds", &w.gds][..], &SPEC].concat(), vec!["--help"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(BIN).args(&args).stdout(writer).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}\nstderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}\nstderr: {stderr}");
    }

    let fixed = w.path("fixed.gds");
    let fix = [&["fix", "--gds", &w.gds][..], &SPEC, &["--cache", &cache, "--out", &fixed]];
    let verdict = parse_json(&expect(0, &fix.concat())).expect("fix JSON");
    let (was, now) = (field(&verdict, "score_before"), field(&verdict, "score_after"));
    assert_eq!(field(&verdict, "changed").as_bool(), Some(true));
    assert_eq!(was.as_f64(), field(&before, "score").as_f64());
    assert!(now.as_f64() > was.as_f64());
    // Pass 1 rode the cache the score run warmed.
    let pass1 = field(field(&verdict, "jobs"), "before");
    assert_eq!(field(pass1, "tiles_recomputed").as_f64(), Some(0.0));
    // `--out` wrote the fixed layout: scoring it gives the after-score.
    assert_eq!(field(&score(&fixed, &[], 0), "score").as_f64(), now.as_f64());
}

#[test]
fn tenant_refusals_print_the_error_object_and_exit_4() {
    let w = Work::new("tenants");
    let plan = w.path("tenants.conf");
    std::fs::write(&plan, "tenant acme weight 2\ntenant beta weight 1 max_tiles 4\n").unwrap();
    let server = serve(&["--tenants", &plan], &[]);
    // beta may queue 4 tiles and the block has 16: refused by count.
    for (tenant, code, hint) in [("beta", "quota_exceeded", true), ("x", "unknown_tenant", false)] {
        let refusal = parse_json(&w.submit(4, &server.addr, &["--tenant", tenant])).expect("JSON");
        assert_eq!(field(&refusal, "code").as_str(), Some(code));
        assert_eq!(refusal.get("retry_after_vms").is_some(), hint);
    }

    let out = w.submit(0, &server.addr, &["--tenant", "acme", "--priority", "3", "--wait"]);
    let (job, status) = out.split_once('\n').expect("job id, then the status line");
    assert!(status.contains(" tenant acme prio 3: done tiles 16/16 "), "{status}");
    on_job(3, "results", &server.addr, job, &["--tenant", "beta"]);
    let report = on_job(0, "results", &server.addr, job, &["--tenant", "acme", "--priority", "3"]);
    // The spec line names the tenant; every other line is the flat report.
    let body = |r: &str| r.lines().filter(|l| !l.starts_with("spec: ")).collect::<String>();
    assert_eq!(body(&report), body(&w.flat));
    server.stop(false);
}

#[test]
fn coordinated_shards_survive_a_kill_9_of_the_coordinator_and_of_one_shard() {
    let w = Work::new("shards");
    let ckpt = w.path("ckpt");
    let a = serve(&["--shard-of", "0/2"], &[SLOW]);
    let b = serve(&["--shard-of", "1/2"], &[SLOW]);
    let shards = format!("{},{}", a.addr, b.addr);
    let args = ["coordinate", "--shards", &shards, "--threads", "2", "--ckpt", &ckpt];
    let coord = || Proc::server(&args, &[]);
    // kill -9 the coordinator once a tile is merged, while both shards
    // still compute: the next one reattaches to their jobs and replays.
    let first = coord();
    let job = w.submit(0, &first.addr, &[]);
    await_event(&first.addr, &job, " done (");
    drop(first);
    for shard in [&a, &b] {
        // A fresh shard numbers its first job 1.
        let status = on_job(0, "status", &shard.addr, "1", &[]);
        assert!(status.contains(": running "), "{status}");
    }
    let coord = coord();
    on_job(0, "resume", &coord.addr, &job, &[]);
    assert_eq!(on_job(0, "results", &coord.addr, &job, &["--wait"]), w.flat);
    // Reattached: neither shard holds a second job.
    for shard in [&a, &b] {
        on_job(3, "status", &shard.addr, "2", &[]);
    }

    let job = w.submit(0, &coord.addr, &[]);
    // Event 1 exists once the job runs; shard 0 still owes its slowed range.
    on_job(0, "events", &coord.addr, &job, &["--since", "1"]);
    drop(a);
    assert_eq!(on_job(0, "results", &coord.addr, &job, &["--wait"]), w.flat);
    coord.stop(false);
    b.stop(false);
}

#[test]
fn kill_9_and_drain_resume_to_the_flat_bytes_and_a_cancelled_wait_exits_3() {
    let w = Work::new("lives");
    let ckpt = w.path("ckpt");
    let tiles = |job: &str| files(&format!("{ckpt}/job-{job}"), "tile-").len();
    let first = serve(&["--ckpt", &ckpt], &[SLOW]);
    // A script waiting on a job that is cancelled must not read success.
    let mut waiter = Proc::spawn(&w.submit_args(&first.addr, &["--wait"]), &[]);
    let cancelled = waiter.line();
    on_job(0, "cancel", &first.addr, &cancelled, &[]);
    assert_eq!(waiter.exit(), Some(3), "submit --wait on a cancelled job");
    let partial = ["results", "--addr", &first.addr, "--job", &cancelled, "--partial"];
    let out = Command::new(BIN).args(partial).output().expect("spawn dfm-signoff");
    let err = format!("dfm-signoff: job {cancelled} was cancelled\n");
    assert_eq!((out.status.code(), String::from_utf8_lossy(&out.stderr)), (Some(3), err.into()));

    // kill -9 once a tile is checkpointed: the job reloads `partial`.
    let job = w.submit(0, &first.addr, &[]);
    await_event(&first.addr, &job, " done (");
    drop(first);
    let killed = tiles(&job);
    let second = serve(&["--ckpt", &ckpt], &[SLOW]);
    let status = format!("job {job} 'job' tenant default prio 0: partial tiles 0/0 quarantined 0");
    let status = format!("{status} cached 0 next_seq 1 error -\n");
    assert_eq!(on_job(0, "status", &second.addr, &job, &[]), status);

    // Resumed, then drained mid-run: the drain checkpoints what it ran.
    on_job(0, "resume", &second.addr, &job, &[]);
    await_event(&second.addr, &job, " done (");
    second.stop(true);
    assert!(tiles(&job) > killed && killed > 0, "{killed} tiles before the drain");
    let third = serve(&["--ckpt", &ckpt], &[]);
    on_job(0, "resume", &third.addr, &job, &[]);
    assert_eq!(on_job(0, "results", &third.addr, &job, &["--wait"]), w.flat);
    third.stop(false);
}
