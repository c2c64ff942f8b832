//! End-to-end over a real loopback socket: submit → events → results,
//! cancel/resume, and a full service restart from the checkpoint
//! directory — all byte-compared against the flat single-shot run.

use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::service::JobState;
use dfm_signoff::{flat_report, Client, JobSpec, Server, ServiceConfig, SignoffService};
use std::sync::Arc;
use std::time::Duration;

fn small_gds(seed: u64) -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("gds")
}

fn spec() -> JobSpec {
    JobSpec {
        name: "e2e".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn flat_text(spec: &JobSpec, gds_bytes: &[u8]) -> String {
    let lib = gds::from_bytes(gds_bytes).expect("lib");
    flat_report(spec, &lib).expect("flat").render_text(spec)
}

fn service(threads: usize) -> SignoffService {
    SignoffService::with_config(ServiceConfig::builder().threads(threads).build())
}

fn start_server(service: SignoffService) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(Arc::new(service), 0).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

#[test]
fn wire_round_trip_matches_the_flat_report() {
    let gds_bytes = small_gds(41);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);

    let (addr, handle) = start_server(service(4));
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.ping().expect("ping");

    let job = client.submit(spec.clone(), gds_bytes).expect("submit");
    let status = client.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    // The event stream is complete and gapless when polled in deltas.
    let mut seqs = Vec::new();
    let mut cursor = 0;
    loop {
        let (events, next) = client.events(job, cursor).expect("events");
        seqs.extend(events.iter().map(|e| e.seq));
        if events.is_empty() {
            break;
        }
        cursor = next;
    }
    let expect: Vec<u64> = (0..status.next_seq).collect();
    assert_eq!(seqs, expect, "gapless event stream over the wire");

    let (_, report_text) = client.results(job, false).expect("results");
    assert_eq!(report_text, flat, "wire report must be bit-identical to the flat run");

    let jobs = client.list().expect("list");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].id, job);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn cancel_then_resume_over_the_wire_is_byte_identical() {
    let gds_bytes = small_gds(42);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);

    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(2).tile_delay(Duration::from_millis(25)).build(),
    );
    let (addr, handle) = start_server(service);
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let job = client.submit(spec, gds_bytes).expect("submit");
    let status = client.cancel(job).expect("cancel");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(client.results(job, false).is_err(), "no final report while cancelled");

    client.resume(job).expect("resume");
    let status = client.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, report_text) = client.results(job, false).expect("results");
    assert_eq!(report_text, flat);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn service_restart_resumes_from_checkpoints_to_identical_bytes() {
    let gds_bytes = small_gds(43);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);
    let root = std::env::temp_dir().join(format!("dfms-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // First life: slow tiles, stopped after at least one checkpoint.
    let job = {
        let service =
            SignoffService::with_config(
                ServiceConfig::builder()
                    .threads(2)
                    .ckpt_root(root.clone())
                    .tile_delay(Duration::from_millis(10))
                    .build(),
            );
        let job = service.submit(spec.clone(), gds_bytes).expect("submit");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let status = service.status(job).expect("status");
            if status.tiles_done >= 1 || status.state.is_terminal() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no tile completed in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        service.cancel(job).ok(); // stop scheduling; drop drains the pool
        job
    };
    let ckpt_files = std::fs::read_dir(root.join(format!("job-{job}")))
        .expect("job dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("tile-"))
        .count();
    assert!(ckpt_files >= 1, "at least one tile checkpointed before the stop");

    // Second life: a fresh process loads the job from disk as Partial
    // and resume() recomputes exactly the missing tiles.
    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(4).ckpt_root(root.clone()).build(),
    );
    let status = service.status(job).expect("persisted job is visible");
    assert_eq!(status.state, JobState::Partial);
    service.resume(job).expect("resume");
    let status = service.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, text) = service.report_text(job, false).expect("report");
    assert_eq!(text, flat, "resumed report must be bit-identical to the flat run");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn foreign_versions_are_refused_in_v2_shape_and_rejections_are_structured() {
    use dfm_signoff::{ErrorCode, RequestError, SchedConfig};
    use std::io::{BufRead, BufReader, Write};

    let gds_bytes = small_gds(41);
    let sched = SchedConfig::parse("tenant acme weight 2 max_jobs 1\ntenant beta weight 1\n")
        .expect("plan");
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .sched(sched)
            .tile_delay(Duration::from_millis(20))
            .build(),
    );
    let (addr, handle) = start_server(service);

    // A peer on a raw socket whose *first* frames are bare (the retired
    // v1 dialect) and "v":3: each is refused with `unsupported_version`
    // in v2 shape, and the connection stays usable — the next v2 frame
    // on the same socket succeeds.
    let stream = std::net::TcpStream::connect(addr).expect("connect raw");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |frame: &str| {
        writer.write_all(frame.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };
    for frame in [r#"{"cmd":"ping"}"#, r#"{"v":3,"cmd":"ping"}"#] {
        let reply = ask(frame);
        assert!(
            reply.starts_with(r#"{"v":2,"ok":false,"error":{"code":"unsupported_version","#),
            "{frame} got {reply}"
        );
    }
    assert_eq!(ask(r#"{"v":2,"cmd":"ping"}"#), r#"{"v":2,"ok":true,"pong":true}"#);
    let spec_acme = JobSpec { tenant: "acme".to_string(), ..spec() };
    let submit =
        dfm_signoff::proto::Request::Submit { spec: spec_acme, gds: gds_bytes.clone(), idem: None };
    let reply = ask(&submit.to_json().render());
    assert!(reply.starts_with(r#"{"v":2,"ok":true,"job":"#), "submit accepted: {reply}");

    // While acme's job is active, a second acme submission over a v2
    // client is refused with the typed code and a retry hint…
    let mut client = Client::builder()
        .timeout(Duration::from_secs(30))
        .connect(&addr.to_string())
        .expect("connect");
    let first = client.list().expect("list")[0].id;
    let acme = JobSpec { tenant: "acme".to_string(), ..spec() };
    match client.submit_idem(acme, gds_bytes.clone(), None) {
        Err(RequestError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::QuotaExceeded);
            assert!(err.retry_after_vms.is_some(), "backpressure carries a hint: {err:?}");
        }
        other => panic!("expected structured rejection, got {other:?}"),
    }
    // …and an unknown tenant gets its own code (no retry hint helps).
    let ghost = JobSpec { tenant: "ghost".to_string(), ..spec() };
    match client.submit_idem(ghost, gds_bytes.clone(), None) {
        Err(RequestError::Server(err)) => assert_eq!(err.code, ErrorCode::UnknownTenant),
        other => panic!("expected unknown_tenant, got {other:?}"),
    }
    // beta is under no quota.
    let beta = JobSpec { tenant: "beta".to_string(), ..spec() };
    let beta_job = client.submit(beta, gds_bytes).expect("beta submit");
    let status = client.wait(beta_job).expect("wait beta");
    assert_eq!(status.tenant, "beta", "tenant travels the wire");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    // Once acme's first job settles, the quota frees up again.
    let status = client.wait(first).expect("wait acme");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn hostile_bytes_on_the_socket_never_kill_the_server() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_server(service(1));

    // A parade of malformed frames on one connection: every one must
    // come back as an {"ok":false,...} error, never a hangup.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for frame in [
        "\n",
        "{\n",
        "nonsense\n",
        "[1,2,3]\n",
        "{\"cmd\":\"results\",\"job\":999}\n",
        "{\"v\":2,\"cmd\":\"warp\"}\n",
        "{\"v\":2,\"cmd\":\"submit\",\"spec\":{\"tile\":-4},\"gds_hex\":\"00\"}\n",
        "{\"v\":2,\"cmd\":\"submit\",\"spec\":{},\"gds_hex\":\"0g\"}\n",
        "{\"v\":2,\"cmd\":\"results\",\"job\":999}\n",
    ] {
        writer.write_all(frame.as_bytes()).expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert!(reply.contains("\"ok\":false"), "frame {frame:?} got {reply:?}");
    }
    drop(writer);
    drop(reader);

    // And raw binary garbage on a second connection: the server may
    // close that connection, but must keep serving a third one.
    let mut garbage = std::net::TcpStream::connect(addr).expect("connect 2");
    garbage.write_all(&[0u8, 159, 146, 150, 255, 254, 0, 7, b'\n']).expect("send garbage");
    drop(garbage);

    let mut client = Client::connect(&addr.to_string()).expect("connect 3");
    client.ping().expect("server still alive");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn every_drain_refusal_answers_code_draining() {
    use dfm_signoff::proto::Request;
    use dfm_signoff::{ErrorCode, RequestError};

    let gds_bytes = small_gds(41);
    let (addr, handle) = start_server(service(1));
    // Connected before the drain: the listener stops accepting, the
    // connection stays served.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let job = client.submit(spec(), gds_bytes.clone()).expect("submit");
    client.cancel(job).expect("cancel");
    Client::connect(&addr.to_string()).expect("connect").shutdown_mode(true).expect("drain");
    handle.join().expect("server thread");

    let refusals = [
        client.submit_idem(spec(), gds_bytes.clone(), None).map(|_| ()),
        client.request(&Request::Resume { job }).map(|_| ()),
        client.shard_dispatch(7, 1, 0, spec(), gds_bytes, Some(vec![(0, 1)])).map(|_| ()),
    ];
    for refusal in refusals {
        match refusal {
            Err(RequestError::Server(err)) => {
                assert_eq!(err.code, ErrorCode::Draining, "{err:?}");
                assert_eq!(err.message, "service is draining; no new work is admitted");
                // What `dfm-signoff submit` exits 4 on: nothing was
                // enqueued, resubmit elsewhere.
                assert!(err.code.is_admission_refusal());
            }
            other => panic!("expected a draining refusal, got {other:?}"),
        }
    }
    // A refusal that is not admission's leaves the exit code at 3.
    for (request, code) in [
        (Request::Status { job: 999 }, ErrorCode::NotFound),
        (Request::Submit { spec: spec(), gds: b"garbage".to_vec(), idem: None }, ErrorCode::BadRequest),
    ] {
        match client.request(&request) {
            Err(RequestError::Server(err)) => {
                assert_eq!(err.code, code, "{err:?}");
                assert!(!err.code.is_admission_refusal());
            }
            other => panic!("expected {code:?}, got {other:?}"),
        }
    }
}

/// `events` and `shard.pull` long-poll: at the head of a running job
/// the server answers with the next entry (or the settle), never with
/// an empty delta; at the head of a settled job it answers empty at
/// once, well under the one-second deadline.
#[test]
fn events_and_shard_pull_at_the_head_answer_with_the_next_entry() {
    use std::time::Instant;

    let gds_bytes = small_gds(43);
    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(2).tile_delay(Duration::from_millis(30)).build(),
    );
    let (addr, handle) = start_server(service);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let at_once = Duration::from_millis(900);

    let job = client.submit(spec(), gds_bytes.clone()).expect("submit");
    let mut heads = 0;
    let status = loop {
        let status = client.status(job).expect("status");
        if status.state.is_settled() {
            break status;
        }
        let (events, next) = client.events(job, status.next_seq).expect("events");
        assert!(!events.is_empty(), "events at the head of a running job answered []");
        assert_eq!(events[0].seq, status.next_seq);
        assert_eq!(next, events.last().expect("non-empty").seq + 1);
        heads += 1;
    };
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert!(heads > 0, "the job was never seen running");
    let start = Instant::now();
    let (events, next) = client.events(job, status.next_seq).expect("events");
    assert!(events.is_empty() && next == status.next_seq, "{events:?}");
    assert!(start.elapsed() < at_once, "a settled head answers at once");

    let total = status.tiles_total;
    let grant = client
        .shard_dispatch(7, 1, 0, spec(), gds_bytes, Some(vec![(0, total)]))
        .expect("shard dispatch");
    let mut since = 0;
    let mut pulled = 0;
    loop {
        let (outcomes, next, settled, _) = client.shard_pull(grant.job, since).expect("pull");
        assert!(settled || !outcomes.is_empty(), "a pull at the head of a running job answered []");
        pulled += outcomes.len();
        since = next;
        if settled && pulled == total {
            break;
        }
    }
    let start = Instant::now();
    let (outcomes, next, settled, _) = client.shard_pull(grant.job, since).expect("pull");
    assert!(outcomes.is_empty() && next == since && settled);
    assert!(start.elapsed() < at_once, "a settled head answers at once");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
