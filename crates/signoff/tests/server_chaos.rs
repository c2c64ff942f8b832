//! Socket-chaos suite: the TCP server under injected mid-frame drops
//! of its own response writes, plus clients that vanish mid-request.
//! Whatever the connection carnage, the server must never deadlock,
//! never stop accepting, never leak a pool task, and never emit a
//! non-monotonic or gapped event sequence.

use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::server::SITE_SERVER_WRITE;
use dfm_signoff::service::JobState;
use dfm_signoff::{flat_report, Client, JobSpec, Server, ServiceConfig, SignoffService};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        name: "chaos".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// Runs one request against a fresh connection, reconnecting until it
/// survives the drop chaos. Only used for idempotent reads.
fn with_retry<T>(addr: SocketAddr, mut f: impl FnMut(&mut Client) -> Result<T, String>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut client) = Client::connect(&addr.to_string()) {
            if let Ok(v) = f(&mut client) {
                return v;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server unreachable through the chaos"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A connection whose *first* frame fails — wrong version, torn at
/// EOF, or not UTF-8 — is answered in the one v2 shape (`"v":2`, a
/// structured `ErrorObj`), never a bare string: there is no earlier
/// frame to borrow a dialect from, and no other dialect to borrow.
#[test]
fn a_failing_first_frame_is_answered_in_v2_shape() {
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder().threads(1).build(),
    ));
    let server = Server::bind(Arc::clone(&service), 0).expect("bind");
    let addr = server.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    let first_reply = |bytes: &[u8]| -> String {
        let stream = TcpStream::connect(addr).expect("connect");
        (&stream).write_all(bytes).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };

    let reply = first_reply(b"{\"v\":3,\"cmd\":\"ping\"}\n");
    assert!(
        reply.starts_with(r#"{"v":2,"ok":false,"error":{"code":"unsupported_version","#),
        "{reply}"
    );
    // Framing violations close the connection after the one answer.
    for torn in [&b"{\"v\":2,\"cmd\":\"stat"[..], &[0xff, 0xfe, b'\n'][..]] {
        let reply = first_reply(torn);
        assert!(
            reply.starts_with(r#"{"v":2,"ok":false,"error":{"code":"bad_request","#),
            "{torn:?} got {reply}"
        );
    }

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.ping().expect("server unharmed");
    let _ = client.shutdown();
}

/// Every failure code a live server can answer, asserted on the raw
/// reply line — code *and* message bytes — so the vocabulary is pinned
/// where a script reads it, whatever types carry it inside the server.
#[test]
fn every_error_code_a_live_server_answers_is_pinned_on_the_raw_reply_line() {
    use dfm_signoff::proto::Request;
    use dfm_signoff::SchedConfig;

    let gds_bytes = small_gds(41);
    // One slow 16-tile job holds tenant acme's only job slot and most
    // of the 20-tile pending ceiling, so each admission code has a
    // submission that earns it.
    let sched = SchedConfig::parse(
        "tenant acme weight 1 max_jobs 1\ntenant wide weight 1\n\
         global max_inflight 1 max_pending_tiles 20\n",
    )
    .expect("plan");
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(1)
            .sched(sched)
            .tile_delay(Duration::from_millis(50))
            .build(),
    );
    let server = Server::bind(Arc::new(service), 0).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |frame: String| -> String {
        (&stream)
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };
    // An error frame up to the end of its message: a hint-less one
    // closes right there, a backpressure one goes on to
    // `retry_after_vms` (a timing-dependent count of queued tiles).
    let refused = |code: &str, message: &str| {
        format!(r#"{{"v":2,"ok":false,"error":{{"code":"{code}","message":"{message}"#)
    };
    let (end, hint) = (r#""}}"#, r#"","retry_after_vms":"#);
    let submit = |tenant: &str, gds: &[u8]| {
        let spec = JobSpec {
            tenant: tenant.to_string(),
            ..spec()
        };
        Request::Submit {
            spec,
            gds: gds.to_vec(),
            idem: None,
        }
        .to_json()
        .render()
    };

    // not_found: every id-taking command on an id nobody minted.
    for cmd in [
        "status",
        "events",
        "results",
        "score",
        "cancel",
        "resume",
        "shard.pull",
    ] {
        let reply = ask(format!(r#"{{"v":2,"cmd":"{cmd}","job":999}}"#));
        assert_eq!(
            reply,
            refused("not_found", "no such job: 999") + end,
            "{cmd}"
        );
    }
    // A retired command is an unknown one: refused as the client's
    // fault, and the connection goes on serving the next ask.
    let reply = ask(r#"{"v":2,"cmd":"shard.heartbeat","job":999}"#.to_string());
    assert_eq!(
        reply,
        r#"{"v":2,"ok":false,"error":{"code":"bad_request","message":"unknown cmd 'shard.heartbeat'"}}"#
    );
    let reply = ask(r#"{"v":2,"cmd":"shard.attach","coord":7,"origin":1,"gen":0}"#.to_string());
    let unknown_key = "no such job: coordinator 0x7 origin 1 gen 0 is not dispatched here";
    assert_eq!(reply, refused("not_found", unknown_key) + end);

    // The same unreadable GDS is the client's fault on `submit` and a
    // plain failure on `shard.dispatch`.
    let garbage = b"garbage".to_vec();
    let layout_rejected = "layout rejected: malformed GDSII at byte 0: bad record length 26465";
    assert_eq!(
        ask(submit("acme", &garbage)),
        refused("bad_request", layout_rejected) + end
    );
    let dispatch = Request::ShardDispatch {
        coord: 7,
        origin: 1,
        gen: 0,
        spec: spec(),
        gds: garbage,
        ranges: Some(vec![(0, 1)]),
    };
    assert_eq!(
        ask(dispatch.to_json().render()),
        refused("error", layout_rejected) + end
    );

    // The admission codes, while job 1 holds the quota — `busy` first,
    // while most of its tiles are still pending (how many is timing).
    assert_eq!(
        ask(submit("acme", &gds_bytes)),
        r#"{"v":2,"ok":true,"job":1}"#
    );
    let reply = ask(submit("wide", &gds_bytes));
    let (busy, ceiling) = reply.split_once(" tiles already pending; ").expect(&reply);
    let pending = busy.strip_prefix(&refused("busy", "")).expect(&reply);
    assert!(pending.parse::<u64>().is_ok(), "{reply}");
    let over = format!("16 more would exceed max_pending_tiles 20{hint}");
    assert!(ceiling.starts_with(&over), "{reply}");
    let reply = ask(submit("ghost", &gds_bytes));
    assert_eq!(
        reply,
        refused("unknown_tenant", "tenant 'ghost' is not in the tenant plan") + end
    );
    let reply = ask(submit("acme", &gds_bytes));
    let at_quota = refused(
        "quota_exceeded",
        "tenant 'acme' has 1 active jobs (max_jobs 1)",
    );
    assert!(reply.starts_with(&(at_quota + hint)), "{reply}");

    // error: a command the job's state refuses.
    let running = "job 1 is running; pass partial=true for a prefix merge";
    let reply = ask(r#"{"v":2,"cmd":"results","job":1}"#.to_string());
    assert_eq!(reply, refused("error", running) + end);

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    assert_eq!(client.wait(1).expect("wait").state, JobState::Done);
    let reply = ask(r#"{"v":2,"cmd":"cancel","job":1}"#.to_string());
    assert_eq!(reply, refused("error", "job 1 is already done") + end);

    // draining: the listener is gone, this connection is still served.
    client.shutdown_mode(true).expect("drain");
    handle.join().expect("server thread");
    let draining = "service is draining; no new work is admitted";
    assert_eq!(
        ask(submit("acme", &gds_bytes)),
        refused("draining", draining) + end
    );
}

#[test]
fn server_survives_injected_drops_and_vanishing_clients() {
    let gds_bytes = small_gds(41);
    let spec = spec();
    let flat = {
        let lib = gds::from_bytes(&gds_bytes).expect("lib");
        flat_report(&spec, &lib).expect("flat").render_text(&spec)
    };

    // 40% of all response writes are torn mid-frame and the socket
    // slammed shut. The drop decision is keyed by (connection, frame),
    // so chaos hits pings, status polls, event polls, and results
    // frames alike.
    let plan = FaultPlan::seeded(17)
        .with_rule(FaultRule::new(SITE_SERVER_WRITE, FaultAction::Drop).prob(0.4));
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .fault_plane(Arc::new(FaultPlane::new(plan)))
            .build(),
    ));
    let server = Server::bind(Arc::clone(&service), 0).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    // Submit exactly once. If the response frame was dropped the job
    // still exists (drops happen after the request is handled), so
    // recover its id from the list.
    let job = match Client::connect(&addr.to_string())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.submit(spec.clone(), gds_bytes.clone()))
    {
        Ok(job) => job,
        Err(_) => with_retry(addr, |c| {
            let jobs = c.list()?;
            jobs.first()
                .map(|s| s.id)
                .ok_or_else(|| "no job yet".to_string())
        }),
    };

    // Clients that vanish mid-request frame, interleaved with the run.
    for _ in 0..8 {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"{\"cmd\":\"stat");
            drop(s);
        }
    }

    // Poll the event stream in deltas through the chaos. The cursor
    // only advances on a fully-parsed response, so torn frames can
    // only cause re-reads — never skips.
    let mut seqs: Vec<u64> = Vec::new();
    let mut cursor = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (events, next) = with_retry(addr, |c| c.events(job, cursor));
        seqs.extend(events.iter().map(|e| e.seq));
        cursor = next;
        let status = with_retry(addr, |c| c.status(job));
        if status.state.is_settled() && events.is_empty() {
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
            break;
        }
        assert!(Instant::now() < deadline, "job did not settle under chaos");
    }
    // Gapless and strictly monotonic, even assembled over torn frames.
    let expect: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, expect, "event sequence must be gapless and monotonic");

    // The report still comes through — byte-identical to the flat run.
    let (_, report_text) = with_retry(addr, |c| c.results(job, false));
    assert_eq!(
        report_text, flat,
        "chaos on the wire must not touch the bytes"
    );

    // More vanishing clients, then prove the server still answers.
    for _ in 0..4 {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"\x00\x9f\x92\x96 torn");
            drop(s);
        }
    }
    with_retry(addr, |c| c.ping());

    // Shut down. The shutdown *response* may itself be dropped, but
    // the server latches shutdown before writing, so serve() returns
    // either way — keep asking until the accept loop is gone.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(&addr.to_string()) {
            let _ = c.shutdown();
        }
        std::thread::sleep(Duration::from_millis(10));
        if Client::connect(&addr.to_string())
            .map(|mut c| c.ping().is_err())
            .unwrap_or(true)
        {
            break;
        }
        assert!(Instant::now() < deadline, "server did not shut down");
    }
    handle.join().expect("server thread");

    // No leaked pool slots: every tile task ran or was skipped, and
    // nothing is stuck queued or in flight.
    let stats = service.pool_stats();
    assert_eq!(stats.queue_depth, 0, "no tasks left queued");
    assert_eq!(stats.in_flight, 0, "no tasks stuck in flight");
    assert_eq!(stats.panicked, 0, "socket chaos must not panic tile tasks");
}
