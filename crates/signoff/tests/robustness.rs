//! Robustness regressions: a crash-littered checkpoint directory must
//! resume byte-identically to a clean one, and a submission rejected
//! under backpressure must be admitted on resubmit once the load
//! clears — with the client honouring the server's deterministic
//! retry-after hints.

use dfm_cache::TileCache;
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::service::JobState;
use dfm_signoff::{
    flat_report, Client, ErrorCode, JobSpec, RequestError, SchedConfig, Server, ServiceConfig,
    SignoffService,
};
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
        name: "robust".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

#[test]
fn crash_littered_directory_resumes_byte_identically() {
    let gds_bytes = small_gds(41);
    let spec = spec();
    let lib = gds::from_bytes(&gds_bytes).expect("lib");
    let flat = flat_report(&spec, &lib).expect("flat").render_text(&spec);
    let root = std::env::temp_dir().join(format!("dfms-littered-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // First life: run the job to completion so every tile checkpoint
    // exists on disk.
    let job = {
        let service = SignoffService::with_config(
            ServiceConfig::builder()
                .threads(4)
                .ckpt_root(root.clone())
                .build(),
        );
        let job = service.submit(spec.clone(), gds_bytes).expect("submit");
        let status = service.wait(job).expect("wait");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        job
    };

    // Simulate crash debris: orphaned `*.tmp` files a death between
    // tmp-write and rename would leave in the job directory.
    let job_dir = root.join(format!("job-{job}"));
    for junk in ["tile-3.tmp", "tile-99.tmp", "garbage.tmp"] {
        std::fs::write(job_dir.join(junk), b"half-written debris").expect("litter");
    }

    // Second life: the littered directory loads, the sweep removes the
    // debris, and resume settles to the byte-identical report.
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(4)
            .ckpt_root(root.clone())
            .build(),
    );
    let status = service.status(job).expect("persisted job is visible");
    assert_eq!(status.state, JobState::Partial);
    service.resume(job).expect("resume");
    let status = service.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, text) = service.report_text(job, false).expect("report");
    assert_eq!(
        text, flat,
        "littered resume must be bit-identical to the flat run"
    );
    let leftovers: Vec<String> = std::fs::read_dir(&job_dir)
        .expect("job dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "tmp debris survived the sweep: {leftovers:?}"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cache_open_sweeps_crash_debris() {
    let root = std::env::temp_dir().join(format!("dfms-cache-litter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    std::fs::write(root.join("deadbeef00.tmp"), b"torn store").expect("litter");
    let cache = TileCache::open(&root, None).expect("open");
    assert_eq!(cache.stats().tmp_swept, 1, "open sweeps orphaned tmp files");
    assert!(!root.join("deadbeef00.tmp").exists());
    drop(cache);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rejected_submission_is_admitted_on_hinted_resubmit() {
    let gds_bytes = small_gds(43);
    // The global pending-tile ceiling fits exactly one 16-tile job,
    // and the 1-wide grant window keeps its tiles queued while they
    // run: the second submission is refused with `busy` + a
    // deterministic retry hint until the first drains.
    let sched =
        SchedConfig::parse("tenant * weight 1\nglobal max_inflight 1 max_pending_tiles 16\n")
            .expect("plan");
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .sched(sched)
            .tile_delay(Duration::from_millis(20))
            .build(),
    );
    let server = Server::bind(Arc::new(service), 0).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let mut client = Client::connect(&addr).expect("connect");
    let first = client
        .submit(spec(), gds_bytes.clone())
        .expect("first submit");

    // A bare resubmit while the slot is held is a structured refusal
    // carrying the retry hint…
    match client.submit_idem(spec(), gds_bytes.clone(), None) {
        Err(RequestError::Server(err)) => {
            assert_eq!(err.code, ErrorCode::Busy);
            assert!(
                err.retry_after_vms.is_some(),
                "backpressure carries a hint: {err:?}"
            );
        }
        other => panic!("expected busy rejection, got {other:?}"),
    }
    // …and the hint-following retry loop rides it out to admission.
    let second = client
        .submit_until_admitted(spec(), gds_bytes, Some("robust-second"), 200)
        .expect("rejected-then-admitted resubmit");
    assert_ne!(first, second, "the resubmit mints its own job");

    let status = client.wait(first).expect("wait first");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let status = client.wait(second).expect("wait second");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
