//! Signoff-service determinism suite: the scheduler must be invisible
//! in the bytes. One fixed job is run through the service at several
//! worker counts, cancelled at random points, killed down to random
//! checkpoint subsets — and every completed run must render the exact
//! report text of the flat single-shot engines.

use dfm_check::{bools, check, prop_assert, prop_assert_eq, Config};
use dfm_practice::layout::{gds, generate, layers, Technology};
use dfm_practice::signoff::service::JobState;
use dfm_practice::signoff::{flat_report, JobSpec, ServiceConfig, SignoffService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn block_gds() -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, 47)).expect("serialise")
}

fn spec() -> JobSpec {
    JobSpec {
        name: "determinism".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn flat_text() -> String {
    let spec = spec();
    let lib = gds::from_bytes(&block_gds()).expect("lib");
    flat_report(&spec, &lib).expect("flat").render_text(&spec)
}

/// A unique temp dir per call, so property cases never share state.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dfms-det-{tag}-{}-{n}", std::process::id()))
}

/// A 4-worker service checkpointing under (and reloading from) `root`.
fn service_over(root: &std::path::Path) -> SignoffService {
    SignoffService::with_config(ServiceConfig::builder().threads(4).ckpt_root(root).build())
}

#[test]
fn service_report_is_bit_identical_to_flat_at_worker_counts_1_2_8() {
    let gds_bytes = block_gds();
    let spec = spec();
    let flat = flat_text();
    for threads in [1usize, 2, 8] {
        let service = SignoffService::with_config(ServiceConfig::builder().threads(threads).build());
        let id = service.submit(spec.clone(), gds_bytes.clone()).expect("submit");
        let status = service.wait(id).expect("wait");
        assert_eq!(status.state, JobState::Done, "threads={threads}: {:?}", status.error);
        let (_, text) = service.report_text(id, false).expect("report");
        assert_eq!(text, flat, "scheduler changed report bytes at {threads} workers");
    }
}

#[test]
fn golden_report_digest_pinned() {
    // The canonical report text of the fixed job, digested. Pinned the
    // same way as the golden GDS stream: any engine, merge-order, or
    // rendering change must show up here as a conscious update.
    const GOLDEN_REPORT_DIGEST: u64 = 0xf486_2273_eb78_3655;
    let digest = dfm_check::fnv1a_64(flat_text().as_bytes());
    assert_eq!(
        digest, GOLDEN_REPORT_DIGEST,
        "canonical signoff report changed: digest {digest:#018x}"
    );
}

#[test]
fn cancel_at_random_points_then_resume_is_byte_identical() {
    let gds_bytes = block_gds();
    let spec = spec();
    let flat = flat_text();
    // Each case: a worker count, a random delay before cancelling (so
    // the cancel lands at a random tile boundary), and optionally a
    // second cancel/resume cycle. Whatever the interleaving, the
    // finished job must render the flat bytes.
    check(
        "signoff_cancel_resume",
        &Config::with_cases(10),
        &(1usize..5, 0u64..40, bools()),
        |&(threads, sleep_ms, double_cycle)| {
            let service = SignoffService::with_config(
                ServiceConfig::builder().threads(threads).tile_delay(Duration::from_millis(2)).build(),
            );
            let id = service.submit(spec.clone(), gds_bytes.clone()).map_err(|e| e.to_string())?;
            std::thread::sleep(Duration::from_millis(sleep_ms));
            let cycles = if double_cycle { 2 } else { 1 };
            for _ in 0..cycles {
                // The job may already be Done; cancel() then refuses,
                // which is fine — resume below is skipped too.
                if service.cancel(id).is_ok() {
                    let status = service.resume(id).map_err(|e| e.to_string())?;
                    prop_assert!(status.state == JobState::Running || status.state.is_terminal());
                }
            }
            let status = service.wait(id).map_err(|e| e.to_string())?;
            prop_assert_eq!(status.state, JobState::Done);
            let (_, text) = service.report_text(id, false).map_err(|e| e.to_string())?;
            prop_assert_eq!(&text, &flat);
            Ok(())
        },
    );
}

#[test]
fn resume_from_any_checkpoint_subset_is_byte_identical() {
    let gds_bytes = block_gds();
    let spec = spec();
    let flat = flat_text();
    // Each case: run the job to completion with checkpointing, then
    // simulate an arbitrary crash by deleting a random subset of the
    // tile files, restart a fresh service over the directory, resume,
    // and compare bytes. This covers every completed-tile set a real
    // kill could leave behind — including "none" and "all".
    check(
        "signoff_checkpoint_subset_resume",
        &Config::with_cases(8),
        &dfm_check::vec(bools(), 16..17),
        |keep_mask| {
            let root = fresh_dir("subset");
            let id = {
                let service = service_over(&root);
                let id = service.submit(spec.clone(), gds_bytes.clone()).map_err(|e| e.to_string())?;
                let status = service.wait(id).map_err(|e| e.to_string())?;
                prop_assert_eq!(status.state, JobState::Done);
                id
            };
            let job_dir = root.join(format!("job-{id}"));
            let mut deleted = 0;
            let mut tile = 0;
            loop {
                let path = job_dir.join(format!("tile-{tile}.bin"));
                if !path.exists() {
                    break;
                }
                if !keep_mask[tile % keep_mask.len()] {
                    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
                    deleted += 1;
                }
                tile += 1;
            }
            prop_assert!(tile > 1, "fixture must be multi-tile");
            // Second life: the surviving subset is loaded, the rest is
            // recomputed.
            let service = service_over(&root);
            let status = service.status(id).map_err(|e| e.to_string())?;
            prop_assert_eq!(status.state, JobState::Partial);
            service.resume(id).map_err(|e| e.to_string())?;
            let status = service.wait(id).map_err(|e| e.to_string())?;
            prop_assert_eq!(status.state, JobState::Done);
            let (_, text) = service.report_text(id, false).map_err(|e| e.to_string())?;
            drop(service);
            let _ = std::fs::remove_dir_all(&root);
            prop_assert_eq!(&text, &flat);
            let _ = deleted;
            Ok(())
        },
    );
}
