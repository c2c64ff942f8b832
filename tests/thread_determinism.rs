//! Cross-thread determinism suite: the determinism contract of DESIGN.md
//! asserted end to end. Every engine output — experiment reports, the
//! golden GDS byte stream — must be bit-identical for `DFM_THREADS` ∈
//! {1, 2, 8}, enforced here via `dfm_par::with_threads` so all three
//! settings run inside one test process.
//!
//! Every kept fork region (see `dfm-par`) has a thread-count test:
//!
//! * the pattern anchor scan — E4 here (hotspot detection, the matcher
//!   scan; E4's raster and blur passes are plain loops, and `dfm-litho`'s
//!   `rasterize_identical_across_thread_counts` keeps them independent
//!   of `DFM_THREADS`);
//! * the Monte-Carlo critical-area seed fan-outs — E12 here, plus
//!   `dfm-yield`'s `estimate_identical_across_thread_counts`;
//! * the per-rule map of the flat `DrcEngine::run` — `dfm-drc`'s
//!   `engine_report_identical_across_thread_counts`;
//! * the per-gate map of `timing::extract::post_litho` — `dfm-timing`'s
//!   `post_litho_is_bit_identical_at_any_thread_count`.
//!
//! E1 (critical area over the grid index) and the golden GDS digest
//! enter no fork region today; they stay as end-to-end guards.

use dfm_check::fnv1a_64;
use dfm_layout::generate::RoutedBlockParams;
use dfm_layout::{gds, generate, Technology};

fn at_threads<R>(n: usize, f: impl Fn() -> R) -> R {
    dfm_par::with_threads(n, f)
}

/// Drops wall-clock rows (`runtime`, `speedup`) from a report: they are
/// the only lines allowed to differ between runs.
fn stable_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("runtime") && !l.contains("speedup"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn e1_ca_table_identical_across_thread_counts() {
    let seq = at_threads(1, dfm_bench::e_yield::e1_spreading_widening);
    let two = at_threads(2, dfm_bench::e_yield::e1_spreading_widening);
    let eight = at_threads(8, dfm_bench::e_yield::e1_spreading_widening);
    assert_eq!(seq, two, "E1 differs between 1 and 2 threads");
    assert_eq!(seq, eight, "E1 differs between 1 and 8 threads");
}

#[test]
fn e4_recall_identical_across_thread_counts() {
    let seq = stable_lines(&at_threads(1, dfm_bench::e_litho::e4_hotspot_screening));
    let two = stable_lines(&at_threads(2, dfm_bench::e_litho::e4_hotspot_screening));
    let eight = stable_lines(&at_threads(8, dfm_bench::e_litho::e4_hotspot_screening));
    assert!(seq.contains("recall"), "E4 report shape changed:\n{seq}");
    assert_eq!(seq, two, "E4 differs between 1 and 2 threads");
    assert_eq!(seq, eight, "E4 differs between 1 and 8 threads");
}

#[test]
fn e12_mc_estimate_identical_across_thread_counts() {
    let seq = at_threads(1, dfm_bench::e_yield::e12_monte_carlo);
    let two = at_threads(2, dfm_bench::e_yield::e12_monte_carlo);
    let eight = at_threads(8, dfm_bench::e_yield::e12_monte_carlo);
    assert_eq!(seq, two, "E12 differs between 1 and 2 threads");
    assert_eq!(seq, eight, "E12 differs between 1 and 8 threads");
}

#[test]
fn golden_gds_digest_unchanged_at_any_thread_count() {
    // Same pinned digest as crates/layout/tests/gds_golden.rs: layout
    // generation + serialisation must not be perturbed by threading.
    const GOLDEN_DIGEST: u64 = 0x041e_bb3e_bfdd_7dde;
    for threads in [1usize, 2, 8] {
        let digest = at_threads(threads, || {
            let lib = generate::routed_block(&Technology::n65(), RoutedBlockParams::dense(), 42);
            fnv1a_64(&gds::to_bytes(&lib).expect("serialise"))
        });
        assert_eq!(
            digest, GOLDEN_DIGEST,
            "golden GDS digest changed at DFM_THREADS={threads}"
        );
    }
}
