//! # dfm-bench — experiment harness for the DFM reproduction
//!
//! One function per experiment (E1–E12 in `DESIGN.md`); each returns the
//! table/figure text it regenerates. The `experiments` binary prints
//! them; the integration tests assert their headline shapes. Timing
//! lives in the `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod designs;
pub mod e_litho;
pub mod e_pattern;
pub mod e_timing;
pub mod e_verdict;
pub mod e_yield;
pub mod json;
pub mod table;

/// The type of one experiment generator.
pub type ExperimentFn = fn() -> String;

/// The experiment catalog: `(id, title, generator)` without running
/// anything.
pub fn catalog() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        ("e1", "Table 1: wire spreading & widening vs random-defect yield", e_yield::e1_spreading_widening as ExperimentFn),
        ("e2", "Table 2: redundant vias — hit or hype?", e_yield::e2_redundant_vias),
        ("e3", "Fig 1: process window — raw vs rule-OPC vs model-OPC", e_litho::e3_process_window),
        ("e4", "Table 3: pattern matching vs simulation for hotspot screening", e_litho::e4_hotspot_screening),
        ("e5", "Fig 2: layout pattern catalogs across designs", e_pattern::e5_catalogs),
        ("e6", "Table 4: double-patterning readiness scoring", e_pattern::e6_dpt),
        ("e7", "Fig 3: corner-based vs post-litho timing sign-off", e_timing::e7_timing),
        ("e8", "Table 5: the panel verdict — ROI of every technique", e_verdict::e8_verdicts),
        ("e9", "Fig 4: metal fill and density uniformity", e_yield::e9_fill),
        ("e10", "Table 6: recommended-rule compliance vs predicted yield", e_yield::e10_recommended_rules),
        ("e11", "Fig 5: pattern context radius and the PAT", e_litho::e11_pat),
        ("e12", "Table 7: Monte-Carlo validation of analytic critical area", e_yield::e12_monte_carlo),
    ]
}

/// Runs every experiment in order, returning `(id, title, output)`.
pub fn run_all() -> Vec<(&'static str, &'static str, String)> {
    catalog()
        .into_iter()
        .map(|(id, title, gen)| (id, title, gen()))
        .collect()
}

/// Runs one experiment by id (`"e1"`…`"e12"`), if it exists.
pub fn run_one(id: &str) -> Option<(&'static str, String)> {
    catalog()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, title, gen)| (title, gen()))
}
