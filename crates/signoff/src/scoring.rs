//! Metric extraction for the manufacturability score: the bridge from
//! a merged [`SignoffReport`] (plus submit-time layout statistics) to
//! the flat `(key, value)` list `dfm_score` consumes.
//!
//! Two metric families exist because they have different natural homes:
//!
//! * **report metrics** ([`report_metrics`]) come straight out of the
//!   merged per-tile report — DRC counts, critical area, printed area.
//!   They are available wherever the report is, in particular at job
//!   finalisation inside the service.
//! * **layout metrics** ([`layout_metrics`]) need the flat layout —
//!   via-redundancy census, pattern-catalog statistics, drawn area for
//!   the print-fidelity ratio. The service computes them once at submit
//!   time (`JobContext::build` already parses the GDS) and carries them
//!   on the context; they never touch per-tile work, which is why the
//!   spec's `score` field stays out of the tile cache key.
//!
//! Both paths — service-side scoring of a merged report and the flat
//! one-shot [`flat_score`] — feed the **same** metric set into the
//! **same** spec, so a score computed locally during a fix search is
//! byte-identical to the one the service reports for the same layout.

use crate::report::{flat_layout_report, SignoffReport};
use crate::spec::JobSpec;
use dfm_layout::{layers, FlatLayout, Library, Technology};
use dfm_pattern::catalog::anchors;
use dfm_pattern::Catalog;
use dfm_score::{ScoreReport, ScoreSpec};

/// Pattern-catalog window quantisation, nm. Fixed (not tech-derived)
/// so catalogs are comparable across technology presets.
const PATTERN_SNAP: i64 = 5;

/// Metrics extracted from the merged report: one entry per enabled
/// engine family, keys stable and documented in DESIGN.md.
pub fn report_metrics(report: &SignoffReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(drc) = &report.drc {
        out.extend(drc.score_metrics());
    }
    if let Some(ca) = &report.ca {
        out.push(("ca.short_nm2".to_string(), ca.short_ca_nm2));
        out.push(("ca.open_nm2".to_string(), ca.open_ca_nm2));
    }
    if let Some(litho) = &report.litho {
        out.push(("litho.printed_nm2".to_string(), litho.printed_area as f64));
    }
    out
}

/// Metrics that need the flat layout: via redundancy, pattern-catalog
/// statistics, and the drawn area of the litho layer (the denominator
/// of the print-fidelity ratio). Pure and deterministic — anchors are
/// sorted, the catalog is order-independent.
pub fn layout_metrics(flat: &FlatLayout, tech: &Technology, spec: &JobSpec) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let vias = flat.region(layers::VIA1);
    let stats = dfm_yield::via_model::classify(&vias, tech.via_space * 2);
    // A via-free layout reads 0.0 here, not NaN — the via_model
    // zero-connections guard is what keeps this aggregate finite.
    out.push(("via.redundancy".to_string(), stats.redundancy_rate()));
    let m1 = flat.region(layers::METAL1);
    let catalog = Catalog::build(&[&m1], &anchors::corners(&m1), tech.m1_pitch, PATTERN_SNAP);
    out.extend(catalog.score_metrics());
    if let Some(layer) = spec.litho_layer {
        out.push((
            "litho.drawn_nm2".to_string(),
            flat.region(layer).area() as f64,
        ));
    }
    out
}

/// The full metric set for a job: report metrics, layout metrics, and
/// the derived print-fidelity ratio where both sides are present.
pub fn job_metrics(report: &SignoffReport, layout_metrics: &[(String, f64)]) -> Vec<(String, f64)> {
    let mut out = report_metrics(report);
    out.extend_from_slice(layout_metrics);
    if let Some(litho) = &report.litho {
        if let Some((_, drawn)) = layout_metrics.iter().find(|(k, _)| k == "litho.drawn_nm2") {
            out.push((
                "litho.area_ratio".to_string(),
                dfm_litho::metrics::print_area_ratio(litho.printed_area as f64, *drawn),
            ));
        }
    }
    out
}

/// One-shot flat scoring: run the flat engines
/// ([`flat_layout_report`]) and score the result — the local
/// counterpart of a scored service job, producing the same bytes for
/// the same layout and spec (the tiled report is bit-identical to the
/// flat one, and the metric extraction is shared).
///
/// The spec's `score` field selects the score spec; an unset field
/// falls back to the built-in default.
///
/// # Errors
///
/// Spec validation, flattening, and engine diagnostics.
pub fn flat_score(spec: &JobSpec, lib: &Library) -> Result<(SignoffReport, ScoreReport), String> {
    let flat = lib.flatten_top().map_err(|e| format!("flatten: {e}"))?;
    let report = flat_layout_report(spec, &flat)?;
    let score = score_flat_layout(spec, &flat, &report)?;
    Ok((report, score))
}

/// Scores an already-flattened layout against an already-computed
/// report — the inner loop of the auto-fix search, which evaluates
/// each candidate edit without serialising back to a library.
///
/// # Errors
///
/// Spec validation (score-spec text, technology).
pub fn score_flat_layout(
    spec: &JobSpec,
    flat: &FlatLayout,
    report: &SignoffReport,
) -> Result<ScoreReport, String> {
    let score_spec = spec.score_spec()?.unwrap_or_else(ScoreSpec::default_spec);
    let tech = spec.technology()?;
    let lm = layout_metrics(flat, &tech, spec);
    let metrics = job_metrics(report, &lm);
    Ok(dfm_score::score(&metrics, &score_spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{gds, generate};

    fn routed_lib(seed: u64) -> Library {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 6_000,
            height: 6_000,
            ..Default::default()
        };
        generate::routed_block(&tech, params, seed)
    }

    fn scoring_spec() -> JobSpec {
        JobSpec {
            tile: 1700,
            halo: 64,
            litho_layer: Some(layers::METAL1),
            score: Some("default".to_string()),
            ..JobSpec::default()
        }
    }

    #[test]
    fn flat_score_is_in_unit_interval_with_breakdown() {
        let lib = routed_lib(11);
        let (report, score) = flat_score(&scoring_spec(), &lib).expect("score");
        assert!((0.0..=1.0).contains(&score.score), "score {}", score.score);
        assert!(score.score.is_finite());
        // Every enabled family shows up in the breakdown.
        for key in [
            "drc.violations",
            "ca.short_nm2",
            "ca.open_nm2",
            "litho.printed_nm2",
            "litho.area_ratio",
            "via.redundancy",
            "pattern.top8_coverage",
        ] {
            assert!(score.metric(key).is_some(), "missing metric {key}");
        }
        assert!(report.ca.is_some());
        // Per-metric scores are all in [0, 1].
        for m in &score.metrics {
            assert!((0.0..=1.0).contains(&m.score), "{}: {}", m.key, m.score);
        }
    }

    #[test]
    fn flat_score_is_deterministic() {
        let lib = routed_lib(12);
        let spec = scoring_spec();
        let (_, a) = flat_score(&spec, &lib).expect("a");
        let (_, b) = flat_score(&spec, &lib).expect("b");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn via_free_layout_scores_finite() {
        // The zero-connections redundancy guard must keep the score
        // aggregate finite on a layout with no vias at all.
        let tech = Technology::n65();
        let mut lib = Library::new("t");
        let mut c = dfm_layout::Cell::new("TOP");
        c.add_rect(layers::METAL1, dfm_geom::Rect::new(0, 0, 4000, 90));
        c.add_rect(layers::METAL1, dfm_geom::Rect::new(0, 300, 4000, 390));
        let _ = tech;
        lib.add_cell(c).expect("add");
        let spec = JobSpec {
            score: Some("default".to_string()),
            ..JobSpec::default()
        };
        let (_, score) = flat_score(&spec, &lib).expect("score");
        assert!(score.score.is_finite(), "score {}", score.score);
        assert_eq!(score.metric("via.redundancy").expect("metric").value, 0.0);
    }

    #[test]
    fn layout_metrics_round_trip_through_gds() {
        // Metrics computed from a flattened parse of serialised bytes
        // equal metrics from the original library — the submit path.
        let lib = routed_lib(13);
        let spec = scoring_spec();
        let tech = spec.technology().expect("tech");
        let flat_a = lib.flatten_top().expect("flatten");
        let bytes = gds::to_bytes(&lib).expect("serialise");
        let lib_b = gds::from_bytes(&bytes).expect("parse");
        let flat_b = lib_b.flatten_top().expect("flatten");
        assert_eq!(
            layout_metrics(&flat_a, &tech, &spec),
            layout_metrics(&flat_b, &tech, &spec)
        );
    }
}
