//! ORC — post-OPC (optical rule check) verification.
//!
//! After OPC, the corrected mask must be re-verified: does the printed
//! image meet the drawn intent across the process window? ORC combines
//! EPE statistics with residual hotspot detection at every corner
//! condition.

use dfm_geom::{Coord, Region};
use dfm_litho::hotspots::{classify_deviations, Hotspot, HotspotParams};
use dfm_litho::metrics::{edge_placement_errors, summarize_epe, EpeSummary};
use dfm_litho::{Condition, LithoSimulator};
use std::fmt;

/// Verification thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrcParams {
    /// EPE sampling interval along edges.
    pub sample_spacing: Coord,
    /// How far inside the drawn edge the EPE probe sits; pullback beyond
    /// this reads as a missing (broken) image.
    pub probe_depth: Coord,
    /// |EPE| above this is a violation.
    pub epe_tolerance: Coord,
    /// Hotspot detector configuration.
    pub hotspot: HotspotParams,
}

impl OrcParams {
    /// Defaults scaled from a minimum feature size.
    pub fn for_feature_size(w: Coord) -> Self {
        OrcParams {
            sample_spacing: w,
            probe_depth: w / 4,
            epe_tolerance: w / 6,
            hotspot: HotspotParams::for_min_width(w),
        }
    }
}

/// Verification result at one exposure condition.
#[derive(Clone, Debug)]
pub struct OrcConditionResult {
    /// The condition verified.
    pub condition: Condition,
    /// EPE statistics against the drawn target.
    pub epe: EpeSummary,
    /// Samples with |EPE| above tolerance.
    pub epe_violations: usize,
    /// Residual printability hotspots.
    pub hotspots: Vec<Hotspot>,
}

/// Full ORC report over a set of conditions.
#[derive(Clone, Debug)]
pub struct OrcReport {
    /// Per-condition results, in input order.
    pub per_condition: Vec<OrcConditionResult>,
}

impl OrcReport {
    /// Total residual hotspots across all conditions.
    pub fn total_hotspots(&self) -> usize {
        self.per_condition.iter().map(|c| c.hotspots.len()).sum()
    }

    /// Total EPE violations across all conditions.
    pub fn total_epe_violations(&self) -> usize {
        self.per_condition.iter().map(|c| c.epe_violations).sum()
    }

    /// True if the mask verifies clean everywhere.
    pub fn is_clean(&self) -> bool {
        self.total_hotspots() == 0 && self.total_epe_violations() == 0
    }

    /// Worst RMS EPE across conditions.
    pub fn worst_rms(&self) -> f64 {
        self.per_condition
            .iter()
            .map(|c| c.epe.rms)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for OrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ORC: {} hotspots, {} EPE violations, worst RMS {:.1} nm",
            self.total_hotspots(),
            self.total_epe_violations(),
            self.worst_rms()
        )?;
        for c in &self.per_condition {
            writeln!(
                f,
                "  {}: rms {:.1} max {} missing {} hotspots {}",
                c.condition,
                c.epe.rms,
                c.epe.max_abs,
                c.epe.missing,
                c.hotspots.len()
            )?;
        }
        Ok(())
    }
}

/// Verifies `mask` against the drawn `target` at every condition.
pub fn verify(
    sim: &LithoSimulator,
    target: &Region,
    mask: &Region,
    conditions: &[Condition],
    params: OrcParams,
) -> OrcReport {
    let per_condition = conditions
        .iter()
        .map(|&condition| {
            let printed = sim.printed(mask, condition);
            let samples =
                edge_placement_errors(target, &printed, params.sample_spacing, params.probe_depth);
            let epe = summarize_epe(&samples);
            let epe_violations = samples
                .iter()
                .filter(|s| match s.epe {
                    None => true,
                    Some(e) => e.abs() > params.epe_tolerance,
                })
                .count();
            let hotspots = classify_deviations(target, &printed, params.hotspot);
            OrcConditionResult {
                condition,
                epe,
                epe_violations,
                hotspots,
            }
        })
        .collect();
    OrcReport { per_condition }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelOpc;
    use dfm_geom::Rect;

    #[test]
    fn orc_flags_uncorrected_marginal_mask() {
        let sim = LithoSimulator::for_feature_size(90);
        // A 75 nm line with heavy defocus in the corner set: pinches.
        let target = Region::from_rect(Rect::new(0, 0, 2000, 75));
        let report = verify(
            &sim,
            &target,
            &target,
            &[Condition::nominal(), Condition::with_defocus(200.0)],
            OrcParams::for_feature_size(75),
        );
        assert!(!report.is_clean());
        assert!(report.total_hotspots() > 0 || report.total_epe_violations() > 0);
    }

    #[test]
    fn orc_improves_after_opc() {
        let sim = LithoSimulator::for_feature_size(90);
        let target = Region::from_rect(Rect::new(0, 0, 1200, 90));
        let conditions = [Condition::nominal(), Condition::with_defocus(100.0)];
        let params = OrcParams::for_feature_size(90);
        let raw = verify(&sim, &target, &target, &conditions, params);
        let corrected = ModelOpc::new(sim.clone()).correct(&target);
        let post = verify(&sim, &target, &corrected.mask, &conditions, params);
        assert!(
            post.total_epe_violations() <= raw.total_epe_violations(),
            "OPC should not increase EPE violations: {} -> {}",
            raw.total_epe_violations(),
            post.total_epe_violations()
        );
        assert!(post.worst_rms() <= raw.worst_rms() + 1.0);
    }

    #[test]
    fn clean_wide_geometry_verifies_clean() {
        let sim = LithoSimulator::for_feature_size(90);
        let target = Region::from_rect(Rect::new(0, 0, 3000, 500));
        let report = verify(
            &sim,
            &target,
            &target,
            &[Condition::nominal()],
            OrcParams::for_feature_size(90),
        );
        assert_eq!(report.total_hotspots(), 0);
        // Corner rounding gives small EPE at the four corners only; the
        // vast majority of samples must be in tolerance.
        let total: usize = report.per_condition[0].epe.samples;
        assert!(report.total_epe_violations() * 10 <= total);
    }

    #[test]
    fn report_display_mentions_counts() {
        let sim = LithoSimulator::for_feature_size(90);
        let target = Region::from_rect(Rect::new(0, 0, 500, 200));
        let report = verify(
            &sim,
            &target,
            &target,
            &[Condition::nominal()],
            OrcParams::for_feature_size(90),
        );
        let text = report.to_string();
        assert!(text.contains("ORC:"));
        assert!(text.contains("rms"));
    }
}
