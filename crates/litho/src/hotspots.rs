//! Simulation-based printability hotspot detection.
//!
//! A *hotspot* is a location where the printed image deviates from drawn
//! intent badly enough to threaten yield: necks that pinch or break
//! (opens) and gaps that bridge (shorts). This module provides the
//! simulation-golden detector that experiment E4 compares the fast
//! pattern-matching screen against.

use crate::{Condition, LithoSimulator};
use dfm_geom::{Coord, Rect, Region};
use std::fmt;

/// The failure mechanism of a hotspot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HotspotKind {
    /// Printed image missing where drawn geometry should be (neck,
    /// line-end pullback, or complete break) — an open risk.
    Pinch,
    /// Printed image present well outside drawn geometry (gap filling
    /// in) — a short risk.
    Bridge,
}

impl fmt::Display for HotspotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotspotKind::Pinch => write!(f, "pinch"),
            HotspotKind::Bridge => write!(f, "bridge"),
        }
    }
}

/// One detected hotspot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hotspot {
    /// Failure mechanism.
    pub kind: HotspotKind,
    /// Bounding box of the deviating geometry.
    pub location: Rect,
    /// Deviation area in nm² (bigger = worse).
    pub severity: i64,
}

/// Detector tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotspotParams {
    /// The drawn geometry is eroded by this much before comparing against
    /// the print; only core material counts as a pinch when missing.
    /// Must stay below half the narrowest feature to be detected
    /// (typically ⅙ of minimum width).
    pub pinch_margin: Coord,
    /// The drawn geometry is dilated by this much; printed material
    /// beyond counts as a bridge. Must stay below half the narrowest gap
    /// to be detected (typically ⅙ of minimum spacing).
    pub bridge_margin: Coord,
    /// Deviations smaller than this area (nm²) are ignored (corner
    /// rounding and line-end noise).
    pub min_area: i64,
}

impl HotspotParams {
    /// Reasonable defaults for a layer with the given minimum width.
    pub fn for_min_width(w: Coord) -> Self {
        HotspotParams {
            pinch_margin: w / 6,
            bridge_margin: w / 6,
            min_area: (w * w) / 2,
        }
    }
}

/// Runs the detector: simulates `drawn` under `cond` and reports every
/// pinch and bridge deviation larger than the noise floor.
pub fn find_hotspots(
    sim: &LithoSimulator,
    drawn: &Region,
    cond: Condition,
    params: HotspotParams,
) -> Vec<Hotspot> {
    let printed = sim.printed(drawn, cond);
    classify_deviations(drawn, &printed, params)
}

/// Classifies deviations between a drawn and an already-simulated printed
/// image (lets callers reuse one simulation across detectors).
pub fn classify_deviations(
    drawn: &Region,
    printed: &Region,
    params: HotspotParams,
) -> Vec<Hotspot> {
    let mut out = Vec::new();

    // Pinches: drawn core material that failed to print.
    let core = drawn.shrunk(params.pinch_margin);
    for comp in core.difference(printed).connected_components() {
        let severity = comp.area() as i64;
        if severity >= params.min_area {
            out.push(Hotspot {
                kind: HotspotKind::Pinch,
                location: comp.bbox(),
                severity,
            });
        }
    }

    // Bridges: printed material well outside drawn.
    let envelope = drawn.bloated(params.bridge_margin);
    for comp in printed.difference(&envelope).connected_components() {
        let severity = comp.area() as i64;
        if severity >= params.min_area {
            out.push(Hotspot {
                kind: HotspotKind::Bridge,
                location: comp.bbox(),
                severity,
            });
        }
    }

    out.sort_by_key(|h| std::cmp::Reverse(h.severity));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Point;

    fn sim() -> LithoSimulator {
        LithoSimulator::for_feature_size(90)
    }

    #[test]
    fn clean_wide_layout_has_no_hotspots() {
        let s = sim();
        let drawn = Region::from_rects([Rect::new(0, 0, 3000, 270), Rect::new(0, 540, 3000, 810)]);
        let hs = find_hotspots(
            &s,
            &drawn,
            Condition::nominal(),
            HotspotParams::for_min_width(90),
        );
        assert!(hs.is_empty(), "unexpected hotspots: {hs:?}");
    }

    #[test]
    fn narrow_neck_reports_pinch() {
        let s = sim();
        // Fat pads joined by a 40 nm neck (σ ≈ 40: the neck breaks).
        let drawn = Region::from_rects([
            Rect::new(0, 0, 600, 600),
            Rect::new(600, 280, 1400, 320),
            Rect::new(1400, 0, 2000, 600),
        ]);
        let hs = find_hotspots(
            &s,
            &drawn,
            Condition::nominal(),
            HotspotParams::for_min_width(90),
        );
        assert!(
            hs.iter().any(|h| h.kind == HotspotKind::Pinch
                && h.location.overlaps(&Rect::new(600, 280, 1400, 320))),
            "expected a pinch on the neck, got {hs:?}"
        );
    }

    #[test]
    fn narrow_gap_reports_bridge() {
        let s = sim();
        // Two fat plates with a 35 nm slot between them.
        let drawn = Region::from_rects([Rect::new(0, 0, 2000, 500), Rect::new(0, 535, 2000, 1000)]);
        let hs = find_hotspots(
            &s,
            &drawn,
            Condition::nominal(),
            HotspotParams::for_min_width(90),
        );
        assert!(
            hs.iter().any(
                |h| h.kind == HotspotKind::Bridge && h.location.contains(Point::new(1000, 517))
            ),
            "expected a bridge in the slot, got {hs:?}"
        );
    }

    #[test]
    fn defocus_creates_hotspots() {
        let s = sim();
        // A 75 nm line prints (thin) at best focus with σ₀ ≈ 40 nm, but
        // its peak intensity drops below threshold under heavy defocus.
        let drawn = Region::from_rect(Rect::new(0, 0, 3000, 75));
        let p = HotspotParams::for_min_width(75);
        let nominal = find_hotspots(&s, &drawn, Condition::nominal(), p);
        let defocused = find_hotspots(&s, &drawn, Condition::with_defocus(200.0), p);
        assert!(
            nominal.is_empty(),
            "unexpected nominal hotspots: {nominal:?}"
        );
        assert!(
            defocused.iter().any(|h| h.kind == HotspotKind::Pinch),
            "expected the line to break under defocus, got {defocused:?}"
        );
    }

    #[test]
    fn severity_sorted_descending() {
        let s = sim();
        let drawn = Region::from_rects([
            Rect::new(0, 0, 600, 600),
            Rect::new(600, 290, 1200, 310), // tiny neck
            Rect::new(1200, 0, 1800, 600),
            Rect::new(0, 700, 1800, 735), // long thin wire: huge pinch
        ]);
        let hs = find_hotspots(
            &s,
            &drawn,
            Condition::nominal(),
            HotspotParams::for_min_width(90),
        );
        for w in hs.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
    }

    #[test]
    fn classify_with_identical_images_is_clean() {
        let drawn = Region::from_rect(Rect::new(0, 0, 1000, 200));
        let hs = classify_deviations(&drawn, &drawn, HotspotParams::for_min_width(90));
        assert!(hs.is_empty());
    }
}
