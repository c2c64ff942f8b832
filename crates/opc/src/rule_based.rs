//! Rule-based OPC: environment-driven edge bias.

use crate::fragment::{apply_offsets, Fragmenter};
use dfm_geom::{Coord, Region};
use dfm_litho::metrics::{x_intervals_at, y_intervals_at};

/// Tuning for [`RuleOpc`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleOpcParams {
    /// Fragment length.
    pub fragment_len: Coord,
    /// Bias applied to edges of near-minimum features (`width <
    /// narrow_threshold`).
    pub narrow_bias: Coord,
    /// Bias applied to isolated edges (`space > iso_threshold`).
    pub iso_bias: Coord,
    /// Width below which a feature counts as narrow.
    pub narrow_threshold: Coord,
    /// Spacing above which an edge counts as isolated.
    pub iso_threshold: Coord,
    /// Hard cap on any single edge bias.
    pub max_bias: Coord,
    /// The post-bias gap the table guarantees: assuming the facing edge
    /// biases symmetrically, an edge never moves closer than
    /// `(clearance − min_final_space) / 2`.
    pub min_final_space: Coord,
}

impl RuleOpcParams {
    /// Defaults scaled from a minimum feature size.
    pub fn for_feature_size(w: Coord) -> Self {
        RuleOpcParams {
            fragment_len: w * 2,
            narrow_bias: w / 8,
            iso_bias: w / 10,
            narrow_threshold: w * 3 / 2,
            iso_threshold: w * 3,
            max_bias: w / 4,
            min_final_space: w * 3 / 2,
        }
    }
}

/// Rule-based OPC engine.
///
/// For every boundary fragment it measures the local feature width (along
/// the inward normal) and local clearance (along the outward normal) and
/// applies a table-driven outward bias: narrow features get a width bias,
/// isolated edges get an iso bias, and both effects stack up to
/// `max_bias`. No simulation is used — that is the point of the
/// rule-based generation, and its limitation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleOpc {
    /// Tuning parameters.
    pub params: RuleOpcParams,
}

impl RuleOpc {
    /// Creates the engine with the given parameters.
    pub fn new(params: RuleOpcParams) -> Self {
        RuleOpc { params }
    }

    /// Computes the local (width, clearance) environment of a fragment.
    fn environment(&self, drawn: &Region, f: &crate::Fragment) -> (Coord, Coord) {
        let probe = f.control_point();
        let big: Coord = self.params.iso_threshold * 4;
        if f.vertical {
            let ivs = x_intervals_at(drawn, probe.y);
            // The interval whose boundary is this fragment.
            let own = ivs
                .iter()
                .find(|iv| iv.lo <= probe.x && probe.x <= iv.hi)
                .copied();
            let width = own.map_or(0, |iv| iv.len());
            let clearance = if f.outward_positive {
                ivs.iter()
                    .filter(|iv| iv.lo >= probe.x)
                    .map(|iv| iv.lo - probe.x)
                    .filter(|&d| d > 0)
                    .min()
                    .unwrap_or(big)
            } else {
                ivs.iter()
                    .filter(|iv| iv.hi <= probe.x)
                    .map(|iv| probe.x - iv.hi)
                    .filter(|&d| d > 0)
                    .min()
                    .unwrap_or(big)
            };
            (width, clearance)
        } else {
            let ivs = y_intervals_at(drawn, probe.x);
            let own = ivs
                .iter()
                .find(|iv| iv.lo <= probe.y && probe.y <= iv.hi)
                .copied();
            let width = own.map_or(0, |iv| iv.len());
            let clearance = if f.outward_positive {
                ivs.iter()
                    .filter(|iv| iv.lo >= probe.y)
                    .map(|iv| iv.lo - probe.y)
                    .filter(|&d| d > 0)
                    .min()
                    .unwrap_or(big)
            } else {
                ivs.iter()
                    .filter(|iv| iv.hi <= probe.y)
                    .map(|iv| probe.y - iv.hi)
                    .filter(|&d| d > 0)
                    .min()
                    .unwrap_or(big)
            };
            (width, clearance)
        }
    }

    /// Applies rule-based correction, returning the corrected mask.
    pub fn correct(&self, drawn: &Region) -> Region {
        let p = self.params;
        let frags = Fragmenter::new(p.fragment_len).fragment(drawn);
        let mut offsets = Vec::with_capacity(frags.len());
        for f in &frags {
            let (width, clearance) = self.environment(drawn, f);
            let mut bias = 0;
            if width > 0 && width < p.narrow_threshold {
                bias = p.narrow_bias;
            }
            if clearance > p.iso_threshold {
                bias = bias.max(p.iso_bias + p.narrow_bias / 2);
            }
            // Never bias into a tight gap: assuming the facing edge does
            // the same, keep the post-bias gap at min_final_space.
            let cap = ((clearance - p.min_final_space) / 2).max(0);
            offsets.push(bias.min(p.max_bias).min(cap));
        }
        apply_offsets(drawn, &frags, &offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::{Point, Rect};

    fn opc() -> RuleOpc {
        RuleOpc::new(RuleOpcParams::for_feature_size(90))
    }

    #[test]
    fn narrow_line_gets_fattened() {
        let drawn = Region::from_rect(Rect::new(0, 0, 2000, 90));
        let corrected = opc().correct(&drawn);
        assert!(corrected.area() > drawn.area());
        // Still contains the drawn line entirely (bias is outward only).
        assert!(drawn.difference(&corrected).is_empty());
    }

    #[test]
    fn wide_dense_feature_unchanged() {
        // Wide feature with near neighbours: no narrow bias, no iso bias.
        let drawn = Region::from_rects([
            Rect::new(0, 0, 3000, 200),
            Rect::new(0, 300, 3000, 500),
            Rect::new(0, 600, 3000, 800),
        ]);
        let corrected = opc().correct(&drawn);
        // The middle feature's long edges face close neighbours (gap 100
        // < iso threshold 270) and it is wide (200 > 135): unchanged
        // except possibly its short ends.
        let mid_strip = corrected.clipped(Rect::new(1000, 250, 2000, 550));
        let drawn_strip = drawn.clipped(Rect::new(1000, 250, 2000, 550));
        assert_eq!(mid_strip.area(), drawn_strip.area());
    }

    #[test]
    fn bias_never_bridges_gap() {
        // Two narrow lines separated by a minimum gap: biases must not
        // make them touch.
        let drawn = Region::from_rects([Rect::new(0, 0, 2000, 90), Rect::new(0, 180, 2000, 270)]);
        let corrected = opc().correct(&drawn);
        assert_eq!(corrected.connected_components().len(), 2);
        // Gap midline stays clear.
        assert!(!corrected.contains_point(Point::new(1000, 135)));
    }

    #[test]
    fn isolated_edge_biased_more_than_dense() {
        // A narrow line with a neighbour below but nothing above.
        let drawn = Region::from_rects([Rect::new(0, 0, 2000, 90), Rect::new(0, 180, 2000, 270)]);
        let corrected = opc().correct(&drawn);
        // The outer (isolated) top edge of the upper line moved out more
        // than the inner (dense) edges: probe above the upper line.
        let above = corrected.contains_point(Point::new(1000, 275));
        assert!(above, "isolated edge should be biased outward");
    }

    #[test]
    fn correction_is_deterministic() {
        let drawn = Region::from_rects([Rect::new(0, 0, 1000, 90), Rect::new(0, 400, 600, 490)]);
        assert_eq!(opc().correct(&drawn), opc().correct(&drawn));
    }
}
