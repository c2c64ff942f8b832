//! Wire widening: trade spacing headroom for open-circuit robustness
//! (experiment E1).

use crate::{AppliedResult, DfmTechnique};
use dfm_geom::Coord;
use dfm_layout::{layers, FlatLayout, Layer, Technology};

/// Widens every wire symmetrically by `delta` per side wherever doing so
/// keeps the layer's minimum spacing intact.
///
/// Implementation is purely morphological and therefore exact:
///
/// 1. `narrow_gap_space` = the space inside gaps narrower than
///    `min_space + 2·delta` (computed by a morphological closing) — this
///    space must not receive any growth,
/// 2. `widened = layer ∪ (bloat(layer, delta) ∖ layer ∖ narrow_gap_space)`.
///
/// Growth is suppressed on *both* sides of a tight gap (conservative —
/// integer morphology cannot separate `min_space + 2·delta` from one
/// less, so the exactly-equal case also stays untouched; gaps strictly
/// wider widen down to at least `min_space + 1`). Because the transform
/// is purely additive, vias stay covered.
#[derive(Clone, Copy, Debug)]
pub struct WireWidening {
    /// Per-side growth in dbu.
    pub delta: Coord,
    /// Layers to widen.
    pub metal_layers: [Layer; 2],
}

impl WireWidening {
    /// Default: widen M1/M2 by a quarter of the minimum width.
    pub fn from_context(ctx: &crate::EvaluationContext) -> Self {
        WireWidening {
            delta: ctx.tech.rules(layers::METAL1).min_width / 4,
            metal_layers: [layers::METAL1, layers::METAL2],
        }
    }
}

impl DfmTechnique for WireWidening {
    fn name(&self) -> &str {
        "wire-widening"
    }

    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult {
        let mut out = flat.clone();
        let mut notes = Vec::new();
        let mut edits = 0usize;
        for layer in self.metal_layers {
            let region = flat.region(layer);
            if region.is_empty() {
                continue;
            }
            let min_space = tech.rules(layer).min_space;
            let h = (min_space + 2 * self.delta + 1) / 2;
            let narrow_gap_space = region.closed(h).difference(&region);
            // Suppress growth inside narrow gaps *and* within `delta` of
            // them: without the margin, growth lobes wrapping around wire
            // ends would face each other across the protected gap.
            let forbidden = narrow_gap_space.bloated(self.delta);
            let mut growth = region
                .bloated(self.delta)
                .difference(&region)
                .difference(&forbidden);
            if growth.is_empty() {
                continue;
            }
            // The morphological pre-filter handles straight runs exactly,
            // but partial suppression leaves stair-step corners that can
            // face nearby geometry at sub-minimum spacing, and trimming
            // those can in turn slice growth into sub-minimum-width
            // fingers. Trim growth around every residual spacing *and*
            // width violation until clean (growth area strictly
            // decreases, so this terminates).
            let min_width = tech.rules(layer).min_width;
            let mut widened = region.union(&growth);
            for _ in 0..8 {
                let mut viols = dfm_drc::spacing_violations(&widened, min_space);
                viols.extend(dfm_drc::width_violations(&widened, min_width));
                let near_growth: Vec<dfm_geom::Rect> = viols
                    .iter()
                    .map(|&(b, _)| b)
                    .filter(|b| !growth.clipped(b.expanded(1)).is_empty())
                    .collect();
                if near_growth.is_empty() {
                    break;
                }
                let trim =
                    dfm_geom::Region::from_rects(near_growth.iter().map(|b| b.expanded(min_space)));
                growth = growth.difference(&trim);
                widened = region.union(&growth);
            }
            if growth.is_empty() {
                continue;
            }
            edits += growth.rect_count();
            notes.push(format!(
                "{layer}: +{} nm² ({:.2}% area growth)",
                growth.area(),
                100.0 * growth.area() as f64 / region.area().max(1) as f64
            ));
            out.set_region(layer, widened);
        }
        if edits == 0 {
            return AppliedResult::unchanged(out);
        }
        AppliedResult {
            layout: out,
            notes,
            edits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::{Rect, Region};
    use dfm_layout::{Cell, Library};

    fn flat_with_m1(rects: &[Rect]) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        for &r in rects {
            c.add_rect(layers::METAL1, r);
        }
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    fn widener(delta: i64) -> WireWidening {
        WireWidening {
            delta,
            metal_layers: [layers::METAL1, layers::METAL2],
        }
    }

    #[test]
    fn isolated_wire_widens_fully() {
        let tech = Technology::n65();
        let flat = flat_with_m1(&[Rect::new(0, 0, 4000, 90)]);
        let r = widener(20).apply(&flat, &tech);
        let widened = r.layout.region(layers::METAL1);
        assert_eq!(widened, Region::from_rect(Rect::new(-20, -20, 4020, 110)));
    }

    #[test]
    fn tight_pair_does_not_widen_into_gap() {
        let tech = Technology::n65(); // min space 90
                                      // Gap of exactly 90: no headroom at all.
        let flat = flat_with_m1(&[Rect::new(0, 0, 4000, 90), Rect::new(0, 180, 4000, 270)]);
        let r = widener(20).apply(&flat, &tech);
        let widened = r.layout.region(layers::METAL1);
        // Outer edges grew, the 90 gap is untouched.
        let viols = dfm_drc::spacing_violations(&widened, tech.rules(layers::METAL1).min_space);
        assert!(viols.is_empty(), "{viols:?}");
        assert!(widened.bbox().y0 < 0);
        assert!(widened.bbox().y1 > 270);
        // Gap interior still empty.
        assert!(!widened.contains_point(dfm_geom::Point::new(2000, 135)));
    }

    #[test]
    fn roomy_pair_widens_down_to_min_space() {
        let tech = Technology::n65();
        // Gap of 131 > 90 + 2*20: widening by 20 leaves 91 ≥ min space.
        let flat = flat_with_m1(&[Rect::new(0, 0, 4000, 90), Rect::new(0, 221, 4000, 311)]);
        let r = widener(20).apply(&flat, &tech);
        let widened = r.layout.region(layers::METAL1);
        let viols = dfm_drc::spacing_violations(&widened, tech.rules(layers::METAL1).min_space);
        assert!(viols.is_empty(), "{viols:?}");
        // Both inner edges moved by 20: gap is now 91.
        assert!(widened.contains_point(dfm_geom::Point::new(2000, 105)));
        assert!(widened.contains_point(dfm_geom::Point::new(2000, 205)));
        assert!(!widened.contains_point(dfm_geom::Point::new(2000, 155)));
    }

    #[test]
    fn widening_reduces_open_critical_area() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            21,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let defects = dfm_yield::DefectModel::new(tech.rules(layers::METAL1).min_width / 2, 1.0);
        let before = dfm_yield::critical_area::analyze(&flat.region(layers::METAL1), &defects);
        let w = WireWidening {
            delta: tech.rules(layers::METAL1).min_width / 4,
            metal_layers: [layers::METAL1, layers::METAL2],
        };
        let r = w.apply(&flat, &tech);
        let after = dfm_yield::critical_area::analyze(&r.layout.region(layers::METAL1), &defects);
        assert!(
            after.open_ca_nm2 < before.open_ca_nm2,
            "open CA {} -> {}",
            before.open_ca_nm2,
            after.open_ca_nm2
        );
    }

    #[test]
    fn widened_routed_block_stays_drc_clean() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::dense(),
            22,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let w = WireWidening {
            delta: tech.rules(layers::METAL1).min_width / 4,
            metal_layers: [layers::METAL1, layers::METAL2],
        };
        let r = w.apply(&flat, &tech);
        for layer in [layers::METAL1, layers::METAL2] {
            let viols =
                dfm_drc::spacing_violations(&r.layout.region(layer), tech.rules(layer).min_space);
            assert!(viols.is_empty(), "{layer}: {} violations", viols.len());
        }
    }

    #[test]
    fn additive_transform_preserves_via_coverage() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            23,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let w = WireWidening {
            delta: 20,
            metal_layers: [layers::METAL1, layers::METAL2],
        };
        let r = w.apply(&flat, &tech);
        let before_m1 = flat.region(layers::METAL1);
        let after_m1 = r.layout.region(layers::METAL1);
        assert!(
            before_m1.difference(&after_m1).is_empty(),
            "widening must be additive"
        );
    }
}
