//! Wire spreading: equalise unequal spacings to cut short-circuit
//! critical area (experiment E1).

use crate::{AppliedResult, DfmTechnique};
use dfm_geom::{Coord, Region, Vector};
use dfm_layout::{layers, FlatLayout, Layer, Technology};

/// Nudges wires towards the middle of their free corridor.
///
/// For each connected component of the layer that
///
/// * carries **no via** (moving it cannot break connectivity we cannot
///   see at this level), and
/// * has unequal clearance to its neighbours above and below (for
///   horizontal wires; left/right for vertical ones),
///
/// the spreader translates it towards the roomier side by half the
/// imbalance (capped at `max_move`). Every accepted move is verified not
/// to reduce the component's minimum clearance.
#[derive(Clone, Copy, Debug)]
pub struct WireSpreading {
    /// Maximum nudge in dbu.
    pub max_move: Coord,
    /// Clearance measurement cutoff.
    pub search_range: Coord,
    /// The layer to spread and the via layers pinning components.
    pub layer: Layer,
}

impl WireSpreading {
    /// Default configuration: spread metal-1 by at most half a pitch.
    pub fn from_context(ctx: &crate::EvaluationContext) -> Self {
        WireSpreading {
            max_move: ctx.tech.m1_pitch / 2,
            search_range: ctx.tech.m1_pitch * 3,
            layer: layers::METAL1,
        }
    }

    /// Directional clearance from `comp` to `others`: the largest `d <
    /// range` such that moving `comp` by `d·dir` stays clear; measured by
    /// binary search on anisotropic bloat.
    fn clearance(&self, comp: &Region, others: &Region, vertical: bool) -> (Coord, Coord) {
        // Chebyshev directional gap via bloat on one axis only.
        let range = self.search_range;
        let gap_dir = |positive: bool| -> Coord {
            let mut lo = 0;
            let mut hi = range;
            // Invariant: separation ≥ lo, unknown above.
            while lo < hi {
                let mid = (lo + hi + 1) / 2;
                let grown = if vertical {
                    // vertical wire: move along x.
                    if positive {
                        Region::from_rects(
                            comp.rects()
                                .iter()
                                .map(|r| dfm_geom::Rect::new(r.x0, r.y0, r.x1 + mid, r.y1)),
                        )
                    } else {
                        Region::from_rects(
                            comp.rects()
                                .iter()
                                .map(|r| dfm_geom::Rect::new(r.x0 - mid, r.y0, r.x1, r.y1)),
                        )
                    }
                } else if positive {
                    Region::from_rects(
                        comp.rects()
                            .iter()
                            .map(|r| dfm_geom::Rect::new(r.x0, r.y0, r.x1, r.y1 + mid)),
                    )
                } else {
                    Region::from_rects(
                        comp.rects()
                            .iter()
                            .map(|r| dfm_geom::Rect::new(r.x0, r.y0 - mid, r.x1, r.y1)),
                    )
                };
                if grown.intersection(others).is_empty() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        };
        (gap_dir(false), gap_dir(true))
    }
}

impl DfmTechnique for WireSpreading {
    fn name(&self) -> &str {
        "wire-spreading"
    }

    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult {
        let _ = tech;
        let layer_region = flat.region(self.layer);
        if layer_region.is_empty() {
            return AppliedResult::unchanged(flat.clone());
        }
        let vias = flat
            .region(layers::VIA1)
            .union(&flat.region(layers::CONTACT));
        let comps = layer_region.connected_components();

        let mut moved = 0usize;
        let mut placed: Vec<Region> = Vec::with_capacity(comps.len());
        // Free wires move; pinned wires stay.
        let mut pinned: Vec<Region> = Vec::new();
        let mut movable: Vec<Region> = Vec::new();
        for comp in comps {
            if comp.intersection(&vias).is_empty() {
                movable.push(comp);
            } else {
                pinned.push(comp);
            }
        }
        // "Others" accumulates final positions as we go, starting with
        // everything at original position, so each move is checked
        // against an up-to-date picture.
        let mut current: Vec<Region> = pinned.clone();
        current.extend(movable.iter().cloned());

        for (mi, comp) in movable.iter().enumerate() {
            let bbox = comp.bbox();
            let vertical = bbox.height() > bbox.width();
            // Everything except this component, at current positions.
            let others_rects: Vec<dfm_geom::Rect> = current
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != pinned.len() + mi)
                .flat_map(|(_, c)| c.rects().iter().copied())
                .collect();
            let others = Region::from_rects(others_rects);
            let (neg, pos) = self.clearance(comp, &others, vertical);
            // Only wires with a neighbour on *both* sides within range
            // are corridor-bound; outer wires must not drift outward.
            if neg >= self.search_range || pos >= self.search_range {
                placed.push(comp.clone());
                continue;
            }
            let imbalance = pos - neg;
            let shift = (imbalance / 2).clamp(-self.max_move, self.max_move);
            if shift == 0 {
                placed.push(comp.clone());
                continue;
            }
            let v = if vertical {
                Vector::new(shift, 0)
            } else {
                Vector::new(0, shift)
            };
            let moved_comp = comp.translated(v);
            // Accept only if the minimum clearance improved.
            let (n2, p2) = self.clearance(&moved_comp, &others, vertical);
            if n2.min(p2) > neg.min(pos) {
                current[pinned.len() + mi] = moved_comp.clone();
                placed.push(moved_comp);
                moved += 1;
            } else {
                placed.push(comp.clone());
            }
        }

        if moved == 0 {
            return AppliedResult::unchanged(flat.clone());
        }
        let mut all_rects: Vec<dfm_geom::Rect> = Vec::new();
        for c in pinned.iter().chain(placed.iter()) {
            all_rects.extend(c.rects().iter().copied());
        }
        let mut out = flat.clone();
        out.set_region(self.layer, Region::from_rects(all_rects));
        AppliedResult {
            layout: out,
            notes: vec![format!("nudged {moved} wires")],
            edits: moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::{Point, Rect};
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

    fn spreader() -> WireSpreading {
        WireSpreading {
            max_move: 135,
            search_range: 810,
            layer: layers::METAL1,
        }
    }

    #[test]
    fn lopsided_wire_centres_itself() {
        let tech = Technology::n65();
        // Middle wire 90 above the bottom one but 450 below the top one.
        let flat = flat_with_m1(&[
            Rect::new(0, 0, 4000, 90),
            Rect::new(0, 180, 4000, 270),
            Rect::new(0, 720, 4000, 810),
        ]);
        let r = spreader().apply(&flat, &tech);
        assert_eq!(r.edits, 1, "{:?}", r.notes);
        let region = r.layout.region(layers::METAL1);
        // The middle wire moved up; the old position is vacated.
        assert!(!region.contains_point(Point::new(2000, 185)));
        // Minimum spacing increased beyond the original 90.
        let min_gap = dfm_drc::facing_pairs(&region, 10_000)
            .0
            .iter()
            .map(|p| p.distance)
            .min()
            .expect("has pairs");
        assert!(min_gap > 90, "min gap {min_gap}");
    }

    #[test]
    fn balanced_wires_do_not_move() {
        let tech = Technology::n65();
        let flat = flat_with_m1(&[
            Rect::new(0, 0, 4000, 90),
            Rect::new(0, 360, 4000, 450),
            Rect::new(0, 720, 4000, 810),
        ]);
        let r = spreader().apply(&flat, &tech);
        assert_eq!(r.edits, 0);
    }

    #[test]
    fn via_pinned_wires_do_not_move() {
        let tech = Technology::n65();
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        c.add_rect(layers::METAL1, Rect::new(0, 0, 4000, 90));
        c.add_rect(layers::METAL1, Rect::new(0, 180, 4000, 270));
        c.add_rect(layers::METAL1, Rect::new(0, 720, 4000, 810));
        // Pin the (lopsided) middle wire with a via.
        c.add_rect(layers::VIA1, Rect::new(2000, 200, 2090, 260));
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let r = spreader().apply(&flat, &tech);
        assert_eq!(r.edits, 0, "pinned wire must not move");
    }

    #[test]
    fn spreading_reduces_short_critical_area() {
        let tech = Technology::n65();
        let flat = flat_with_m1(&[
            Rect::new(0, 0, 8000, 90),
            Rect::new(0, 180, 8000, 270), // 90 gap below, 450 above
            Rect::new(0, 720, 8000, 810),
        ]);
        let defects = dfm_yield::DefectModel::new(45, 1.0);
        let before = dfm_yield::critical_area::analyze(&flat.region(layers::METAL1), &defects);
        let r = spreader().apply(&flat, &tech);
        let after = dfm_yield::critical_area::analyze(&r.layout.region(layers::METAL1), &defects);
        assert!(
            after.short_ca_nm2 < before.short_ca_nm2,
            "short CA {} -> {}",
            before.short_ca_nm2,
            after.short_ca_nm2
        );
        // Area unchanged: spreading only moves.
        assert_eq!(
            flat.region(layers::METAL1).area(),
            r.layout.region(layers::METAL1).area()
        );
    }

    #[test]
    fn deterministic() {
        let tech = Technology::n65();
        let flat = flat_with_m1(&[
            Rect::new(0, 0, 4000, 90),
            Rect::new(0, 180, 4000, 270),
            Rect::new(0, 720, 4000, 810),
        ]);
        let a = spreader().apply(&flat, &tech);
        let b = spreader().apply(&flat, &tech);
        assert_eq!(
            a.layout.region(layers::METAL1),
            b.layout.region(layers::METAL1)
        );
    }
}
