//! Wire spreading: equalise unequal spacings to cut short-circuit
//! critical area (experiment E1).

use crate::{AppliedResult, DfmTechnique};
use dfm_geom::{Coord, Rect, Region, Vector};
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

    /// Directional clearance from `comp` to `near` along the move axis
    /// (x for vertical wires, y for horizontal ones): `(negative,
    /// positive)`, each the largest `d ≤ search_range` such that
    /// sliding `comp` by `d` that way sweeps over nothing.
    ///
    /// The sweep of a rect hits a rect that shares span with it once
    /// `d` exceeds their gap on the move axis, so each side's clearance
    /// is the least such gap (0 when they already overlap).
    fn clearance(&self, comp: &Region, near: &[&Region], vertical: bool) -> (Coord, Coord) {
        // (move low, move high, span low, span high)
        let axes = |r: &Rect| {
            if vertical {
                (r.x0, r.x1, r.y0, r.y1)
            } else {
                (r.y0, r.y1, r.x0, r.x1)
            }
        };
        let (mut neg, mut pos) = (self.search_range, self.search_range);
        for o in near.iter().flat_map(|c| c.rects()) {
            let (o0, o1, os0, os1) = axes(o);
            for (r0, r1, s0, s1) in comp.rects().iter().map(axes) {
                if s0 < os1 && os0 < s1 {
                    if o1 > r0 {
                        pos = pos.min(o0 - r1);
                    }
                    if o0 < r1 {
                        neg = neg.min(r0 - o1);
                    }
                }
            }
        }
        (neg.max(0), pos.max(0))
    }
}

impl DfmTechnique for WireSpreading {
    fn name(&self) -> &str {
        "wire-spreading"
    }

    fn apply(&self, flat: &FlatLayout, _tech: &Technology) -> AppliedResult {
        let empty = Region::new();
        let region = |layer| flat.region_ref(layer).unwrap_or(&empty);
        let vias = region(layers::VIA1).union(region(layers::CONTACT));
        // Pinned wires (touching a via) stay and come first; free wires
        // follow and move. Each move is checked against the current
        // positions of everything else.
        let (mut current, free): (Vec<Region>, Vec<Region>) = region(self.layer)
            .connected_components()
            .into_iter()
            .partition(|c| !c.intersection(&vias).is_empty());
        let first_free = current.len();
        current.extend(free);

        let range = self.search_range;
        let mut moved = 0usize;
        for i in first_free..current.len() {
            let comp = &current[i];
            let b = comp.bbox();
            let vertical = b.height() > b.width();
            // Only components within `range` on the move axis can set a
            // clearance below `range`. A move shifts every gap on a side
            // alike, so the same neighbours still set the moved ones.
            let reach = if vertical {
                Rect::new(b.x0 - range, b.y0, b.x1 + range, b.y1)
            } else {
                Rect::new(b.x0, b.y0 - range, b.x1, b.y1 + range)
            };
            let near: Vec<&Region> = current
                .iter()
                .enumerate()
                .filter(|&(j, c)| j != i && c.bbox().touches(&reach))
                .map(|(_, c)| c)
                .collect();
            let (neg, pos) = self.clearance(comp, &near, vertical);
            // Only wires with a neighbour on *both* sides within range
            // are corridor-bound; outer wires must not drift outward.
            if neg >= range || pos >= range {
                continue;
            }
            let shift = ((pos - neg) / 2).clamp(-self.max_move, self.max_move);
            if shift == 0 {
                continue;
            }
            let v = if vertical {
                Vector::new(shift, 0)
            } else {
                Vector::new(0, shift)
            };
            let moved_comp = comp.translated(v);
            // Accept only if the minimum clearance improved.
            let (n2, p2) = self.clearance(&moved_comp, &near, vertical);
            if n2.min(p2) > neg.min(pos) {
                current[i] = moved_comp;
                moved += 1;
            }
        }

        if moved == 0 {
            return AppliedResult::unchanged(flat.clone());
        }
        let mut out = flat.clone();
        out.set_region(
            self.layer,
            Region::from_rects(current.iter().flat_map(|c| c.rects().iter().copied())),
        );
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
    use dfm_check::{check, prop_assert_eq, Config};
    use dfm_geom::Point;
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

    /// The directional clearance by binary search on a one-sided bloat:
    /// the largest `d ≤ range` whose sweep of `comp` along the move axis
    /// stays clear of `others`.
    fn bloat_search_clearance(
        comp: &Region,
        others: &Region,
        vertical: bool,
        range: Coord,
    ) -> (Coord, Coord) {
        let gap_dir = |positive: bool| -> Coord {
            let swept = |d: Coord| {
                Region::from_rects(comp.rects().iter().map(|r| {
                    let (lo, hi) = if positive { (0, d) } else { (d, 0) };
                    if vertical {
                        Rect::new(r.x0 - lo, r.y0, r.x1 + hi, r.y1)
                    } else {
                        Rect::new(r.x0, r.y0 - lo, r.x1, r.y1 + hi)
                    }
                }))
            };
            // Invariant: clearance ≥ lo, at most hi.
            let (mut lo, mut hi) = (0, range);
            while lo < hi {
                let mid = (lo + hi + 1) / 2;
                if swept(mid).intersection(others).is_empty() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        };
        (gap_dir(false), gap_dir(true))
    }

    /// The closed-form clearance equals the bloat search on soups of
    /// one-rect neighbours around a small component: overlapping,
    /// touching, near and beyond `search_range`, in both orientations.
    #[test]
    fn closed_form_clearance_matches_the_bloat_search() {
        let soup =
            |n: std::ops::Range<usize>| dfm_check::vec((0i64..24, 0i64..24, 1i64..7, 1i64..7), n);
        check(
            "closed_form_clearance_matches_the_bloat_search",
            &Config::with_cases(256),
            &(soup(1..4), soup(0..8), dfm_check::bools(), 1i64..30),
            |case| {
                let rects = |soup: &[(i64, i64, i64, i64)]| -> Vec<Rect> {
                    soup.iter()
                        .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                        .collect()
                };
                let (comp, others, vertical, range) =
                    (rects(&case.0), rects(&case.1), case.2, case.3);
                let comp = Region::from_rects(comp);
                let near: Vec<Region> = others.iter().map(|&r| Region::from_rect(r)).collect();
                let near: Vec<&Region> = near.iter().collect();
                let spreader = WireSpreading {
                    max_move: 1,
                    search_range: range,
                    layer: layers::METAL1,
                };
                prop_assert_eq!(
                    spreader.clearance(&comp, &near, vertical),
                    bloat_search_clearance(&comp, &Region::from_rects(others), vertical, range),
                    "vertical {} range {}",
                    vertical,
                    range
                );
                Ok(())
            },
        );
    }

    /// FNV-1a over the spread layer's rects and the edit count, for the
    /// M1 and M2 spreaders on three 12 µm routed blocks: any change to
    /// which wires move, or by how much, changes the digest.
    #[test]
    fn routed_block_spreading_is_pinned() {
        let tech = Technology::n65();
        let mut bytes = Vec::new();
        for seed in 11..=13 {
            let params = dfm_layout::generate::RoutedBlockParams {
                width: 12_000,
                height: 12_000,
                ..Default::default()
            };
            let lib = dfm_layout::generate::routed_block(&tech, params, seed);
            let flat = lib.flatten_top().expect("flatten");
            for layer in [layers::METAL1, layers::METAL2] {
                let spreader = WireSpreading {
                    max_move: tech.m1_pitch / 2,
                    search_range: tech.m1_pitch * 3,
                    layer,
                };
                let r = spreader.apply(&flat, &tech);
                bytes.extend((r.edits as u64).to_le_bytes());
                for rect in r.layout.region(layer).rects() {
                    for v in [rect.x0, rect.y0, rect.x1, rect.y1] {
                        bytes.extend(v.to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(dfm_check::fnv1a_64(&bytes), 0x247c_3c83_6bfa_1ea9);
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
