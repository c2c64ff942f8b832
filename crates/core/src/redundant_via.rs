//! Redundant-via insertion (experiment E2).

use crate::{AppliedResult, DfmTechnique};
use dfm_geom::{group_within, GridIndex, Rect, Region, Vector};
use dfm_layout::{layers, FlatLayout, Technology};

/// Doubles single vias where a second cut fits.
///
/// For every single (non-redundant) via the inserter tries the four
/// axis directions at the minimum via spacing. A candidate is accepted
/// in one of two modes:
///
/// 1. **free** — the candidate's landing pad already lies inside both
///    connected metals, or
/// 2. **pad-extension** — landing pads are added to both metal layers,
///    provided the new pads keep clear (by the metal spacing rule) of
///    every *other* metal component.
///
/// The via spacing rule against all existing and newly-added cuts is
/// enforced in both modes.
#[derive(Clone, Copy, Debug)]
pub struct RedundantViaInsertion {
    /// Distance below which two cuts count as one redundant connection.
    pub pair_distance: i64,
    /// Allow mode 2 (metal pad extensions).
    pub allow_pad_extension: bool,
}

impl RedundantViaInsertion {
    /// Default configuration for a technology.
    pub fn for_technology(tech: &Technology) -> Self {
        RedundantViaInsertion {
            pair_distance: tech.via_space * 2,
            allow_pad_extension: true,
        }
    }
}

impl DfmTechnique for RedundantViaInsertion {
    fn name(&self) -> &str {
        "redundant-via"
    }

    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult {
        let vias = flat.region(layers::VIA1);
        let m1 = flat.region(layers::METAL1);
        let m2 = flat.region(layers::METAL2);
        if vias.is_empty() {
            return AppliedResult::unchanged(flat.clone());
        }

        let metal_space = tech.rules(layers::METAL1).min_space;
        let step = tech.via_size + tech.via_space;

        // Pre-compute metal components for the pad-extension clearance
        // check: a new pad may only approach the component it lands on.
        let m1_comps = m1.connected_components();
        let m2_comps = m2.connected_components();
        let comp_index = |comps: &[Region]| {
            let rects = comps.iter().enumerate();
            let rects = rects.flat_map(|(ci, c)| c.rects().iter().map(move |r| (*r, ci)));
            GridIndex::new(4 * step.max(64), rects)
        };
        let m1_ix = comp_index(&m1_comps);
        let m2_ix = comp_index(&m2_comps);
        // `owner`: the lowest component a probe touches; `only`: whether
        // it touches no component but `own`.
        let owner = |ix: &GridIndex<usize>, probe: Rect| -> Option<usize> {
            let mut own = None;
            ix.for_each_touching(probe, |_, &ci| {
                own = Some(own.map_or(ci, |o: usize| o.min(ci)))
            });
            own
        };
        let only = |ix: &GridIndex<usize>, probe: Rect, own: Option<usize>| -> bool {
            let mut only = true;
            ix.for_each_touching(probe, |_, &ci| only &= Some(ci) == own);
            only
        };

        // The existing cuts, indexed for spacing checks; the cuts and
        // straps this pass adds are checked against `new_cuts` and
        // `straps`.
        let cut_index = GridIndex::new(4 * step.max(64), vias.rects().iter().map(|r| (*r, ())));

        let mut new_cuts: Vec<Rect> = Vec::new();
        let mut straps: Vec<Rect> = Vec::new();
        let mut free = 0usize;
        let mut extended = 0usize;

        // Work through the singles only.
        let singles: Vec<Rect> = singles_of(&vias, self.pair_distance);

        'via: for v in singles {
            let c = v.center();
            let own1 = owner(&m1_ix, v);
            let own2 = owner(&m2_ix, v);
            for dir in [
                Vector::new(step, 0),
                Vector::new(-step, 0),
                Vector::new(0, step),
                Vector::new(0, -step),
            ] {
                let nc = c + dir;
                let cut = tech.via_rect_at(nc);
                let pad = tech.via_pad_at(nc);
                // The new cut must stay out of every *other* connection's
                // pairing range (so groups never merge), which also
                // guarantees the via spacing rule.
                let apart = |r: &Rect| {
                    let (dx, dy) = r.gap(&cut);
                    *r == v || dx.max(dy) > self.pair_distance // `v`: its own partner
                };
                let mut clear = new_cuts.iter().all(apart);
                cut_index
                    .for_each_touching(cut.expanded(self.pair_distance), |r, _| clear &= apart(&r));
                if !clear {
                    continue;
                }
                let pad_region = Region::from_rect(pad);
                let free_fit =
                    pad_region.difference(&m1).is_empty() && pad_region.difference(&m2).is_empty();
                if free_fit {
                    new_cuts.push(cut);
                    free += 1;
                    continue 'via;
                }
                if !self.allow_pad_extension {
                    continue;
                }
                // Pad extension: a strap joining the original via's pad
                // to the new cut's pad (a detached pad would form a
                // sub-minimum notch against the original pad's tabs).
                // The strap must keep metal spacing to every component
                // other than the via's own, and to every pad added so
                // far.
                if own1.is_none() || own2.is_none() {
                    continue;
                }
                let strap = tech.via_pad_at(c).bounding_union(&pad);
                let danger = strap.expanded(metal_space);
                let pads_ok = !straps.iter().any(|s| s.touches(&danger));
                if only(&m1_ix, danger, own1) && only(&m2_ix, danger, own2) && pads_ok {
                    new_cuts.push(cut);
                    straps.push(strap);
                    extended += 1;
                    continue 'via;
                }
            }
        }

        if new_cuts.is_empty() {
            return AppliedResult::unchanged(flat.clone());
        }
        let mut out = flat.clone();
        out.set_region(
            layers::VIA1,
            vias.union(&Region::from_rects(new_cuts.clone())),
        );
        if !straps.is_empty() {
            let straps = Region::from_rects(straps);
            out.set_region(layers::METAL1, m1.union(&straps));
            out.set_region(layers::METAL2, m2.union(&straps));
        }
        AppliedResult {
            layout: out,
            notes: vec![format!(
                "doubled {} vias ({} free, {} with pad extension)",
                free + extended,
                free,
                extended
            )],
            edits: new_cuts.len(),
        }
    }
}

/// The via cuts that have no partner within `pair_distance`.
fn singles_of(vias: &Region, pair_distance: i64) -> Vec<Rect> {
    let rects: Vec<(Rect, usize)> = vias.rects().iter().copied().zip(0..).collect();
    let group = group_within(rects.len(), &rects, pair_distance);
    let mut sizes = vec![0usize; rects.len()];
    for &g in &group {
        sizes[g] += 1;
    }
    rects
        .iter()
        .filter(|&&(_, i)| sizes[group[i]] == 1)
        .map(|&(r, _)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{generate, Cell, Library};
    use dfm_yield::via_model;

    fn routed_flat(seed: u64) -> (Technology, FlatLayout) {
        let tech = Technology::n65();
        let lib = generate::routed_block(&tech, generate::RoutedBlockParams::default(), seed);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        (tech, flat)
    }

    #[test]
    fn doubles_vias_on_routed_block() {
        let (tech, flat) = routed_flat(5);
        let before = via_model::classify(&flat.region(layers::VIA1), tech.via_space * 2);
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let result = rvi.apply(&flat, &tech);
        let after = via_model::classify(&result.layout.region(layers::VIA1), tech.via_space * 2);
        assert!(result.edits > 0, "{:?}", result.notes);
        assert!(after.redundant > before.redundant);
        assert!(after.redundancy_rate() > before.redundancy_rate());
        // Connections are conserved: every original connection remains.
        assert_eq!(after.connections(), before.connections());
    }

    #[test]
    fn inserted_vias_keep_spacing_rule() {
        let (tech, flat) = routed_flat(6);
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let result = rvi.apply(&flat, &tech);
        let vias = result.layout.region(layers::VIA1);
        let viols = dfm_drc::spacing_violations(&vias, tech.via_space);
        assert!(viols.is_empty(), "via spacing violations: {viols:?}");
    }

    #[test]
    fn inserted_vias_are_enclosed() {
        let (tech, flat) = routed_flat(7);
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let result = rvi.apply(&flat, &tech);
        let vias = result.layout.region(layers::VIA1);
        let m1 = result.layout.region(layers::METAL1);
        let m2 = result.layout.region(layers::METAL2);
        let v1 = dfm_drc::check::enclosure_violations(&vias, &m1, tech.via_enclosure);
        let v2 = dfm_drc::check::enclosure_violations(&vias, &m2, tech.via_enclosure);
        assert!(v1.is_empty(), "M1 enclosure violations: {v1:?}");
        assert!(v2.is_empty(), "M2 enclosure violations: {v2:?}");
    }

    #[test]
    fn pad_extension_respects_metal_spacing() {
        let (tech, flat) = routed_flat(8);
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let result = rvi.apply(&flat, &tech);
        for layer in [layers::METAL1, layers::METAL2] {
            let region = result.layout.region(layer);
            let viols = dfm_drc::spacing_violations(&region, tech.rules(layer).min_space);
            assert!(
                viols.is_empty(),
                "{layer} spacing violations: {}",
                viols.len()
            );
        }
    }

    #[test]
    fn no_vias_is_a_noop() {
        let tech = Technology::n65();
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        c.add_rect(layers::METAL1, dfm_geom::Rect::new(0, 0, 1000, 90));
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let r = rvi.apply(&flat, &tech);
        assert_eq!(r.edits, 0);
    }

    /// FNV-1a over `apply`'s VIA1, METAL1 and METAL2 rects and its edit
    /// count on three 12 µm routed blocks: any change to which cuts are
    /// added, or which straps, changes the digest.
    #[test]
    fn routed_block_insertion_is_pinned() {
        let tech = Technology::n65();
        let mut bytes = Vec::new();
        for seed in 11..=13 {
            let params = generate::RoutedBlockParams {
                width: 12_000,
                height: 12_000,
                ..Default::default()
            };
            let lib = generate::routed_block(&tech, params, seed);
            let flat = lib.flatten_top().expect("flatten");
            let r = RedundantViaInsertion::for_technology(&tech).apply(&flat, &tech);
            bytes.extend((r.edits as u64).to_le_bytes());
            for layer in [layers::VIA1, layers::METAL1, layers::METAL2] {
                for rect in r.layout.region(layer).rects() {
                    for v in [rect.x0, rect.y0, rect.x1, rect.y1] {
                        bytes.extend(v.to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(dfm_check::fnv1a_64(&bytes), 0xa9f4_fab6_1b71_ec29);
    }

    #[test]
    fn deterministic() {
        let (tech, flat) = routed_flat(9);
        let rvi = RedundantViaInsertion::for_technology(&tech);
        let a = rvi.apply(&flat, &tech);
        let b = rvi.apply(&flat, &tech);
        assert_eq!(
            a.layout.region(layers::VIA1).area(),
            b.layout.region(layers::VIA1).area()
        );
        assert_eq!(a.edits, b.edits);
    }
}
