//! Pattern-library-driven layout fixing (DRC-Plus style).

use crate::{AppliedResult, DfmTechnique};
use dfm_geom::{Coord, Point, Rect, Region};
use dfm_layout::{FlatLayout, Layer, Technology};
use dfm_pattern::PatternLibrary;

/// The pre-characterised fix carried by a library pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixAction {
    /// Grow the geometry in the matched window by `delta` per side,
    /// protecting gaps that cannot absorb the growth.
    WidenLocal {
        /// Per-side growth.
        delta: Coord,
    },
    /// Carve a notch-relief: fill gaps narrower than `below` inside the
    /// matched window (turning a problematic slot into solid metal).
    CloseNotch {
        /// Gaps narrower than this are filled.
        below: Coord,
    },
}

/// A DRC-Plus-style fixer: scans a layer's anchors against a library of
/// problematic patterns and applies each pattern's pre-characterised
/// [`FixAction`] at the matched locations.
///
/// Fixes are *opportunistic*: a fix that would bring the layer closer
/// than `min_space` to surrounding geometry is skipped — only
/// rule-clean replacements are kept, mirroring the production flow this
/// reproduces (Wang et al., stitch/fix replacement).
#[derive(Clone, Debug)]
pub struct PatternFixing {
    /// The pattern library with fixes as payloads.
    pub library: PatternLibrary<FixAction>,
    /// Layer to scan and fix.
    pub layer: Layer,
    /// Anchors to scan (typically rect corners or centres).
    pub anchors: Vec<Point>,
}

impl PatternFixing {
    fn apply_fix(
        region: &Region,
        window: Rect,
        action: FixAction,
        min_space: Coord,
    ) -> Option<Region> {
        let local = region.clipped(window);
        if local.is_empty() {
            return None;
        }
        let replacement = match action {
            FixAction::WidenLocal { delta } => {
                let h = (min_space + 2 * delta + 1) / 2;
                let narrow = local.closed(h).difference(&local);
                local
                    .bloated(delta)
                    .difference(&narrow)
                    .clipped(window)
                    .union(&local)
            }
            FixAction::CloseNotch { below } => local.closed((below + 1) / 2).clipped(window),
        };
        // Rule-clean gate: the replacement must keep spacing to the
        // geometry outside the window.
        let outside = region.difference(&Region::from_rect(window));
        let added = replacement.difference(&local);
        if added.is_empty() {
            return None;
        }
        if !added.bloated(min_space).intersection(&outside).is_empty() {
            return None;
        }
        Some(region.union(&replacement))
    }
}

impl DfmTechnique for PatternFixing {
    fn name(&self) -> &str {
        "pattern-fixing"
    }

    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult {
        let mut region = flat.region(self.layer);
        let min_space = tech.rules(self.layer).min_space;
        let radius = self.library.radius();
        let mut applied = 0usize;
        let mut skipped = 0usize;

        // Scan once against the original geometry; apply sequentially.
        let matches = self.library.scan(&[&region], &self.anchors);
        for m in &matches {
            let action = self.library.entries()[m.entry].1;
            let window = Rect::centered_at(m.at, 2 * radius, 2 * radius);
            match Self::apply_fix(&region, window, action, min_space) {
                Some(fixed) => {
                    region = fixed;
                    applied += 1;
                }
                None => skipped += 1,
            }
        }

        if applied == 0 {
            return AppliedResult::unchanged(flat.clone());
        }
        let mut out = flat.clone();
        out.set_region(self.layer, region);
        AppliedResult {
            layout: out,
            notes: vec![format!(
                "{} matches: {applied} fixed, {skipped} skipped (not rule-clean)",
                matches.len()
            )],
            edits: applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{layers, Cell, Library};

    /// A bad pattern: a narrow slot (notch) between two plates.
    fn slot_at(c: Point, slot: Coord) -> Vec<Rect> {
        vec![
            Rect::new(c.x - 400, c.y - 300, c.x + 400, c.y - slot / 2),
            Rect::new(c.x - 400, c.y + slot / 2, c.x + 400, c.y + 300),
        ]
    }

    fn flat_with(rects: &[Rect]) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        for &r in rects {
            c.add_rect(layers::METAL1, r);
        }
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    #[test]
    fn learned_slot_gets_closed() {
        let tech = Technology::n65();
        let teach_at = Point::new(0, 0);
        let teach = flat_with(&slot_at(teach_at, 60));
        let mut library: PatternLibrary<FixAction> = PatternLibrary::new(500, 5, 10);
        library.learn(
            &[&teach.region(layers::METAL1)],
            teach_at,
            FixAction::CloseNotch { below: 100 },
        );

        // The same bad slot occurs in a bigger design.
        let site = Point::new(10_000, 5_000);
        let mut rects = slot_at(site, 60);
        rects.push(Rect::new(0, 20_000, 4000, 20_090)); // unrelated wire
        let flat = flat_with(&rects);
        let fixer = PatternFixing {
            library,
            layer: layers::METAL1,
            anchors: vec![site, Point::new(2000, 20_045)],
        };
        let r = fixer.apply(&flat, &tech);
        assert_eq!(r.edits, 1, "{:?}", r.notes);
        // The slot is now filled.
        assert!(r.layout.region(layers::METAL1).contains_point(site));
        // The unrelated wire is untouched.
        assert_eq!(
            r.layout
                .region(layers::METAL1)
                .clipped(Rect::new(0, 19_000, 4000, 21_000)),
            flat.region(layers::METAL1)
                .clipped(Rect::new(0, 19_000, 4000, 21_000))
        );
    }

    #[test]
    fn fix_skipped_when_not_rule_clean() {
        let tech = Technology::n65();
        let teach_at = Point::new(0, 0);
        let teach = flat_with(&slot_at(teach_at, 60));
        let mut library: PatternLibrary<FixAction> = PatternLibrary::new(500, 5, 10);
        library.learn(
            &[&teach.region(layers::METAL1)],
            teach_at,
            FixAction::WidenLocal { delta: 40 },
        );

        // The bad site has a neighbouring wire just past the window: the
        // widened plate would violate spacing to it.
        let site = Point::new(10_000, 5_000);
        let mut rects = slot_at(site, 60);
        // Neighbour 95 above the upper plate's top edge (x-aligned).
        rects.push(Rect::new(
            site.x - 400,
            site.y + 395,
            site.x + 400,
            site.y + 485,
        ));
        let flat = flat_with(&rects);
        let fixer = PatternFixing {
            library,
            layer: layers::METAL1,
            anchors: vec![site],
        };
        let r = fixer.apply(&flat, &tech);
        // The input already carries the slot's own spacing violation; the
        // fixer must not add any *new* violation.
        let min_space = tech.rules(layers::METAL1).min_space;
        let before = dfm_drc::spacing_violations(&flat.region(layers::METAL1), min_space);
        let after = dfm_drc::spacing_violations(&r.layout.region(layers::METAL1), min_space);
        assert!(
            after.len() <= before.len(),
            "{} -> {} violations",
            before.len(),
            after.len()
        );
    }

    #[test]
    fn no_matches_is_noop() {
        let tech = Technology::n65();
        let library: PatternLibrary<FixAction> = PatternLibrary::new(500, 5, 10);
        let flat = flat_with(&[Rect::new(0, 0, 1000, 90)]);
        let fixer = PatternFixing {
            library,
            layer: layers::METAL1,
            anchors: vec![Point::new(500, 45)],
        };
        let r = fixer.apply(&flat, &tech);
        assert_eq!(r.edits, 0);
    }
}
