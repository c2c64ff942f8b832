//! Dummy metal fill for CMP density uniformity (experiment E9).

use crate::{AppliedResult, DfmTechnique};
use dfm_drc::{density_map, density_ppm};
use dfm_geom::{Coord, Rect, Region};
use dfm_layout::{layers, FlatLayout, Layer, Technology};

/// Inserts dummy fill squares into under-dense density windows.
///
/// Fill shapes are placed on a fixed grid inside the empty space of each
/// failing window, keeping `keepout` clearance from functional metal
/// (fill-to-metal spacing) and from each other (grid pitch). Fill is
/// written to the layer's fill datatype (`FILL_M1`/`FILL_M2`) so
/// downstream tools can distinguish it, and counted together with the
/// functional metal for density.
#[derive(Clone, Copy, Debug)]
pub struct MetalFill {
    /// Fill square edge length.
    pub fill_size: Coord,
    /// Grid pitch between fill squares.
    pub fill_pitch: Coord,
    /// Clearance between fill and functional metal.
    pub keepout: Coord,
    /// The metal layers to equalise.
    pub metal_layers: [Layer; 2],
}

impl MetalFill {
    /// Default configuration for a technology: fill squares of 4× the
    /// minimum width at 2× spacing, one minimum-space-plus-margin away
    /// from real metal.
    pub fn from_context(ctx: &crate::EvaluationContext) -> Self {
        let w = ctx.tech.rules(layers::METAL1).min_width;
        MetalFill {
            fill_size: 4 * w,
            fill_pitch: 6 * w,
            keepout: 2 * ctx.tech.rules(layers::METAL1).min_space,
            metal_layers: [layers::METAL1, layers::METAL2],
        }
    }

    fn fill_layer_of(metal: Layer) -> Layer {
        if metal == layers::METAL2 {
            layers::FILL_M2
        } else {
            layers::FILL_M1
        }
    }
}

impl DfmTechnique for MetalFill {
    fn name(&self) -> &str {
        "metal-fill"
    }

    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult {
        let mut out = flat.clone();
        let mut notes = Vec::new();
        let mut edits = 0usize;
        let extent = flat.bbox();
        if extent.is_empty() {
            return AppliedResult::unchanged(out);
        }
        for metal in self.metal_layers {
            let region = flat.region(metal);
            if region.is_empty() {
                // A layer that is not used at all needs no fill.
                continue;
            }
            let window = tech.density_window;
            let dmap = density_map(&region, extent, window);
            // Same half-to-even ppm quantisation as the DRC Density
            // rule, so fill and DRC agree on which windows fail.
            let floor_ppm = density_ppm(tech.min_density);
            let underdense: Vec<Rect> = dmap
                .iter()
                .filter(|&&(_, d)| density_ppm(d) < floor_ppm)
                .map(|&(w, _)| w)
                .collect();
            if underdense.is_empty() {
                continue;
            }
            let keepout_region = region.bloated(self.keepout);
            let mut fills: Vec<Rect> = Vec::new();
            let target_zone = Region::from_rects(underdense.iter().copied());
            let zone_bbox = target_zone.bbox();
            // Fill candidates on a global grid (windows overlap; a global
            // grid avoids double placement).
            let mut y = zone_bbox.y0 - zone_bbox.y0.rem_euclid(self.fill_pitch);
            while y < zone_bbox.y1 {
                let mut x = zone_bbox.x0 - zone_bbox.x0.rem_euclid(self.fill_pitch);
                while x < zone_bbox.x1 {
                    let f = Rect::new(x, y, x + self.fill_size, y + self.fill_size);
                    let fr = Region::from_rect(f);
                    if fr.difference(&target_zone).is_empty()
                        && fr.intersection(&keepout_region).is_empty()
                    {
                        fills.push(f);
                    }
                    x += self.fill_pitch;
                }
                y += self.fill_pitch;
            }
            if fills.is_empty() {
                continue;
            }
            edits += fills.len();
            let fill_region = Region::from_rects(fills);
            notes.push(format!(
                "{metal}: {} fill shapes, +{} nm²",
                fill_region.rect_count(),
                fill_region.area()
            ));
            out.set_region(Self::fill_layer_of(metal), fill_region);
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

/// Density statistics helper shared with experiment E9: the minimum and
/// maximum window density of `metal ∪ fill`.
pub fn density_extremes(flat: &FlatLayout, metal: Layer, fill: Layer, window: Coord) -> (f64, f64) {
    let combined = flat.region(metal).union(&flat.region(fill));
    let dmap = density_map(&combined, flat.bbox(), window);
    let min = dmap.iter().map(|&(_, d)| d).fold(1.0f64, f64::min);
    let max = dmap.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{Cell, Library};

    /// A layout with one dense corner and lots of empty space.
    fn lopsided_flat(tech: &Technology) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        let w = tech.rules(layers::METAL1).min_width;
        // Dense block in the lower-left corner.
        for i in 0..40 {
            c.add_rect(
                layers::METAL1,
                Rect::new(0, i * 3 * w, 20_000, i * 3 * w + 2 * w),
            );
        }
        // A marker far away so the extent is large and mostly empty.
        c.add_rect(layers::METAL1, Rect::new(59_000, 59_000, 60_000, 59_090));
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    #[test]
    fn fill_raises_minimum_density() {
        let tech = Technology::n65();
        let flat = lopsided_flat(&tech);
        let ctx = crate::EvaluationContext::for_technology(tech.clone());
        let filler = MetalFill::from_context(&ctx);
        let r = filler.apply(&flat, &tech);
        assert!(r.edits > 0, "{:?}", r.notes);
        let (min_before, _) =
            density_extremes(&flat, layers::METAL1, layers::FILL_M1, tech.density_window);
        let (min_after, max_after) = density_extremes(
            &r.layout,
            layers::METAL1,
            layers::FILL_M1,
            tech.density_window,
        );
        assert!(
            min_after > min_before,
            "min density {min_before} -> {min_after}"
        );
        assert!(max_after <= 1.0);
    }

    #[test]
    fn fill_keeps_clear_of_metal() {
        let tech = Technology::n65();
        let flat = lopsided_flat(&tech);
        let ctx = crate::EvaluationContext::for_technology(tech.clone());
        let filler = MetalFill::from_context(&ctx);
        let r = filler.apply(&flat, &tech);
        let fill = r.layout.region(layers::FILL_M1);
        let metal = r.layout.region(layers::METAL1);
        // Fill at keepout distance: bloating metal by keepout−1 must not
        // touch fill.
        let danger = metal.bloated(filler.keepout - 1);
        assert!(fill.intersection(&danger).is_empty());
    }

    #[test]
    fn fill_is_on_fill_datatype_not_metal() {
        let tech = Technology::n65();
        let flat = lopsided_flat(&tech);
        let ctx = crate::EvaluationContext::for_technology(tech.clone());
        let r = MetalFill::from_context(&ctx).apply(&flat, &tech);
        // Functional metal unchanged.
        assert_eq!(
            r.layout.region(layers::METAL1).area(),
            flat.region(layers::METAL1).area()
        );
        assert!(r.layout.region(layers::FILL_M1).area() > 0);
    }

    #[test]
    fn uniform_dense_layout_needs_no_fill() {
        let tech = Technology::n65();
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        let w = tech.rules(layers::METAL1).min_width;
        // Uniform 50% density everywhere.
        for i in 0..200 {
            c.add_rect(
                layers::METAL1,
                Rect::new(0, i * 2 * w, 40_000, i * 2 * w + w),
            );
        }
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let ctx = crate::EvaluationContext::for_technology(tech.clone());
        let r = MetalFill::from_context(&ctx).apply(&flat, &tech);
        assert_eq!(r.edits, 0);
    }
}
