//! The unified read-only layout abstraction consumed by the engines.
//!
//! [`LayoutView`] is the one signature through which DRC, litho, yield
//! and fill engines see geometry. A view is *some* window onto a layout
//! with per-layer canonical [`Region`]s — either the whole chip
//! ([`FlatLayout`]) or a single tile plus halo
//! ([`crate::TileView`]). Engines written against `&impl LayoutView`
//! run unchanged on both.

use crate::{FlatLayout, Layer};
use dfm_geom::{Rect, Region};

/// A read-only window onto per-layer merged layout geometry.
pub trait LayoutView {
    /// Bounding box of the viewed geometry.
    fn bbox(&self) -> Rect;

    /// Borrows the merged geometry of a layer, if the view carries it.
    fn region_ref(&self, layer: Layer) -> Option<&Region>;

    /// Layers present in the view, in sorted order.
    fn used_layers(&self) -> Vec<Layer>;

    /// The merged geometry of a layer (the empty region if absent).
    fn region(&self, layer: Layer) -> Region {
        self.region_ref(layer).cloned().unwrap_or_default()
    }

    /// The canonical rectangles of a layer (empty slice if absent).
    fn layer_rects(&self, layer: Layer) -> &[Rect] {
        self.region_ref(layer).map_or(&[], |r| r.rects())
    }

    /// Total canonical rectangle count across the view's layers.
    fn rect_count(&self) -> usize {
        self.used_layers()
            .into_iter()
            .map(|l| self.layer_rects(l).len())
            .sum()
    }
}

impl LayoutView for FlatLayout {
    fn bbox(&self) -> Rect {
        FlatLayout::bbox(self)
    }

    fn region_ref(&self, layer: Layer) -> Option<&Region> {
        FlatLayout::region_ref(self, layer)
    }

    fn used_layers(&self) -> Vec<Layer> {
        FlatLayout::used_layers(self).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    fn generic_probe(v: &impl LayoutView) -> (i128, usize, usize) {
        (
            v.region(layers::METAL1).area(),
            v.used_layers().len(),
            v.rect_count(),
        )
    }

    #[test]
    fn flat_layout_implements_view() {
        let mut flat = FlatLayout::default();
        flat.set_region(layers::METAL1, Region::from_rect(Rect::new(0, 0, 100, 10)));
        flat.set_region(layers::METAL2, Region::from_rect(Rect::new(0, 0, 10, 100)));
        let (area, layers_n, rects) = generic_probe(&flat);
        assert_eq!(area, 1000);
        assert_eq!(layers_n, 2);
        assert_eq!(rects, 2);
        assert!(flat.region_ref(layers::VIA1).is_none());
        assert!(LayoutView::region(&flat, layers::VIA1).is_empty());
    }
}
