//! Technology ground rules: the parameter sets driving generators, DRC
//! decks and DFM cost models.

use crate::{layers, Layer};
use std::collections::BTreeMap;
use std::fmt;

/// Per-layer ground rules in nanometres.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LayerRules {
    /// Minimum drawn width.
    pub min_width: i64,
    /// Minimum same-layer spacing.
    pub min_space: i64,
    /// Minimum shape area (nm²).
    pub min_area: i64,
}

/// A simplified technology definition: node name, layer ground rules,
/// via geometry, and density windows.
///
/// Three presets approximate the nodes debated at the DAC 2008 panel
/// (65 nm in production, 45 nm ramping, 32/28 nm in development):
/// [`Technology::n65`], [`Technology::n45`], [`Technology::n28`].
///
/// ```
/// let t = dfm_layout::Technology::n45();
/// assert_eq!(t.node_nm, 45);
/// assert!(t.rules(dfm_layout::layers::METAL1).min_width > 0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Technology {
    /// Marketing node name in nanometres.
    pub node_nm: u32,
    /// Per-layer width/space/area rules.
    rules: BTreeMap<Layer, LayerRules>,
    /// Via cut edge length (vias are square).
    pub via_size: i64,
    /// Required metal enclosure of a via on each side.
    pub via_enclosure: i64,
    /// Required via-to-via spacing.
    pub via_space: i64,
    /// Contacted poly pitch (gate pitch) for standard cells.
    pub gate_pitch: i64,
    /// Metal-1 routing pitch.
    pub m1_pitch: i64,
    /// Metal-2 routing pitch.
    pub m2_pitch: i64,
    /// Standard-cell row height.
    pub cell_height: i64,
    /// Metal density window edge for CMP rules.
    pub density_window: i64,
    /// Minimum metal density in any window (0–1).
    pub min_density: f64,
    /// Maximum metal density in any window (0–1).
    pub max_density: f64,
}

impl Technology {
    fn base(node_nm: u32, scale: i64) -> Self {
        // `scale` is the half-pitch-ish scaling unit: 65nm -> 65 etc.
        let mut rules = BTreeMap::new();
        let metal = LayerRules {
            min_width: scale,
            min_space: scale,
            min_area: scale * scale * 4,
        };
        let poly = LayerRules {
            min_width: (scale * 6) / 10,
            min_space: (scale * 12) / 10,
            min_area: scale * scale * 2,
        };
        let active = LayerRules {
            min_width: scale,
            min_space: scale,
            min_area: scale * scale * 4,
        };
        rules.insert(layers::ACTIVE, active);
        rules.insert(layers::POLY, poly);
        rules.insert(layers::METAL1, metal);
        rules.insert(layers::METAL2, metal);
        rules.insert(
            layers::METAL3,
            LayerRules {
                min_width: scale * 2,
                min_space: scale * 2,
                min_area: scale * scale * 8,
            },
        );
        let via = LayerRules {
            min_width: scale,
            min_space: scale,
            min_area: scale * scale,
        };
        rules.insert(layers::CONTACT, via);
        rules.insert(layers::VIA1, via);
        rules.insert(layers::VIA2, via);
        Technology {
            node_nm,
            rules,
            via_size: scale,
            via_enclosure: (scale * 4) / 10,
            via_space: (scale * 12) / 10,
            gate_pitch: scale * 4,
            // Routing pitch of 3× the half-pitch leaves room for via
            // landing pads and double-width wires without spacing
            // violations (see `generate::routed_block`).
            m1_pitch: scale * 3,
            m2_pitch: scale * 3,
            cell_height: scale * 18,
            density_window: scale * 200,
            min_density: 0.20,
            max_density: 0.80,
        }
    }

    /// A 65 nm-class technology (in volume production at the panel date).
    pub fn n65() -> Self {
        Technology::base(65, 90)
    }

    /// A 45 nm-class technology (ramping at the panel date).
    pub fn n45() -> Self {
        Technology::base(45, 65)
    }

    /// A 28 nm-class technology (the next-node stress case).
    pub fn n28() -> Self {
        Technology::base(28, 45)
    }

    /// Ground rules for a layer.
    ///
    /// # Panics
    ///
    /// Panics for layers without defined rules (fill and marker layers
    /// deliberately have none).
    pub fn rules(&self, layer: Layer) -> LayerRules {
        self.rules
            .get(&layer)
            .copied()
            .unwrap_or_else(|| panic!("no ground rules for layer {layer}"))
    }

    /// Layers with ground rules defined.
    pub fn ruled_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.rules.keys().copied()
    }

    /// Drawn via rectangle dimensions: a square of `via_size`.
    pub fn via_rect_at(&self, center: dfm_geom::Point) -> dfm_geom::Rect {
        dfm_geom::Rect::centered_at(center, self.via_size, self.via_size)
    }

    /// Metal landing-pad rectangle for a via at `center`: the via expanded
    /// by the enclosure rule.
    pub fn via_pad_at(&self, center: dfm_geom::Point) -> dfm_geom::Rect {
        self.via_rect_at(center).expanded(self.via_enclosure)
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm-class technology", self.node_nm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let (a, b, c) = (Technology::n65(), Technology::n45(), Technology::n28());
        assert!(a.rules(layers::METAL1).min_width > b.rules(layers::METAL1).min_width);
        assert!(b.rules(layers::METAL1).min_width > c.rules(layers::METAL1).min_width);
        assert!(a.gate_pitch > b.gate_pitch && b.gate_pitch > c.gate_pitch);
    }

    #[test]
    fn via_pad_is_enclosed_via() {
        let t = Technology::n65();
        let c = dfm_geom::Point::new(1000, 1000);
        let via = t.via_rect_at(c);
        let pad = t.via_pad_at(c);
        assert!(pad.contains_rect(&via));
        assert_eq!(pad.width(), via.width() + 2 * t.via_enclosure);
    }

    #[test]
    #[should_panic(expected = "no ground rules")]
    fn marker_layer_has_no_rules() {
        let _ = Technology::n65().rules(layers::MARKER);
    }

    #[test]
    fn density_window_sane() {
        let t = Technology::n45();
        assert!(t.min_density > 0.0 && t.max_density < 1.0);
        assert!(t.density_window > 100 * t.m1_pitch / 2);
    }
}
