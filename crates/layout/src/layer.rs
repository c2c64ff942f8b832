//! GDSII layer/datatype pairs and the workspace layer map.

use std::fmt;

/// A GDSII layer: the `(layer, datatype)` pair identifying a mask level.
///
/// ```
/// use dfm_layout::Layer;
/// let m1 = Layer::new(4, 0);
/// assert_eq!(m1.to_string(), "4/0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Layer {
    /// GDSII layer number (0–255 in the classic format).
    pub layer: u16,
    /// GDSII datatype number.
    pub datatype: u16,
}

impl Layer {
    /// Creates a layer from its GDSII numbers.
    pub const fn new(layer: u16, datatype: u16) -> Self {
        Layer { layer, datatype }
    }

    /// A human-readable name for the standard workspace layers, or `None`
    /// for non-standard layers.
    pub fn name(&self) -> Option<&'static str> {
        layers::ALL.iter().find(|(l, _)| l == self).map(|(_, n)| *n)
    }
}

impl fmt::Debug for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "{n}({}/{})", self.layer, self.datatype),
            None => write!(f, "{}/{}", self.layer, self.datatype),
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.layer, self.datatype)
    }
}

/// The standard layer assignments used throughout the workspace.
///
/// These mirror a simplified planar CMOS stack: front-end (active, poly,
/// contact), three metal levels with vias, plus a dummy-fill marker layer.
pub mod layers {
    use super::Layer;

    /// Active (diffusion) regions.
    pub const ACTIVE: Layer = Layer::new(1, 0);
    /// Polysilicon gates.
    pub const POLY: Layer = Layer::new(2, 0);
    /// Contacts (active/poly to metal-1).
    pub const CONTACT: Layer = Layer::new(3, 0);
    /// First metal.
    pub const METAL1: Layer = Layer::new(4, 0);
    /// Via metal-1 to metal-2.
    pub const VIA1: Layer = Layer::new(5, 0);
    /// Second metal.
    pub const METAL2: Layer = Layer::new(6, 0);
    /// Via metal-2 to metal-3.
    pub const VIA2: Layer = Layer::new(7, 0);
    /// Third metal.
    pub const METAL3: Layer = Layer::new(8, 0);
    /// N-well.
    pub const NWELL: Layer = Layer::new(9, 0);
    /// Dummy metal fill (written on the target metal's fill datatype).
    pub const FILL_M1: Layer = Layer::new(4, 1);
    /// Dummy metal-2 fill.
    pub const FILL_M2: Layer = Layer::new(6, 1);
    /// Marker layer for DFM annotations (hotspots, violations).
    pub const MARKER: Layer = Layer::new(63, 0);

    /// All standard layers with their names.
    pub const ALL: &[(Layer, &str)] = &[
        (ACTIVE, "ACTIVE"),
        (POLY, "POLY"),
        (CONTACT, "CONTACT"),
        (METAL1, "METAL1"),
        (VIA1, "VIA1"),
        (METAL2, "METAL2"),
        (VIA2, "VIA2"),
        (METAL3, "METAL3"),
        (NWELL, "NWELL"),
        (FILL_M1, "FILL_M1"),
        (FILL_M2, "FILL_M2"),
        (MARKER, "MARKER"),
    ];

    /// The routing metal layers in stack order.
    pub const METALS: &[Layer] = &[METAL1, METAL2, METAL3];

    /// The via layers in stack order (`VIA1` connects `METAL1`–`METAL2`).
    pub const VIAS: &[Layer] = &[VIA1, VIA2];

    /// The metal pair a via layer connects, if it is a standard via layer.
    pub fn via_connects(via: Layer) -> Option<(Layer, Layer)> {
        match via {
            VIA1 => Some((METAL1, METAL2)),
            VIA2 => Some((METAL2, METAL3)),
            CONTACT => Some((POLY, METAL1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names() {
        assert_eq!(layers::METAL1.name(), Some("METAL1"));
        assert_eq!(Layer::new(200, 7).name(), None);
        assert_eq!(format!("{:?}", layers::VIA1), "VIA1(5/0)");
    }

    #[test]
    fn via_connectivity() {
        assert_eq!(
            layers::via_connects(layers::VIA1),
            Some((layers::METAL1, layers::METAL2))
        );
        assert_eq!(layers::via_connects(layers::METAL1), None);
    }

    #[test]
    fn fill_shares_layer_number() {
        assert_eq!(layers::FILL_M1.layer, layers::METAL1.layer);
        assert_ne!(layers::FILL_M1, layers::METAL1);
    }
}
