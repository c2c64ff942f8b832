//! The common interface of DFM techniques.

use dfm_layout::{FlatLayout, Technology};

/// The outcome of applying a technique.
#[derive(Clone, Debug)]
pub struct AppliedResult {
    /// The modified layout.
    pub layout: FlatLayout,
    /// Human-readable notes about what was changed (counts, skips).
    pub notes: Vec<String>,
    /// Number of edits made (vias added, wires moved, fill shapes…).
    pub edits: usize,
}

impl AppliedResult {
    /// An unchanged result (technique found nothing to do).
    pub fn unchanged(layout: FlatLayout) -> Self {
        AppliedResult {
            layout,
            notes: vec!["no applicable sites".into()],
            edits: 0,
        }
    }
}

/// A DFM technique: a pure layout-to-layout transformation whose benefit
/// and cost the [evaluator](crate::evaluate) measures.
///
/// Implementations must be deterministic: the hit-or-hype comparison is
/// only meaningful when reapplication reproduces the same layout.
pub trait DfmTechnique {
    /// Short stable name used in reports.
    fn name(&self) -> &str;

    /// Applies the technique to a flattened layout.
    fn apply(&self, flat: &FlatLayout, tech: &Technology) -> AppliedResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::layers;

    struct Noop;
    impl DfmTechnique for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn apply(&self, flat: &FlatLayout, _tech: &Technology) -> AppliedResult {
            AppliedResult::unchanged(flat.clone())
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let t: Box<dyn DfmTechnique> = Box::new(Noop);
        let flat = FlatLayout::default();
        let r = t.apply(&flat, &Technology::n65());
        assert_eq!(r.edits, 0);
        assert!(r.layout.region(layers::METAL1).is_empty());
    }
}
