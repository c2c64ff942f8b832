//! Recommended (soft) design rules and compliance scoring.
//!
//! Recommended rules relax nothing and forbid nothing: they express the
//! foundry's *preference* — wider-than-minimum wires, larger-than-minimum
//! spacing, generous via enclosure. The DAC 2008 panel's academic position
//! (Kahng) asked whether compliance with such rules measurably correlates
//! with yield; experiment E10 answers that with this module plus the
//! critical-area models of `dfm-yield`.

use crate::check::check_rule;
use crate::Rule;
use dfm_layout::{LayoutView, Technology};
use std::fmt;

/// A recommended rule: a [`Rule`] evaluated as guidance with a weight.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendedRule {
    /// The underlying geometric rule (at its *recommended*, not minimum,
    /// value).
    pub rule: Rule,
    /// Relative weight in the composite score.
    pub weight: f64,
}

/// A deck of recommended rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecommendedDeck {
    rules: Vec<RecommendedRule>,
}

impl RecommendedDeck {
    /// Creates an empty deck.
    pub fn new() -> Self {
        RecommendedDeck::default()
    }

    /// Adds a recommended rule.
    pub fn push(&mut self, rule: Rule, weight: f64) {
        self.rules.push(RecommendedRule { rule, weight });
    }

    /// The rules.
    pub fn rules(&self) -> &[RecommendedRule] {
        &self.rules
    }

    /// The standard recommended deck for a technology, scaling each hard
    /// rule by the customary guidance factors (width ×1.2, spacing ×1.5,
    /// via enclosure ×1.5).
    pub fn for_technology(tech: &Technology) -> Self {
        let mut deck = RecommendedDeck::new();
        for layer in tech.ruled_layers() {
            let r = tech.rules(layer);
            deck.push(
                Rule::MinWidth {
                    layer,
                    value: r.min_width * 12 / 10,
                },
                1.0,
            );
            deck.push(
                Rule::MinSpace {
                    layer,
                    value: r.min_space * 15 / 10,
                },
                2.0,
            );
        }
        for &via in dfm_layout::layers::VIAS {
            if let Some((below, above)) = dfm_layout::layers::via_connects(via) {
                deck.push(
                    Rule::Enclosure {
                        inner: via,
                        outer: below,
                        value: tech.via_enclosure * 15 / 10,
                    },
                    1.5,
                );
                deck.push(
                    Rule::Enclosure {
                        inner: via,
                        outer: above,
                        value: tech.via_enclosure * 15 / 10,
                    },
                    1.5,
                );
            }
        }
        deck
    }

    /// Scores a layout against the deck.
    ///
    /// Each rule's compliance is `1 − violations/sites`, clamped to
    /// `[0, 1]`, where `sites` is the number of primitive features the
    /// rule could fire on (canonical rectangles for width/space, connected
    /// components for enclosure). The composite is the weighted mean.
    pub fn compliance(&self, layout: &impl LayoutView) -> ComplianceReport {
        let mut per_rule = Vec::with_capacity(self.rules.len());
        for rr in &self.rules {
            let violations = check_rule(&rr.rule, layout).len();
            let sites = rule_sites(&rr.rule, layout).max(1);
            let score = (1.0 - violations as f64 / sites as f64).clamp(0.0, 1.0);
            per_rule.push(RuleCompliance {
                id: rr.rule.id(),
                weight: rr.weight,
                sites,
                violations,
                score,
            });
        }
        ComplianceReport { per_rule }
    }
}

fn rule_sites(rule: &Rule, layout: &impl LayoutView) -> usize {
    match rule {
        Rule::MinWidth { layer, .. }
        | Rule::MinSpace { layer, .. }
        | Rule::MinArea { layer, .. } => layout.layer_rects(*layer).len(),
        Rule::MinSpaceTo { from, .. } => layout.layer_rects(*from).len(),
        Rule::WideSpace { layer, .. } => layout.layer_rects(*layer).len(),
        Rule::Enclosure { inner, .. } => layout.layer_rects(*inner).len(),
        Rule::Density { layer, window, .. } => {
            crate::check::density_map(&layout.region(*layer), layout.bbox(), *window).len()
        }
    }
}

/// Compliance of one recommended rule.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleCompliance {
    /// Rule id.
    pub id: String,
    /// Weight in the composite.
    pub weight: f64,
    /// Number of sites the rule could fire on.
    pub sites: usize,
    /// Number of guidance misses.
    pub violations: usize,
    /// Compliance score in `[0, 1]`.
    pub score: f64,
}

/// Per-rule and composite recommended-rule compliance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ComplianceReport {
    per_rule: Vec<RuleCompliance>,
}

impl ComplianceReport {
    /// Per-rule results.
    pub fn per_rule(&self) -> &[RuleCompliance] {
        &self.per_rule
    }

    /// The weighted composite score in `[0, 1]`.
    pub fn composite(&self) -> f64 {
        let total_weight: f64 = self.per_rule.iter().map(|r| r.weight).sum();
        if total_weight == 0.0 {
            return 1.0;
        }
        self.per_rule
            .iter()
            .map(|r| r.weight * r.score)
            .sum::<f64>()
            / total_weight
    }
}

impl fmt::Display for ComplianceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recommended-rule compliance: {:.3}", self.composite())?;
        for r in &self.per_rule {
            writeln!(
                f,
                "  {:<20} score {:.3} ({} misses / {} sites)",
                r.id, r.score, r.violations, r.sites
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Rect;
    use dfm_layout::{layers, Cell, FlatLayout, Library};

    fn flat_two_wires(gap: i64, width: i64) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        c.add_rect(layers::METAL1, Rect::new(0, 0, 4000, width));
        c.add_rect(
            layers::METAL1,
            Rect::new(0, width + gap, 4000, 2 * width + gap),
        );
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    #[test]
    fn compliant_layout_scores_one() {
        let tech = Technology::n65();
        let deck = RecommendedDeck::for_technology(&tech);
        // Generous geometry: twice the recommended values.
        let flat = flat_two_wires(
            tech.rules(layers::METAL1).min_space * 3,
            tech.rules(layers::METAL1).min_width * 3,
        );
        let report = deck.compliance(&flat);
        assert!((report.composite() - 1.0).abs() < 1e-9, "{report}");
    }

    #[test]
    fn minimum_layout_scores_below_one() {
        let tech = Technology::n65();
        let deck = RecommendedDeck::for_technology(&tech);
        // Exactly at the *hard* minimum: violates the recommended values.
        let flat = flat_two_wires(
            tech.rules(layers::METAL1).min_space,
            tech.rules(layers::METAL1).min_width,
        );
        let report = deck.compliance(&flat);
        assert!(report.composite() < 1.0, "{report}");
        // But never negative.
        assert!(report.composite() >= 0.0);
    }

    #[test]
    fn scores_order_matches_generosity() {
        let tech = Technology::n65();
        let deck = RecommendedDeck::for_technology(&tech);
        let tight = deck.compliance(&flat_two_wires(
            tech.rules(layers::METAL1).min_space,
            tech.rules(layers::METAL1).min_width,
        ));
        let mid = deck.compliance(&flat_two_wires(
            tech.rules(layers::METAL1).min_space * 13 / 10,
            tech.rules(layers::METAL1).min_width * 13 / 10,
        ));
        let loose = deck.compliance(&flat_two_wires(
            tech.rules(layers::METAL1).min_space * 2,
            tech.rules(layers::METAL1).min_width * 2,
        ));
        assert!(tight.composite() <= mid.composite());
        assert!(mid.composite() <= loose.composite());
    }

    #[test]
    fn empty_deck_is_fully_compliant() {
        let report = RecommendedDeck::new().compliance(&flat_two_wires(500, 500));
        assert_eq!(report.composite(), 1.0);
    }
}
